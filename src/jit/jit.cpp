// jit.cpp — runtime compile + dlopen behind a two-level object cache.
//
// A design's parts compile as concurrent `-c` jobs and link into one .so.
// Every compiler process of the process takes a slot first: at most as
// many run at once as the calling thread's affinity mask has cpus.  Each
// job runs on one of min(parts, cap) threads of its compile() call, so a
// thread holds at most one slot and never waits for a slot while its own
// compiler is unreaped; the jobs wait on the pids they spawned only.  A
// failed job is flagged before its slot is given back, and a job checks
// the flag once it holds a slot, so nothing starts after a failure.
//
// Level 1 is the in-process map of live objects (weak entries, so temp
// dirs die with their last engine).  Level 2 is the optional persistent
// directory ($OSSS_JIT_CACHE_DIR) shared across processes: artifacts are
// published atomically (temp file + rename into place), same-key compiles
// across processes serialize on a per-key flock so the loser loads the
// winner's artifact instead of recompiling, and the directory is LRU
// capped by mtime.  Within a process, concurrent compiles of *different*
// sources run in parallel: the cache mutex guards only map/in-flight
// bookkeeping, and each key has its own in-flight entry that followers
// wait on.

#include "jit/jit.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <vector>

#include "par/env.hpp"

extern char** environ;

namespace fs = std::filesystem;

namespace osss::jit {

/// Internal factory: the only code allowed to construct Objects and set
/// their private fields (kept out of the anonymous namespace so it can be
/// named in Object's friend declaration).
struct ObjectAccess {
  static std::shared_ptr<Object> make(std::uint64_t key) {
    std::shared_ptr<Object> obj(new Object);
    obj->key_ = key;
    return obj;
  }
  static void*& dl(Object& o) { return o.dl_; }
  static std::string& work_dir(Object& o) { return o.work_dir_; }
  static std::string& log(Object& o) { return o.log_; }
};

namespace {

/// One in-flight compile: the leader fills result/log and flips done; any
/// follower that found this entry under the cache mutex waits here instead
/// of racing the compiler on the same key.
struct Inflight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::shared_ptr<Object> result;
  std::string log;
};

struct Cache {
  // Guards map / inflight / stats only — never held across a compiler
  // invocation or a disk probe, so unrelated compiles run in parallel.
  std::mutex mu;
  // weak entries: an object lives exactly as long as some engine holds it,
  // so temp dirs never outlive their users (the cleanup tests rely on it).
  std::unordered_map<std::uint64_t, std::weak_ptr<Object>> map;
  std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> inflight;
  CacheStats stats;
};

Cache& cache() {
  static Cache c;
  return c;
}

std::string resolve_compiler(const CompileOptions& opt) {
  if (!opt.compiler.empty()) return opt.compiler;
  const char* env = std::getenv("OSSS_CC");
  return (env != nullptr && *env != '\0') ? env : "c++";
}

std::string default_flags() {
  std::string flags = "-std=c++17 -O2 -fPIC";
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) flags += " -mavx2";
  if (__builtin_cpu_supports("avx512f")) flags += " -mavx512f";
  // Byte and halfword lane vectors (the rtl tape's u8 / u16 classes) are 64
  // bytes only under AVX-512BW.
  if (__builtin_cpu_supports("avx512bw")) flags += " -mavx512bw";
#endif
  return flags;
}

/// Starts `argv` (argv[0] looked up on $PATH unless it holds a slash)
/// with no shell, stdout on `out_fd` and stderr on `err_fd`.  Returns the
/// child's pid, or -1 with the reason in `why`.
pid_t spawn(const std::vector<std::string>& argv, int out_fd, int err_fd,
            std::string& why) {
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv)
    args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, out_fd, STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&fa, err_fd, STDERR_FILENO);
  pid_t pid = -1;
  const int rc =
      ::posix_spawnp(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    why = "cannot run '" + argv[0] + "': " + std::strerror(rc);
    return -1;
  }
  return pid;
}

/// Waits for `pid`; returns its exit status, or -1 with the reason in
/// `why` when it did not exit normally.
int wait_exit(pid_t pid, const std::string& name, std::string& why) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      why = std::string("waitpid failed: ") + std::strerror(errno);
      return -1;
    }
  }
  if (!WIFEXITED(status)) {
    why = "'" + name + "' was killed by signal " +
          std::to_string(WTERMSIG(status));
    return -1;
  }
  return WEXITSTATUS(status);
}

/// Cpus in the calling thread's affinity mask (at least 1): the cap on
/// compiler processes it may keep running.
unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0)
    return std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// The process-wide count of running compiler processes.  A caller takes
/// a slot while fewer than its cap run, and holds it from spawn to reap.
struct Slots {
  std::mutex mu;
  std::condition_variable cv;
  unsigned running = 0;

  void acquire(unsigned cap) {
    std::unique_lock<std::mutex> hold(mu);
    cv.wait(hold, [&] { return running < cap; });
    ++running;
  }
  void release() {
    {
      std::lock_guard<std::mutex> hold(mu);
      --running;
    }
    cv.notify_all();
  }
};

Slots& slots() {
  static Slots s;
  return s;
}

/// One compiler command of a build: its argv, the file its stdout and
/// stderr go to, and how it ended.
struct Job {
  std::vector<std::string> argv;
  std::string log_path;
  bool ran = false;
  int rc = -1;      ///< exit status; -1 when it could not run or died
  std::string why;  ///< spawn / wait failure
};

/// Runs `job` in a compiler slot and waits for its pid, unless `failed`
/// is set by the time the slot is taken.  A failure sets `failed` before
/// the slot is given back, so a job waiting for that slot never starts.
void run_job(Job& job, unsigned cap, std::atomic<bool>& failed) {
  Slots& sl = slots();
  sl.acquire(cap);
  if (!failed) {
    job.ran = true;
    const int log_fd = ::open(job.log_path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log_fd < 0) {
      job.why = "cannot create " + job.log_path;
    } else {
      const pid_t pid = spawn(job.argv, log_fd, log_fd, job.why);
      ::close(log_fd);
      if (pid > 0) job.rc = wait_exit(pid, job.argv[0], job.why);
    }
    if (job.rc != 0) failed = true;
  }
  sl.release();
}

/// Runs `jobs` on min(jobs, cap) threads, the calling one included.  No
/// job starts after one has failed; every started job has been reaped when
/// this returns.  Returns the failed job, or nullptr when all succeeded.
const Job* run_jobs(std::vector<Job>& jobs, unsigned cap) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto work = [&] {
    for (std::size_t i; !failed && (i = next++) < jobs.size();)
      run_job(jobs[i], cap, failed);
  };
  std::vector<std::thread> helpers;
  for (std::size_t k = 1; k < std::min<std::size_t>(jobs.size(), cap); ++k) {
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // fewer threads: the ones running take the rest
    }
  }
  work();
  for (std::thread& t : helpers) t.join();
  const auto bad = std::find_if(jobs.begin(), jobs.end(), [](const Job& j) {
    return j.ran && j.rc != 0;
  });
  return bad != jobs.end() ? &*bad : nullptr;
}

/// What a job wrote to its log, then why it could not run, if it could not.
std::string read_log(const Job& job) {
  std::ifstream f(job.log_path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str() + job.why;
}

/// Whitespace-separated words of a flag string, one argv entry each.
std::vector<std::string> split_words(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  for (std::string w; in >> w;) out.push_back(std::move(w));
  return out;
}

/// First line of `cc --version`, probed once per compiler per process and
/// mixed into the cache key: a toolchain upgrade must invalidate artifacts
/// published by the old compiler, and the probe result is stable within a
/// process so in-memory hashing stays cheap.  A compiler that cannot run
/// contributes the empty string (the compile itself will fail and fall
/// back).
std::string compiler_version(const std::string& cc) {
  static std::mutex mu;
  static std::unordered_map<std::string, std::string> seen;
  std::lock_guard<std::mutex> hold(mu);
  if (const auto it = seen.find(cc); it != seen.end()) return it->second;
  std::string ver;
  int fds[2];
  const int null_fd = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  if (null_fd >= 0 && ::pipe2(fds, O_CLOEXEC) == 0) {
    std::string why;
    slots().acquire(affinity_cpus());
    const pid_t pid = spawn({cc, "--version"}, fds[1], null_fd, why);
    ::close(fds[1]);
    std::string out;
    char buf[256];
    if (pid > 0)
      for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    if (pid > 0 && wait_exit(pid, cc, why) >= 0)
      ver = out.substr(0, out.find('\n'));
    slots().release();
  }
  if (null_fd >= 0) ::close(null_fd);
  seen.emplace(cc, ver);
  return ver;
}

// --- persistent disk cache --------------------------------------------------

struct DiskCache {
  bool enabled = false;
  fs::path dir;
};

DiskCache disk_config() {
  DiskCache dc;
  const char* d = std::getenv("OSSS_JIT_CACHE_DIR");
  if (d == nullptr || *d == '\0') return dc;  // unset: layer fully inert
  dc.dir = d;
  std::error_code ec;
  fs::create_directories(dc.dir, ec);  // best effort; probes/publish cope
  dc.enabled = true;
  return dc;
}

/// 0 disables eviction.  A negative or malformed value ("-1", "64MB")
/// keeps the default with a warning instead of wrapping or truncating.
std::uintmax_t disk_cap_bytes() {
  return par::env_u64("OSSS_JIT_CACHE_MAX_BYTES", std::uint64_t{256} << 20, 0,
                      std::numeric_limits<std::uint64_t>::max());
}

std::string key_hex(std::uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

/// dlopen a published artifact and run the caller's ABI probe.  Truncated,
/// corrupt or stale files fail dlopen or the probe; either way the caller
/// deletes the artifact (under the per-key flock) and compiles fresh.
std::shared_ptr<Object> try_load_disk(const fs::path& so, std::uint64_t key,
                                      const CompileOptions& opt) {
  std::error_code ec;
  if (!fs::exists(so, ec)) return nullptr;
  void* dl = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (dl == nullptr) return nullptr;
  std::shared_ptr<Object> obj = ObjectAccess::make(key);
  ObjectAccess::dl(*obj) = dl;  // no work_dir_: the artifact is cache-owned
  if (opt.validate && !opt.validate(*obj)) return nullptr;  // dtor dlcloses
  fs::last_write_time(so, fs::file_time_type::clock::now(), ec);  // LRU touch
  return obj;
}

/// Copy the fresh gen.so next to its final name and rename into place —
/// readers either see the complete artifact or none.  Best effort: an
/// unwritable cache dir silently degrades to the in-memory-only path.
bool publish_disk(const fs::path& built_so, const fs::path& final_so) {
  std::error_code ec;
  fs::path tmp = final_so;
  tmp += ".tmp" + std::to_string(static_cast<long>(::getpid()));
  fs::copy_file(built_so, tmp, fs::copy_options::overwrite_existing, ec);
  if (ec) return false;
  fs::rename(tmp, final_so, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

/// Drop oldest-mtime artifacts until the directory fits the size cap,
/// never evicting the artifact just published.  Lock files ride along with
/// their .so.  Returns the number of artifacts evicted.
std::uint64_t evict_lru(const fs::path& dir, const fs::path& keep) {
  const std::uintmax_t cap = disk_cap_bytes();
  if (cap == 0) return 0;
  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::uintmax_t size;
  };
  std::vector<Entry> entries;
  std::uintmax_t total = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().extension() != ".so") continue;
    const std::uintmax_t sz = it->file_size(ec);
    if (ec) continue;
    entries.push_back({it->path(), it->last_write_time(ec), sz});
    total += sz;
  }
  if (total <= cap) return 0;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  std::uint64_t evicted = 0;
  for (const Entry& e : entries) {
    if (total <= cap) break;
    if (e.path == keep) continue;
    if (fs::remove(e.path, ec)) {
      total -= e.size;
      ++evicted;
      fs::path lock = e.path;
      lock.replace_extension(".lock");
      fs::remove(lock, ec);
    }
  }
  return evicted;
}

/// Outcome of the slow path (disk probe + compile), folded into the
/// process-wide counters under the cache mutex by the leader.
struct SlowResult {
  std::shared_ptr<Object> obj;
  bool compiled = false;
  bool disk_hit = false;
  bool disk_miss = false;
  std::uint64_t evictions = 0;
};

/// Everything past the in-memory map: probe the persistent cache, compile
/// on a miss, publish the result.  Runs WITHOUT the cache mutex; same-key
/// callers are serialized by the in-flight entry (in-process) and the
/// per-key flock (cross-process).
SlowResult compile_slow(const Parts& parts, const CompileOptions& opt,
                        const std::string& cc, unsigned cap, const char* tag,
                        std::uint64_t key, std::string& log) {
  SlowResult r;
  const DiskCache dc = disk_config();
  fs::path final_so, lock_path;
  int lock_fd = -1;
  if (dc.enabled) {
    const std::string stem = std::string(tag) + "-" + key_hex(key);
    final_so = dc.dir / (stem + ".so");
    lock_path = dc.dir / (stem + ".lock");
    lock_fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    // Serialize same-key compiles across processes: whoever wins compiles
    // and publishes; the loser wakes, re-probes and loads the artifact.
    if (lock_fd >= 0) ::flock(lock_fd, LOCK_EX);
    if ((r.obj = try_load_disk(final_so, key, opt)) != nullptr) {
      r.disk_hit = true;
      if (lock_fd >= 0) ::close(lock_fd);  // releases the flock
      log.clear();
      return r;
    }
    r.disk_miss = true;
    std::error_code ec;
    fs::remove(final_so, ec);  // stale/corrupt artifact: republish below
  }

  const auto done = [&](SlowResult out) {
    if (lock_fd >= 0) ::close(lock_fd);
    return out;
  };

  const char* tmp = std::getenv("TMPDIR");
  std::string tmpl = (tmp != nullptr && *tmp != '\0' ? std::string(tmp)
                                                     : std::string("/tmp")) +
                     "/" + tag + "-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    log = "mkdtemp failed; using interpreted dispatch";
    return done(std::move(r));
  }
  std::shared_ptr<Object> obj = ObjectAccess::make(key);
  const std::string dir = ObjectAccess::work_dir(*obj) = buf.data();
  const std::string so = dir + "/gen.so";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::ofstream f(dir + "/gen" + std::to_string(i) + ".cpp");
    f << parts[i];
    if (!f) {
      log = "failed to write generated source";
      return done(std::move(r));  // obj dtor removes the dir
    }
  }
  // cc <flags> <args>, output to <dir>/<log_name>.
  const std::vector<std::string> flags =
      split_words(default_flags() + " " + opt.extra_flags);
  const auto job = [&](std::initializer_list<std::string> args,
                       const std::string& log_name) {
    Job j;
    j.argv.push_back(cc);
    j.argv.insert(j.argv.end(), flags.begin(), flags.end());
    j.argv.insert(j.argv.end(), args);
    j.log_path = dir + "/" + log_name;
    return j;
  };
  // The parts compile to objects concurrently, then link.
  std::vector<Job> parts_cc, link(1, job({"-shared"}, "link.log"));
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string stem = dir + "/gen" + std::to_string(i);
    parts_cc.push_back(job({"-c", stem + ".cpp", "-o", stem + ".o"},
                           "cc" + std::to_string(i) + ".log"));
    link[0].argv.push_back(stem + ".o");
  }
  link[0].argv.insert(link[0].argv.end(), {"-o", so});
  if (const Job* bad = run_jobs(parts_cc, cap)) {
    log = read_log(*bad) + "\n[compile failed in part " +
          std::to_string(bad - parts_cc.data()) + " of " +
          std::to_string(parts.size()) + "; using interpreted dispatch]";
    return done(std::move(r));
  }
  if (const Job* bad = run_jobs(link, cap)) {
    log = read_log(*bad) + "\n[link failed; using interpreted dispatch]";
    return done(std::move(r));
  }
  for (const Job& j : parts_cc) ObjectAccess::log(*obj) += read_log(j);
  ObjectAccess::log(*obj) += read_log(link[0]);
  ObjectAccess::dl(*obj) = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (ObjectAccess::dl(*obj) == nullptr) {
    const char* err = dlerror();
    log = ObjectAccess::log(*obj) + "\n[dlopen failed: " +
          (err != nullptr ? err : "?") + "]";
    return done(std::move(r));
  }
  if (dc.enabled && publish_disk(so, final_so))
    r.evictions = evict_lru(dc.dir, final_so);
  r.compiled = true;
  r.obj = std::move(obj);
  log = ObjectAccess::log(*r.obj);
  return done(std::move(r));
}

}  // namespace

Object::~Object() {
  if (dl_ != nullptr) dlclose(dl_);
  if (!work_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(work_dir_, ec);
  }
}

void* Object::sym(const char* name) const noexcept {
  return dl_ != nullptr ? dlsym(dl_, name) : nullptr;
}

std::uint64_t source_hash(const Parts& parts, const CompileOptions& opt) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // separator outside the byte alphabet
    h *= 0x100000001b3ull;
  };
  const std::string cc = resolve_compiler(opt);
  mix(std::to_string(parts.size()));
  for (const std::string& part : parts) mix(part);
  mix(cc);
  mix(compiler_version(cc));
  mix(default_flags());
  mix(opt.extra_flags);
  return h;
}

std::shared_ptr<Object> compile(const Parts& parts, const CompileOptions& opt,
                                const char* tag, std::string& log) {
  if (opt.force_fallback) {
    log = "native backend disabled; using interpreted dispatch";
    return nullptr;
  }
  const std::string cc = resolve_compiler(opt);
  const std::uint64_t key = source_hash(parts, opt);

  Cache& c = cache();
  std::shared_ptr<Inflight> fl;
  {
    std::unique_lock<std::mutex> hold(c.mu);
    for (;;) {
      if (const auto it = c.map.find(key); it != c.map.end()) {
        if (std::shared_ptr<Object> live = it->second.lock()) {
          ++c.stats.hits;
          log = live->log();
          return live;
        }
      }
      if (const auto it = c.inflight.find(key); it != c.inflight.end()) {
        // Same key already compiling: wait for the leader, then re-check
        // (the leader may have failed; its result may already be dead).
        fl = it->second;
        hold.unlock();
        {
          std::unique_lock<std::mutex> w(fl->mu);
          fl->cv.wait(w, [&] { return fl->done; });
        }
        hold.lock();
        if (fl->result != nullptr) {
          ++c.stats.hits;
          log = fl->result->log();
          return fl->result;
        }
        ++c.stats.misses;
        log = fl->log;
        return nullptr;
      }
      // No live object, no in-flight compile: become the leader for this
      // key and leave the map lock before doing any slow work.
      fl = std::make_shared<Inflight>();
      c.inflight.emplace(key, fl);
      ++c.stats.misses;
      break;
    }
  }

  SlowResult r =
      compile_slow(parts, opt, cc, affinity_cpus(), tag, key, log);

  {
    std::lock_guard<std::mutex> hold(c.mu);
    if (r.obj != nullptr) c.map[key] = r.obj;
    if (r.compiled) ++c.stats.compiles;
    if (r.disk_hit) ++c.stats.disk_hits;
    if (r.disk_miss) ++c.stats.disk_misses;
    c.stats.disk_evictions += r.evictions;
    c.inflight.erase(key);
  }
  {
    std::lock_guard<std::mutex> w(fl->mu);
    fl->result = r.obj;
    fl->log = log;
    fl->done = true;
  }
  fl->cv.notify_all();
  return r.obj;
}

CacheStats cache_stats() noexcept {
  Cache& c = cache();
  std::lock_guard<std::mutex> hold(c.mu);
  return c.stats;
}

bool jit_disabled_by_env() noexcept {
  const char* nj = std::getenv("OSSS_NO_JIT");
  return nj != nullptr && *nj != '\0' && *nj != '0';
}

}  // namespace osss::jit
