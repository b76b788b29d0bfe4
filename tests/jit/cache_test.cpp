// cache_test.cpp — the persistent JIT object cache and its failure modes.
//
// The disk layer ($OSSS_JIT_CACHE_DIR) must be invisible when things go
// wrong: a truncated or stale artifact, an unwritable directory, or an
// unset variable all have to land on the same behavior as the in-memory
// path — compile fresh, never hand a bad object to an engine.  The suite
// drives jit::compile directly (tiny one-symbol sources), checks the
// cross-process flock contract with fork'd children, pins the LRU
// eviction order, and closes with an end-to-end gate-engine case where a
// published artifact carries the wrong lane count and must be rejected by
// the engine's validate probe.  The JitSpawn cases pin how the compiler is
// started: an argv with no shell, so an odd compiler path works and shell
// syntax in it is never run.
//
// The WarmCache environment at the bottom backs the CI warm-start job:
// when OSSS_JIT_EXPECT_WARM is set, every test process asserts it invoked
// the compiler zero times (ctest runs one process per test, so this
// covers each Native test individually).

#include "jit/jit.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "rtl/builder.hpp"

namespace fs = std::filesystem;

namespace osss::jit {
namespace {

/// Scoped environment override, restoring the previous value on exit.
/// Pass nullptr to unset the variable for the scope.
struct EnvVar {
  std::string name;
  std::string old;
  bool had;
  EnvVar(const char* n, const char* v) : name(n) {
    const char* o = std::getenv(n);
    had = o != nullptr;
    if (had) old = o;
    if (v != nullptr)
      ::setenv(n, v, 1);
    else
      ::unsetenv(n);
  }
  ~EnvVar() {
    if (had)
      ::setenv(name.c_str(), old.c_str(), 1);
    else
      ::unsetenv(name.c_str());
  }
};

/// Private mkdtemp directory, removed with everything in it on exit.
struct TempDir {
  std::string path;
  TempDir() {
    const char* t = std::getenv("TMPDIR");
    std::string tmpl = (t != nullptr && *t != '\0' ? std::string(t)
                                                   : std::string("/tmp")) +
                       "/osss-cache-test-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) path = buf.data();
  }
  ~TempDir() {
    if (!path.empty()) {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  }
};

bool jit_disabled() { return jit_disabled_by_env(); }

/// One exported symbol per id keeps cache keys distinct between tests
/// sharing a process; equal-length ids keep the compiled .so sizes equal
/// (the LRU test relies on that).
std::string tiny_source(const std::string& id) {
  return "extern \"C\" unsigned osss_cache_probe_" + id + "() { return " +
         std::to_string(id.size()) + "u; }\n";
}

fs::path artifact_path(const std::string& dir, const std::string& source,
                       const CompileOptions& opt, const char* tag) {
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(source_hash(source, opt)));
  return fs::path(dir) / (std::string(tag) + "-" + hex + ".so");
}

TEST(JitDiskCache, PublishAndWarmLoad) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", dir.path.c_str());
  const std::string src = tiny_source("warmload");
  const CompileOptions opt;
  std::string log;

  const CacheStats before = cache_stats();
  std::shared_ptr<Object> obj = compile(src, opt, "osss-jt", log);
  ASSERT_NE(obj, nullptr) << log;
  EXPECT_NE(obj->sym("osss_cache_probe_warmload"), nullptr);
  const CacheStats mid = cache_stats();
  EXPECT_EQ(mid.compiles, before.compiles + 1);
  EXPECT_EQ(mid.disk_misses, before.disk_misses + 1);
  const fs::path so = artifact_path(dir.path, src, opt, "osss-jt");
  EXPECT_TRUE(fs::exists(so)) << "compile did not publish " << so;

  // Drop the only live reference so the in-memory entry dies; the next
  // compile must come from the published artifact, not the compiler.
  obj.reset();
  std::string log2;
  std::shared_ptr<Object> warm = compile(src, opt, "osss-jt", log2);
  ASSERT_NE(warm, nullptr) << log2;
  EXPECT_NE(warm->sym("osss_cache_probe_warmload"), nullptr);
  const CacheStats after = cache_stats();
  EXPECT_EQ(after.compiles, mid.compiles) << "warm load ran the compiler";
  EXPECT_EQ(after.disk_hits, mid.disk_hits + 1);
}

TEST(JitDiskCache, TruncatedArtifactFallsBackToFreshCompile) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", dir.path.c_str());
  const std::string src = tiny_source("truncated");
  const CompileOptions opt;
  std::string log;
  compile(src, opt, "osss-jt", log).reset();
  const fs::path so = artifact_path(dir.path, src, opt, "osss-jt");
  ASSERT_TRUE(fs::exists(so));
  {  // corrupt the published artifact: dlopen must reject it
    std::ofstream f(so, std::ios::trunc | std::ios::binary);
    f << "xx";
  }
  const CacheStats before = cache_stats();
  std::string log2;
  std::shared_ptr<Object> obj = compile(src, opt, "osss-jt", log2);
  ASSERT_NE(obj, nullptr) << log2;
  EXPECT_NE(obj->sym("osss_cache_probe_truncated"), nullptr);
  const CacheStats after = cache_stats();
  EXPECT_EQ(after.compiles, before.compiles + 1)
      << "corrupt artifact was not recompiled";
  EXPECT_EQ(after.disk_misses, before.disk_misses + 1);
  EXPECT_GT(fs::file_size(so), 2u) << "fresh artifact was not republished";
}

TEST(JitDiskCache, ValidateHookGatesDiskLoads) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", dir.path.c_str());
  const std::string src = tiny_source("validate");
  std::string log;
  compile(src, CompileOptions{}, "osss-jt", log).reset();

  // A rejecting probe (what an engine does on an ABI or lane-count
  // mismatch) must discard the artifact and compile fresh — validate is
  // not part of the key, so this hits the same artifact.
  CompileOptions reject;
  reject.validate = [](const Object&) { return false; };
  const CacheStats before = cache_stats();
  std::string log2;
  std::shared_ptr<Object> obj = compile(src, reject, "osss-jt", log2);
  ASSERT_NE(obj, nullptr) << log2;
  CacheStats after = cache_stats();
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_EQ(after.disk_misses, before.disk_misses + 1);
  obj.reset();

  // An accepting probe loads the republished artifact without compiling.
  CompileOptions accept;
  accept.validate = [](const Object& o) {
    return o.sym("osss_cache_probe_validate") != nullptr;
  };
  std::string log3;
  std::shared_ptr<Object> warm = compile(src, accept, "osss-jt", log3);
  ASSERT_NE(warm, nullptr) << log3;
  const CacheStats last = cache_stats();
  EXPECT_EQ(last.compiles, after.compiles);
  EXPECT_EQ(last.disk_hits, after.disk_hits + 1);
}

TEST(JitDiskCache, UnsetDirBehavesLikeInMemoryOnly) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", nullptr);
  const std::string src = tiny_source("memonly1");
  std::string log;
  const CacheStats before = cache_stats();
  std::shared_ptr<Object> obj = compile(src, CompileOptions{}, "osss-jt", log);
  ASSERT_NE(obj, nullptr) << log;
  // Live-object sharing still works...
  std::string log2;
  std::shared_ptr<Object> again =
      compile(src, CompileOptions{}, "osss-jt", log2);
  EXPECT_EQ(again.get(), obj.get());
  // ...and the disk counters never move.
  obj.reset();
  again.reset();
  std::string log3;
  compile(src, CompileOptions{}, "osss-jt", log3).reset();
  const CacheStats after = cache_stats();
  EXPECT_EQ(after.compiles, before.compiles + 2)
      << "a dead in-memory entry must recompile when no disk layer exists";
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.disk_hits, before.disk_hits);
  EXPECT_EQ(after.disk_misses, before.disk_misses);
  EXPECT_EQ(after.disk_evictions, before.disk_evictions);
}

TEST(JitDiskCache, UnwritableDirDegradesSilently) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  // A directory that can neither be created nor written: compiles must
  // still succeed, exactly like the in-memory-only path.
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", "/dev/null/osss-nope");
  const std::string src = tiny_source("unwritable");
  std::string log;
  const CacheStats before = cache_stats();
  std::shared_ptr<Object> obj = compile(src, CompileOptions{}, "osss-jt", log);
  ASSERT_NE(obj, nullptr) << log;
  EXPECT_NE(obj->sym("osss_cache_probe_unwritable"), nullptr);
  const CacheStats after = cache_stats();
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_EQ(after.disk_hits, before.disk_hits);
}

TEST(JitDiskCache, TwoProcessesPublishExactlyOneCompile) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", dir.path.c_str());
  const std::string src = tiny_source("twoproc");
  const std::uint64_t base = cache_stats().compiles;  // inherited by forks

  // Both children race the same key into the shared directory.  The
  // per-key flock serializes them: whoever takes the lock first compiles
  // and publishes, the other wakes, re-probes and loads the artifact —
  // so the children report exactly one compile between them.
  pid_t kids[2];
  for (pid_t& kid : kids) {
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      std::string log;
      std::shared_ptr<Object> obj =
          compile(src, CompileOptions{}, "osss-jt", log);
      if (obj == nullptr || obj->sym("osss_cache_probe_twoproc") == nullptr)
        ::_exit(77);
      ::_exit(static_cast<int>(cache_stats().compiles - base));
    }
    kid = pid;
  }
  int total = 0;
  for (const pid_t kid : kids) {
    int st = 0;
    ASSERT_EQ(::waitpid(kid, &st, 0), kid);
    ASSERT_TRUE(WIFEXITED(st));
    ASSERT_NE(WEXITSTATUS(st), 77) << "child failed to load the object";
    total += WEXITSTATUS(st);
  }
  EXPECT_EQ(total, 1) << "the flock'd publish must cost one compile total";
  EXPECT_TRUE(fs::exists(artifact_path(dir.path, src, {}, "osss-jt")));
}

TEST(JitDiskCache, LruEvictsOldestArtifactFirst) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", dir.path.c_str());
  const std::string src_a = tiny_source("aaaaaaaa");
  const std::string src_b = tiny_source("bbbbbbbb");
  const std::string src_c = tiny_source("cccccccc");
  std::string log;
  {  // publish A and B with eviction disabled
    EnvVar cap("OSSS_JIT_CACHE_MAX_BYTES", "0");
    compile(src_a, CompileOptions{}, "osss-jt", log).reset();
    compile(src_b, CompileOptions{}, "osss-jt", log).reset();
  }
  const fs::path so_a = artifact_path(dir.path, src_a, {}, "osss-jt");
  const fs::path so_b = artifact_path(dir.path, src_b, {}, "osss-jt");
  const fs::path so_c = artifact_path(dir.path, src_c, {}, "osss-jt");
  ASSERT_TRUE(fs::exists(so_a));
  ASSERT_TRUE(fs::exists(so_b));
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(so_a, now - std::chrono::hours(2));  // oldest
  fs::last_write_time(so_b, now - std::chrono::hours(1));

  // Cap so that publishing C overflows and evicting one artifact (the
  // oldest) fits again; the sources are equal-length so the three .so
  // sizes match to within the slack.
  const std::uintmax_t cap_bytes =
      fs::file_size(so_a) + fs::file_size(so_b) + 4096;
  EnvVar cap("OSSS_JIT_CACHE_MAX_BYTES", std::to_string(cap_bytes).c_str());
  const CacheStats before = cache_stats();
  compile(src_c, CompileOptions{}, "osss-jt", log).reset();
  const CacheStats after = cache_stats();
  EXPECT_GE(after.disk_evictions, before.disk_evictions + 1);
  EXPECT_FALSE(fs::exists(so_a)) << "LRU must drop the oldest artifact";
  EXPECT_TRUE(fs::exists(so_b));
  EXPECT_TRUE(fs::exists(so_c)) << "never evict the freshly published key";
}

TEST(JitDiskCache, MalformedCapKeepsDefaultAndWarns) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", dir.path.c_str());
  const std::string src_a = tiny_source("ffffffff");
  std::string log;
  {
    EnvVar cap("OSSS_JIT_CACHE_MAX_BYTES", "0");
    compile(src_a, CompileOptions{}, "osss-jt", log).reset();
  }
  const fs::path so_a = artifact_path(dir.path, src_a, {}, "osss-jt");
  ASSERT_TRUE(fs::exists(so_a));
  // "64MB" once read as a 64-byte cap (evicting everything else) and "-1"
  // as 2^64-1 (eviction silently off); each publish re-reads the cap.
  const char* const bad_caps[] = {"64MB", "-1"};
  const char* const ids[] = {"gggggggg", "hhhhhhhh"};
  for (std::size_t i = 0; i < std::size(bad_caps); ++i) {
    EnvVar cap("OSSS_JIT_CACHE_MAX_BYTES", bad_caps[i]);
    const CacheStats before = cache_stats();
    testing::internal::CaptureStderr();
    compile(tiny_source(ids[i]), CompileOptions{}, "osss-jt", log).reset();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("OSSS_JIT_CACHE_MAX_BYTES"), std::string::npos)
        << bad_caps[i] << " must be reported";
    EXPECT_EQ(cache_stats().disk_evictions, before.disk_evictions)
        << bad_caps[i] << " must keep the 256 MiB default";
    EXPECT_TRUE(fs::exists(so_a)) << bad_caps[i];
  }
}

// --- end-to-end: a stale artifact with the wrong ABI never reaches an
// engine ---------------------------------------------------------------

TEST(JitDiskCache, GateEngineRejectsWrongLanesArtifact) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", dir.path.c_str());

  rtl::Builder b("stale");
  const rtl::Wire a = b.input("a", 8);
  const rtl::Wire q = b.reg("q", 8);
  b.connect(q, b.add(q, a));
  b.output("o", q);
  const gate::Netlist nl = gate::lower_to_gates(b.take());

  // Publish the 64-lane artifact, then plant it under the 128-lane key:
  // exactly what a stale cache entry after an emitter change looks like.
  {
    gate::Simulator first(nl, gate::SimMode::kNative, 64);
    ASSERT_TRUE(first.native().native()) << first.native().compile_log();
  }
  const std::string src64 = gate::emit_netlist_cpp(nl, 64);
  const std::string src128 = gate::emit_netlist_cpp(nl, 128);
  const fs::path so64 = artifact_path(dir.path, src64, {}, "osss-gate");
  const fs::path so128 = artifact_path(dir.path, src128, {}, "osss-gate");
  ASSERT_TRUE(fs::exists(so64)) << "64-lane engine did not publish";
  fs::copy_file(so64, so128, fs::copy_options::overwrite_existing);

  const CacheStats before = cache_stats();
  gate::Simulator sim(nl, gate::SimMode::kNative, 128);
  ASSERT_TRUE(sim.native().native()) << sim.native().compile_log();
  EXPECT_EQ(sim.lanes(), 128u);
  const CacheStats after = cache_stats();
  EXPECT_EQ(after.compiles, before.compiles + 1)
      << "wrong-lanes artifact must be rejected and recompiled";
  sim.set_input("a", std::uint64_t{2});
  sim.step(3);
  EXPECT_EQ(sim.output("o").to_u64(), 6u);
}

// --- compiler invocation (no shell) ----------------------------------------

/// A compiler wrapper at a path with a space and a quote compiles: the
/// path reaches exec as one argv entry instead of being quoted for a shell.
TEST(JitSpawn, WrapperAtQuotedPathCompilesNatively) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", nullptr);
  const fs::path sub = fs::path(dir.path) / "dir with space";
  fs::create_directories(sub);
  const fs::path cc = sub / "it's cc";
  {
    std::ofstream f(cc);
    f << "#!/bin/sh\nexec c++ \"$@\"\n";
  }
  ASSERT_EQ(::chmod(cc.c_str(), 0755), 0);

  CompileOptions opt;
  opt.compiler = cc.string();
  std::string log;
  const std::shared_ptr<Object> obj =
      compile(tiny_source("spawnquote"), opt, "osss-jt", log);
  ASSERT_NE(obj, nullptr) << log;
  EXPECT_TRUE(log.empty()) << log;
  const auto fn = reinterpret_cast<unsigned (*)()>(
      obj->sym("osss_cache_probe_spawnquote"));
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn(), 10u);
}

/// Shell syntax in the compiler name is a file name, not a command line:
/// the compile falls back and the injected command never runs.
TEST(JitSpawn, ShellSyntaxInCompilerIsNotRun) {
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", nullptr);
  const fs::path pwned = fs::path(dir.path) / "pwned";
  CompileOptions opt;
  opt.compiler = "c++; touch " + pwned.string();
  std::string log;
  EXPECT_EQ(compile(tiny_source("spawninject"), opt, "osss-jt", log),
            nullptr);
  EXPECT_FALSE(log.empty());
  EXPECT_FALSE(fs::exists(pwned)) << "the compiler string ran in a shell";
}

/// The compiler's stdout and stderr land in the log, on failure and on a
/// successful compile that warns.
TEST(JitSpawn, CompilerOutputReachesTheLog) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", nullptr);
  std::string log;
  EXPECT_EQ(compile("this is not C++;\n", {}, "osss-jt", log), nullptr);
  EXPECT_NE(log.find("error"), std::string::npos) << log;
  EXPECT_NE(log.find("[compile failed"), std::string::npos) << log;

  const std::shared_ptr<Object> obj = compile(
      "#warning osss-spawn-probe\n" + tiny_source("spawnwarn"), {}, "osss-jt",
      log);
  ASSERT_NE(obj, nullptr) << log;
  EXPECT_NE(log.find("osss-spawn-probe"), std::string::npos) << log;
}

/// CI warm-start contract: with OSSS_JIT_EXPECT_WARM set, this process
/// must have served every native engine from the shared cache directory —
/// zero compiler invocations.  Registered globally so it guards every
/// test in whatever filter the warm job runs.
class WarmCacheEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    const char* w = std::getenv("OSSS_JIT_EXPECT_WARM");
    if (w == nullptr || *w == '\0' || *w == '0') return;
    EXPECT_EQ(cache_stats().compiles, 0u)
        << "OSSS_JIT_EXPECT_WARM is set but this process invoked the "
           "compiler (cold artifact, bad key, or cache dir not shared)";
  }
};

const ::testing::Environment* const warm_env =
    ::testing::AddGlobalTestEnvironment(new WarmCacheEnv);

}  // namespace
}  // namespace osss::jit
