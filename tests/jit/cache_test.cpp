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
// The JitParts cases pin the part-list contract: one key over every part
// in order, one object (one compile, one published artifact) per list,
// hidden cross-part functions, an emission that ignores the thread count,
// and the process-wide cap on concurrent compilers.
//
// The WarmCache environment at the bottom backs the CI warm-start job:
// when OSSS_JIT_EXPECT_WARM is set, every test process asserts it invoked
// the compiler zero times (ctest runs one process per test, so this
// covers each Native test individually).

#include "jit/jit.hpp"

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "expocu/hw.hpp"
#include "gate/codegen.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "hls/synth.hpp"
#include "rtl/builder.hpp"
#include "rtl/codegen.hpp"

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
std::string tiny_symbol(const std::string& id) {
  return "extern \"C\" unsigned osss_cache_probe_" + id + "() { return " +
         std::to_string(id.size()) + "u; }\n";
}

/// tiny_symbol as a one-part design.
Parts tiny_source(const std::string& id) { return {tiny_symbol(id)}; }

/// A three-part design: part 0 exports osss_cache_probe_<id>(), which sums
/// two hidden functions that parts 1 and 2 define (1 + 2 = 3).
Parts three_parts(const std::string& id) {
  const std::string hidden =
      "extern \"C\" __attribute__((visibility(\"hidden\"))) unsigned ";
  return {hidden + "part_one_" + id + "();\n" + hidden + "part_two_" + id +
              "();\nextern \"C\" unsigned osss_cache_probe_" + id +
              "() { return part_one_" + id + "() + part_two_" + id +
              "(); }\n",
          hidden + "part_one_" + id + "() { return 1u; }\n",
          hidden + "part_two_" + id + "() { return 2u; }\n"};
}

/// osss_cache_probe_<id>() of a loaded object, or 0 when it is missing.
unsigned call_probe(const Object& obj, const std::string& id) {
  const auto fn = reinterpret_cast<unsigned (*)()>(
      obj.sym(("osss_cache_probe_" + id).c_str()));
  return fn != nullptr ? fn() : 0u;
}

/// A shell-script compiler in `dir`: `body`, then `exec c++ "$@"`.
fs::path wrapper_compiler(const std::string& dir, const std::string& body) {
  const fs::path cc = fs::path(dir) / "cc-wrapper";
  {
    std::ofstream f(cc);
    f << "#!/bin/sh\n" << body << "exec c++ \"$@\"\n";
  }
  ::chmod(cc.c_str(), 0755);
  return cc;
}

fs::path artifact_path(const std::string& dir, const Parts& parts,
                       const CompileOptions& opt, const char* tag) {
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(source_hash(parts, opt)));
  return fs::path(dir) / (std::string(tag) + "-" + hex + ".so");
}

TEST(JitDiskCache, PublishAndWarmLoad) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", dir.path.c_str());
  const Parts src = tiny_source("warmload");
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
  const Parts src = tiny_source("truncated");
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
  const Parts src = tiny_source("validate");
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
  const Parts src = tiny_source("memonly1");
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
  const Parts src = tiny_source("unwritable");
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
  // The compile's own temp dir goes under a private TMPDIR, checked below.
  TempDir tmp;
  ASSERT_FALSE(tmp.path.empty());
  EnvVar tmpdir("TMPDIR", tmp.path.c_str());
  const Parts src = tiny_source("twoproc");
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
      const bool loaded =
          obj != nullptr && obj->sym("osss_cache_probe_twoproc") != nullptr;
      obj.reset();  // _exit runs no destructor: remove the temp dir first
      if (!loaded) ::_exit(77);
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
  for (const fs::directory_entry& e : fs::directory_iterator(tmp.path))
    EXPECT_NE(e.path().filename().string().rfind("osss-jt-", 0), 0u)
        << "a child left its compile's temp dir behind: " << e.path();
}

TEST(JitDiskCache, LruEvictsOldestArtifactFirst) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", dir.path.c_str());
  const Parts src_a = tiny_source("aaaaaaaa");
  const Parts src_b = tiny_source("bbbbbbbb");
  const Parts src_c = tiny_source("cccccccc");
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
  const Parts src_a = tiny_source("ffffffff");
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

/// A multi-part object is one artifact: the second process-level load
/// finds it on disk and runs no compiler.
TEST(JitDiskCache, MultiPartObjectPublishesOneArtifact) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", dir.path.c_str());
  const Parts src = three_parts("diskparts");
  std::string log;
  std::shared_ptr<Object> obj = compile(src, {}, "osss-jt", log);
  ASSERT_NE(obj, nullptr) << log;
  EXPECT_EQ(call_probe(*obj, "diskparts"), 3u);
  std::vector<fs::path> artifacts;
  for (const fs::directory_entry& e : fs::directory_iterator(dir.path))
    if (e.path().extension() == ".so") artifacts.push_back(e.path());
  ASSERT_EQ(artifacts.size(), 1u) << "one object, one artifact";
  EXPECT_EQ(artifacts[0], artifact_path(dir.path, src, {}, "osss-jt"));

  obj.reset();
  const CacheStats before = cache_stats();
  std::shared_ptr<Object> warm = compile(src, {}, "osss-jt", log);
  ASSERT_NE(warm, nullptr) << log;
  EXPECT_EQ(call_probe(*warm, "diskparts"), 3u);
  const CacheStats after = cache_stats();
  EXPECT_EQ(after.compiles, before.compiles) << "warm load ran the compiler";
  EXPECT_EQ(after.disk_hits, before.disk_hits + 1);
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
  const Parts src64 = gate::emit_netlist_cpp(nl, 64);
  const Parts src128 = gate::emit_netlist_cpp(nl, 128);
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

// --- part lists ------------------------------------------------------------

TEST(JitParts, HashCoversEveryPartInOrder) {
  const CompileOptions opt;
  const std::uint64_t base = source_hash({"aa", "bb", "cc"}, opt);
  EXPECT_EQ(source_hash({"aa", "bb", "cc"}, opt), base);
  EXPECT_NE(source_hash({"aa", "bb", "cx"}, opt), base) << "last part";
  EXPECT_NE(source_hash({"xa", "bb", "cc"}, opt), base) << "first part";
  EXPECT_NE(source_hash({"aa", "cc", "bb"}, opt), base) << "order";
  EXPECT_NE(source_hash({"aab", "b", "cc"}, opt), base) << "boundary";
  EXPECT_NE(source_hash({"aa", "bb"}, opt), base) << "a dropped part";
  EXPECT_NE(source_hash({"aabbcc"}, opt), base) << "one part of the same text";
}

TEST(JitParts, SameListIsAnInMemoryHit) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", nullptr);
  const Parts src = three_parts("memhit");
  std::string log;
  const std::shared_ptr<Object> obj = compile(src, {}, "osss-jt", log);
  ASSERT_NE(obj, nullptr) << log;
  const CacheStats before = cache_stats();
  const std::shared_ptr<Object> again = compile(src, {}, "osss-jt", log);
  EXPECT_EQ(again.get(), obj.get());
  const CacheStats after = cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.compiles, before.compiles);
}

/// `compiles` counts objects, not parts; the parts link into one object
/// whose cross-part functions stay hidden.
TEST(JitParts, OneCompilePerMultiPartBuild) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", nullptr);
  const CacheStats before = cache_stats();
  std::string log;
  const std::shared_ptr<Object> obj =
      compile(three_parts("onecompile"), {}, "osss-jt", log);
  ASSERT_NE(obj, nullptr) << log;
  EXPECT_TRUE(log.empty()) << log;
  EXPECT_EQ(cache_stats().compiles, before.compiles + 1);
  EXPECT_EQ(call_probe(*obj, "onecompile"), 3u);
  EXPECT_EQ(obj->sym("part_one_onecompile"), nullptr) << "exported";
  EXPECT_EQ(obj->sym("part_two_onecompile"), nullptr) << "exported";
}

/// The split is a fixed size budget: the thread count never reaches it.
TEST(JitParts, PartListIgnoresTheThreadCount) {
  const rtl::Module m = hls::synthesize(expocu::build_threshold_osss());
  const gate::Netlist nl = gate::lower_to_gates(m);
  const auto emit = [&](const char* threads) {
    EnvVar t("OSSS_THREADS", threads);
    return std::make_pair(
        gate::emit_netlist_cpp(nl, 256),
        rtl::tape::emit_cpp(rtl::tape::Program::compile(m, 256)));
  };
  const auto one = emit("1");
  const auto four = emit("4");
  EXPECT_GT(one.first.size(), 2u) << "the gate threshold should split";
  EXPECT_EQ(one.first, four.first);
  EXPECT_EQ(one.second, four.second);
}

/// Pinned to one cpu, a multi-part compile still succeeds, and it runs one
/// compiler at a time: the wrapper logs how many of its own runs overlap.
TEST(JitParts, CompilesWhenPinnedToOneCpu) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", nullptr);
  const fs::path cc = wrapper_compiler(
      dir.path,
      "d=$(dirname \"$0\")\nmkdir \"$d/run.$$\"\n"
      "ls -d \"$d\"/run.* | wc -l >> \"$d/overlap\"\n"
      "sleep 0.1\nrmdir \"$d/run.$$\"\n");
  cpu_set_t saved;
  ASSERT_EQ(::sched_getaffinity(0, sizeof saved, &saved), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &saved)) {
      CPU_SET(c, &one);
      break;
    }
  ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
  CompileOptions opt;
  opt.compiler = cc.string();
  std::string log;
  const std::shared_ptr<Object> obj =
      compile(three_parts("pinned"), opt, "osss-jt", log);
  ASSERT_EQ(::sched_setaffinity(0, sizeof saved, &saved), 0);
  ASSERT_NE(obj, nullptr) << log;
  EXPECT_EQ(call_probe(*obj, "pinned"), 3u);
  std::ifstream f(fs::path(dir.path) / "overlap");
  std::vector<int> overlap;
  for (int n; f >> n;) overlap.push_back(n);
  EXPECT_EQ(overlap.size(), 5u) << "--version, three parts and the link";
  EXPECT_EQ(*std::max_element(overlap.begin(), overlap.end()), 1)
      << "two compilers ran at once on one cpu";
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

/// One failing part: compile() waits for the siblings still running, names
/// the part, removes its temp dir and leaves no child behind.  Part 0
/// fails at once, so the calling thread, which usually compiles it, sees
/// the failure while the others still sleep.  Then, on two cpus, another
/// thread's compile holds one compiler slot, so the failing list runs one
/// part at a time with a sibling waiting for the slot when part 0 fails:
/// that sibling must not start.
TEST(JitSpawn, FailedPartReapsEverySibling) {
  if (jit_disabled()) GTEST_SKIP() << "OSSS_NO_JIT set";
  TempDir dir, tmp;
  ASSERT_FALSE(dir.path.empty());
  ASSERT_FALSE(tmp.path.empty());
  EnvVar cache_dir("OSSS_JIT_CACHE_DIR", nullptr);
  EnvVar tmpdir("TMPDIR", tmp.path.c_str());
  const fs::path cc = wrapper_compiler(
      dir.path,
      "case \"$*\" in *gen0.cpp*) echo osss-part-refused >&2; exit 1;; "
      "esac\nsleep 0.3\n");
  CompileOptions opt;
  opt.compiler = cc.string();
  const CacheStats before = cache_stats();
  std::string log;
  EXPECT_EQ(compile(three_parts("failpart"), opt, "osss-jt", log), nullptr);
  EXPECT_NE(log.find("osss-part-refused"), std::string::npos) << log;
  EXPECT_NE(log.find("[compile failed in part 0 of 3"), std::string::npos)
      << log;
  EXPECT_EQ(cache_stats().compiles, before.compiles);
  EXPECT_TRUE(fs::is_empty(tmp.path)) << "the temp dir outlived compile()";
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1) << "a compiler is left";
  EXPECT_EQ(errno, ECHILD);

  cpu_set_t saved;
  ASSERT_EQ(::sched_getaffinity(0, sizeof saved, &saved), 0);
  cpu_set_t two;
  CPU_ZERO(&two);
  for (int c = 0; c < CPU_SETSIZE && CPU_COUNT(&two) < 2; ++c)
    if (CPU_ISSET(c, &saved)) CPU_SET(c, &two);
  if (CPU_COUNT(&two) < 2) GTEST_SKIP() << "one cpu: no compiler waits";
  TempDir held_dir;
  ASSERT_FALSE(held_dir.path.empty());
  const fs::path d = held_dir.path;
  // The holder's compiles (temp dirs tagged osss-hold) wait while `hold`
  // exists; part 0 of the failing list fails at once, the rest succeed
  // without compiling, and every run says so in `events`.
  const fs::path hold_cc = wrapper_compiler(
      held_dir.path,
      "d=$(dirname \"$0\")\ncase \"$*\" in\n"
      "*osss-hold-*) touch \"$d/held\"\n"
      "  while [ -e \"$d/hold\" ]; do sleep 0.01; done;;\n"
      "*--version*) ;;\n"
      "*gen0.cpp*) echo fail >> \"$d/events\"; exit 1;;\n"
      "*) echo start >> \"$d/events\"; exit 0;;\nesac\n");
  opt.compiler = hold_cc.string();
  std::ofstream(d / "hold").put('\n');
  ASSERT_EQ(::sched_setaffinity(0, sizeof two, &two), 0);
  std::shared_ptr<Object> held;
  std::string held_log;
  std::thread holder([&] {
    held = compile(tiny_source("slotholder"), opt, "osss-hold", held_log);
  });
  // Nothing between here and the join may throw or return early.
  std::error_code ec;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!fs::exists(d / "held", ec) &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const bool holding = fs::exists(d / "held", ec);
  Parts many;
  for (int i = 0; i < 16; ++i)
    many.push_back(tiny_symbol("wait" + std::to_string(i)));
  EXPECT_EQ(compile(many, opt, "osss-jt", log), nullptr);
  fs::remove(d / "hold", ec);
  holder.join();
  ASSERT_EQ(::sched_setaffinity(0, sizeof saved, &saved), 0);
  ASSERT_TRUE(holding) << "the holder never reached its compiler";
  ASSERT_NE(held, nullptr) << held_log;
  EXPECT_EQ(call_probe(*held, "slotholder"), 10u);
  EXPECT_NE(log.find("[compile failed in part 0 of 16"), std::string::npos)
      << log;
  std::ifstream f(d / "events");
  std::vector<std::string> events;
  for (std::string e; std::getline(f, e);) events.push_back(e);
  const auto fail = std::find(events.begin(), events.end(), "fail");
  ASSERT_NE(fail, events.end());
  EXPECT_EQ(std::count(fail, events.end(), "start"), 0)
      << "a part started after part 0 failed";
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1) << "a compiler is left";
  EXPECT_EQ(errno, ECHILD);
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
  EXPECT_EQ(compile({"this is not C++;\n"}, {}, "osss-jt", log), nullptr);
  EXPECT_NE(log.find("error"), std::string::npos) << log;
  EXPECT_NE(log.find("[compile failed"), std::string::npos) << log;

  const std::shared_ptr<Object> obj =
      compile({"#warning osss-spawn-probe\n" + tiny_symbol("spawnwarn")}, {},
              "osss-jt", log);
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
