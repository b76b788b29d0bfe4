// jit.hpp — shared runtime-compile machinery for the native-code backends.
//
// Both JIT backends (rtl::tape::codegen and gate::codegen) emit specialized
// C++ for one compiled design, build it with the host compiler and dlopen
// the result.  This library owns everything that is identical between them:
// temp-dir management, compiler resolution ($OSSS_CC), the compile and link
// commands, log capture, dlopen + symbol lookup, cleanup — and a two-level
// object cache keyed by a content hash of the emitted parts:
//
//   * parts: a design arrives as an ordered list of translation units.
//     Each part is compiled with `-c` in its own compiler process, the
//     parts concurrently, and the objects link into one `.so`.  At most as
//     many compiler processes run at once, process-wide, as the calling
//     thread's affinity mask has cpus, and the compilers inherit that mask.
//     Both emitters split by one fixed emitted-size budget (kPartBytes),
//     so the part list (and the cache key) never depends on the machine;
//   * in-memory: engines whose generated code is byte-identical (the same
//     netlist simulated twice, the six ExpoCU components shared across
//     experiments, repeated opt-pass self-checks) share one live shared
//     object instead of invoking the compiler again;
//   * on disk (opt-in via $OSSS_JIT_CACHE_DIR): compiled .so files are
//     published under the cache directory keyed by the same content hash
//     (compiler identity and version included), so a *second process* —
//     a rerun of the test suite, a CI warm job — dlopens the published
//     artifact instead of compiling.
//     Publication is atomic (temp file + rename), concurrent processes
//     compiling the same key serialize on a per-key flock and the loser
//     loads the winner's artifact, stale or truncated artifacts are
//     re-probed on load (CompileOptions::validate) and silently fall back
//     to a fresh compile, and the directory is LRU-capped by mtime
//     ($OSSS_JIT_CACHE_MAX_BYTES, default 256 MiB, 0 disables eviction).
//     When the variable is unset or empty the disk layer is inert and
//     behavior is exactly the in-memory-only path.
//
// Generated code must therefore be stateless: all mutable state (arena,
// memories, dirty flags, step scratch) is owned by the engine and passed in
// as parameters, so one loaded object can serve any number of engines.
// Functions that one part defines for another are declared with hidden
// visibility: the object exports only its ABI entry points.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace osss::jit {

class Object;

/// Knobs for the runtime compile.  Engines expose this as their
/// `CodegenOptions`; defaults give the production behavior.
struct CompileOptions {
  /// Compiler binary; empty uses $OSSS_CC, falling back to "c++".  It is
  /// started directly, without a shell: the whole string is one program
  /// path, looked up on $PATH unless it contains a slash.
  std::string compiler;
  /// Extra flags appended after the defaults ("-std=c++17 -O2 -fPIC" plus
  /// cpu-probed -mavx2 / -mavx512f) in every compile and link command,
  /// split on whitespace into separate arguments (quotes are not
  /// interpreted).
  std::string extra_flags;
  /// Skip the compile and force the engine's interpreted fallback
  /// (also set by the OSSS_NO_JIT environment variable).  The engines then
  /// skip emitting the source too.
  bool force_fallback = false;
  /// Probe an object loaded from the persistent disk cache before it is
  /// accepted (engines re-check their ABI version / lane count / entry
  /// points here); return false to discard the artifact and compile
  /// fresh.  Never called for freshly compiled objects — engines still
  /// run their own post-compile probe — and not part of the cache key.
  std::function<bool(const Object&)> validate;
};

/// A generated design as the compiler sees it: an ordered list of
/// translation units that link into one object.
using Parts = std::vector<std::string>;

/// A compiled-and-loaded shared object.  Instances are shared between all
/// engines whose emitted parts (and compiler identity) hash the same; the
/// private temp directory holding sources, objects, .so and logs is removed
/// when the last reference dies.  Objects loaded from the persistent disk
/// cache have no temp directory (the published artifact is owned by the
/// cache).
class Object {
 public:
  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;
  ~Object();

  /// dlsym on the loaded object; nullptr when the symbol is absent.
  void* sym(const char* name) const noexcept;
  /// Captured compiler output (usually empty on success; empty for disk
  /// cache hits, which never ran the compiler).
  const std::string& log() const noexcept { return log_; }
  /// Content hash this object was cached under.
  std::uint64_t key() const noexcept { return key_; }

 private:
  friend struct ObjectAccess;
  Object() = default;
  void* dl_ = nullptr;
  std::string work_dir_;
  std::string log_;
  std::uint64_t key_ = 0;
};

/// Process-wide cache counters (monotonic).  `hits` counts lookups served
/// by a live in-memory object; `misses` counts the ones that had to go
/// further (disk probe and/or compiler); `compiles` counts objects the
/// compiler built: one per successful build, however many parts it had.
/// hits + misses == total compile() calls that got past the
/// force_fallback gate.  The disk_* counters cover the persistent
/// layer: a miss that loads a published artifact is a `disk_hit` (and does
/// NOT increment `compiles` — zero compiler invocations is the warm-start
/// contract CI asserts), `disk_misses` counts enabled-probe failures, and
/// `disk_evictions` counts artifacts removed by the LRU size cap.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t compiles = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;
  std::uint64_t disk_evictions = 0;
};

/// FNV-1a 64 over the part count, every part in order and the compiler
/// identity — the cache key, shared by the in-memory map and the
/// persistent disk cache.  The identity mixes the resolved compiler path,
/// its `--version` banner (probed once per process, so a toolchain upgrade
/// invalidates published artifacts), the cpu-probed default flags and the
/// extra flags.  Exposed so tests can assert two emissions would share an
/// object.
std::uint64_t source_hash(const Parts& parts, const CompileOptions& opt);

/// Compile `parts` in a private mkdtemp directory ($TMPDIR or /tmp,
/// prefixed with `tag`), dlopen the result and return a shared handle.
/// Part i is written to gen<i>.cpp and compiled to gen<i>.o, the parts
/// concurrently under the process-wide cap (the calling thread's cpus),
/// and the objects link into gen.so.
/// Identical (parts, compiler, flags) reuse a live cached Object; when
/// $OSSS_JIT_CACHE_DIR is set, a published artifact from any process is
/// dlopen'd instead of compiling and fresh compiles are published back.
/// Concurrent calls with *different* keys compile in parallel; only
/// identical lists wait on each other (per-key in-flight entries — the
/// cache mutex is held for lookup/insert only, never across a compiler
/// invocation).  On any failure — force_fallback, bad compiler path,
/// compile error in any part, link or dlopen error — returns nullptr with
/// the reason in `log` (a failed part is named by its index); no part
/// starts after a failure, not even one that was waiting for a compiler
/// slot, and every compiler already started has been waited for and
/// reaped before compile() returns.  Callers fall back to their
/// interpreted engine.  Thread-safe.
std::shared_ptr<Object> compile(const Parts& parts, const CompileOptions& opt,
                                const char* tag, std::string& log);

/// Snapshot of the process-wide cache counters.
CacheStats cache_stats() noexcept;

/// True when OSSS_NO_JIT is set non-empty and non-"0" in the environment.
bool jit_disabled_by_env() noexcept;

// --- shared emit preludes ---------------------------------------------------
// Fragments of generated source shared by the backends' emitters.  Every
// part of a design opens with the same preludes: the emitters write
// prelude_header() (the <cstdint> include and the lane
// vectors: GCC/Clang vector-extension types `Vec<W>`, the widest width VL
// picked once per file from __AVX512F__ / __AVX2__), then `constexpr int L
// = <lanes>;`, then the rtl emitter vector_prelude() (the lane-vector helper
// library: P/K operands and the change-accumulating v_* drivers, one body
// each, all single-word: a multi-word tape instruction is a call back into
// the engine, never prelude code) and the gate emitter lane_ops_prelude(),
// then step_prelude() (the sequential-commit helpers used by the generated
// step() entry points), and a gate part with a memory port
// gate_memory_prelude().

const char* prelude_header();
const char* vector_prelude();
const char* step_prelude();

/// Store-only lane-word vector layer for the gate emitter's fused level
/// loops: defines `vw` (one chunk of lane words), `VW` (lane words per
/// chunk: VL, else 4, else 1, the first that divides L), vld/vst and
/// the v_and/v_or/v_xor/v_inv/v_nand/v_nor/v_xnor/v_mux/vbc drivers.
/// Unlike vector_prelude()'s v_* templates these accumulate no change
/// masks — the gate suffix sweep recomputes every downstream cell anyway.
/// The emitter must have written `constexpr int L` and `constexpr u64 TM`
/// (the tail-lane mask) before this fragment.
const char* lane_ops_prelude();

/// The gate emitter's memory-port helpers, written after step_prelude()
/// and only into the parts that call them: `g_mread` (one read group:
/// every data-bit tap of one memory behind one set of address nets) and
/// `g_mwrite` (one write port's commit from its step-scratch samples).
/// Each picks at compile time between a one-hot row sweep over all lanes
/// and a per-lane address decode.
const char* gate_memory_prelude();

/// Opens the declaration or definition of a function that one part of a
/// design defines for another: C linkage, hidden visibility, so the object
/// exports only its ABI entry points.
const char* hidden_function();

/// Emitted-code budget of one part: both emitters cut a design's code into
/// runs that close once they reach this many bytes.  A fixed size, so the
/// part list (and the object's cache key) is the same on every machine.
inline constexpr std::size_t kPartBytes = 8192;

/// Cuts `units` consecutive units of emitted code into runs of at least
/// kPartBytes (the last may be shorter): `emit(i)` returns the code of
/// unit i, and `close(code, end)` takes each run, `end` one past its last
/// unit.
template <class Emit, class Close>
void cut_parts(std::size_t units, Emit emit, Close close) {
  std::string code;
  for (std::size_t i = 0; i < units; ++i) {
    code += emit(i);
    if (code.size() >= kPartBytes || i + 1 == units) {
      close(code, i + 1);
      code.clear();
    }
  }
}

}  // namespace osss::jit
