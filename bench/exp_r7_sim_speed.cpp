// R7 — "Much higher simulation speed than conventional RTL simulators."
// (§10)
//
// The same workload — camera frames streaming through histogram
// acquisition and threshold calculation — is simulated at three levels:
//
//   * OO model:   the compiled C++ ExpoCU on the simulation kernel
//                 (the paper's "binary executable for simulation");
//   * RTL level:  the synthesized modules on the RTL simulator — the
//                 Bits interpreter (the oracle), then the compiled
//                 word-level tape on its one engine through both
//                 evaluators: kTape's per-lane opcode switch (scalar and
//                 64-lane) and kNative's generated code (scalar and
//                 256-lane SIMD);
//   * gate level: the mapped netlists on the gate simulator — the
//                 event-driven engine (the "conventional RTL/netlist
//                 simulator" stand-in), the native engine's interpreted
//                 level sweep at 1 lane (BM_GateLevelizedSim) and 64 lanes
//                 (BM_GateBitParallelSim, 64 frames per netlist sweep), and
//                 its generated code at 64 and 256 lanes.
//
// Reported as items_per_second = simulated clock cycles per wall second
// (stimulus-vector cycles: a 64-lane row counts all 64 lanes).
// Engine internals (gate evaluations, event-queue high water, levels
// skipped) are exported as counters.  The BM_JitColdCompile rows time what
// the native rows pay once per design: emitting and compiling it, in wall
// seconds per compile.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "expocu/expocu_sim.hpp"
#include "expocu/flows.hpp"
#include "gate/codegen.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "hls/synth.hpp"
#include "jit/jit.hpp"
#include "par/batch.hpp"
#include "par/pool.hpp"
#include "rtl/codegen.hpp"
#include "rtl/sim.hpp"

using namespace osss;
using namespace osss::expocu;

namespace {

constexpr unsigned kCyclesPerFrame = kPixelsPerFrame + 8;

void BM_OoKernelSim(benchmark::State& state) {
  sysc::Context ctx;
  ExpoCuSystem sys(ctx);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    ctx.run_for(static_cast<sysc::Time>(kCyclesPerFrame) * kClockPeriodPs);
    cycles += kCyclesPerFrame;
    benchmark::DoNotOptimize(sys.expocu.exposure());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
  state.counters["level"] = 0;  // OO
}

template <class Sim>
void drive_frame(Sim& hist, Sim& thresh, std::uint64_t frame) {
  // Deterministic pixel pattern (no camera model cost in the loop).
  for (unsigned i = 0; i < kCyclesPerFrame; ++i) {
    const bool valid = i < kPixelsPerFrame;
    hist.set_input("pixel", (i * 7 + frame * 13) & 0xff);
    hist.set_input("pixel_valid", valid ? 1 : 0);
    hist.set_input("vsync", (valid && i == 0) ? 1 : 0);
    hist.step();
    thresh.set_input("bin_valid", hist.output("bin_valid"));
    thresh.set_input("bin_index", hist.output("bin_index"));
    thresh.set_input("bin_count", hist.output("bin_count"));
    thresh.set_input("frame_done", hist.output("frame_done"));
    thresh.step();
  }
}

void report_rtl_stats(benchmark::State& state,
                      const rtl::Simulator::Stats& hist,
                      const rtl::Simulator::Stats& thresh) {
  state.counters["nodes_evaluated"] =
      static_cast<double>(hist.nodes_evaluated + thresh.nodes_evaluated);
  state.counters["levels_evaluated"] =
      static_cast<double>(hist.levels_evaluated + thresh.levels_evaluated);
  state.counters["levels_skipped"] =
      static_cast<double>(hist.levels_skipped + thresh.levels_skipped);
  state.counters["tape_len"] =
      static_cast<double>(hist.tape_len + thresh.tape_len);
  state.counters["arena_words"] =
      static_cast<double>(hist.arena_words + thresh.arena_words);
  state.counters["const_folded"] =
      static_cast<double>(hist.const_folded + thresh.const_folded);
  state.counters["pruned"] = static_cast<double>(hist.pruned + thresh.pruned);
  state.counters["fused"] = static_cast<double>(hist.fused + thresh.fused);
}

// JIT cost attribution for the native rows: `before`→`setup` spans engine
// construction (2 compiles cold, disk hits under a warm $OSSS_JIT_CACHE_DIR,
// in-memory hits when an earlier bench in this process compiled the same
// design), and `setup`→now spans the timed loop itself.  A healthy run has
// jit_compiles_steady == 0 — the engines never rebuild while being measured;
// tools/check_bench_r7.py gates on it.
void report_jit_stats(benchmark::State& state, const jit::CacheStats& before,
                      const jit::CacheStats& setup) {
  const jit::CacheStats now = jit::cache_stats();
  state.counters["jit_compiles"] =
      static_cast<double>(setup.compiles - before.compiles);
  state.counters["jit_cache_hits"] =
      static_cast<double>(setup.hits - before.hits);
  state.counters["jit_disk_hits"] =
      static_cast<double>(setup.disk_hits - before.disk_hits);
  state.counters["jit_compiles_steady"] =
      static_cast<double>(now.compiles - setup.compiles);
}

void rtl_scalar_bench(benchmark::State& state, rtl::SimMode mode,
                      unsigned lanes = 1) {
  const jit::CacheStats jit_before = jit::cache_stats();
  rtl::Simulator hist(build_histogram_rtl(), mode, lanes);
  rtl::Simulator thresh(hls::synthesize(build_threshold_osss()), mode, lanes);
  const jit::CacheStats jit_setup = jit::cache_stats();
  // Resolve every port once; the frame loop drives cached handles.
  const rtl::InputHandle pixel = hist.input_handle("pixel");
  const rtl::InputHandle pixel_valid = hist.input_handle("pixel_valid");
  const rtl::InputHandle vsync = hist.input_handle("vsync");
  const rtl::OutputHandle bin_valid = hist.output_handle("bin_valid");
  const rtl::OutputHandle bin_index = hist.output_handle("bin_index");
  const rtl::OutputHandle bin_count = hist.output_handle("bin_count");
  const rtl::OutputHandle frame_done = hist.output_handle("frame_done");
  const rtl::InputHandle t_bin_valid = thresh.input_handle("bin_valid");
  const rtl::InputHandle t_bin_index = thresh.input_handle("bin_index");
  const rtl::InputHandle t_bin_count = thresh.input_handle("bin_count");
  const rtl::InputHandle t_frame_done = thresh.input_handle("frame_done");
  const rtl::OutputHandle mean = thresh.output_handle("mean");
  std::uint64_t frame = 0;
  for (auto _ : state) {
    for (unsigned i = 0; i < kCyclesPerFrame; ++i) {
      const bool valid = i < kPixelsPerFrame;
      hist.set_input(pixel, (i * 7 + frame * 13) & 0xff);
      hist.set_input(pixel_valid, std::uint64_t{valid ? 1u : 0u});
      hist.set_input(vsync, std::uint64_t{(valid && i == 0) ? 1u : 0u});
      hist.step();
      thresh.set_input(t_bin_valid, hist.output_u64(bin_valid));
      thresh.set_input(t_bin_index, hist.output_u64(bin_index));
      thresh.set_input(t_bin_count, hist.output_u64(bin_count));
      thresh.set_input(t_frame_done, hist.output_u64(frame_done));
      thresh.step();
    }
    ++frame;
    benchmark::DoNotOptimize(thresh.output(mean));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(frame) * kCyclesPerFrame);
  state.counters["level"] = 1;  // RTL
  if (mode != rtl::SimMode::kInterp)
    report_rtl_stats(state, hist.stats(), thresh.stats());
  if (mode == rtl::SimMode::kNative) {
    // 1 = the dlopen'd specialized code ran; 0 = threaded-code fallback
    // (compiler missing, OSSS_NO_JIT, ...).  Lets a reader of the JSON
    // tell which engine the native rows actually measured.
    state.counters["native_code"] =
        (hist.native().native() && thresh.native().native()) ? 1 : 0;
    report_jit_stats(state, jit_before, jit_setup);
  }
}

void BM_RtlCycleSim(benchmark::State& state) {
  rtl_scalar_bench(state, rtl::SimMode::kInterp);
}

void BM_RtlTapeSim(benchmark::State& state) {
  rtl_scalar_bench(state, rtl::SimMode::kTape);
}

void BM_RtlNativeSim(benchmark::State& state) {
  rtl_scalar_bench(state, rtl::SimMode::kNative);
}

void rtl_lanes_bench(benchmark::State& state, rtl::SimMode mode,
                     const unsigned kLanes) {
  // One simulated cycle advances kLanes independent frames through the
  // engine: lane l runs the pixel stream of frame `frame + l` (the RTL
  // analogue of the gate 64-lane rows).  Lane counts above 64 need
  // the native backend, which packs bit b of a port into lanes/64
  // consecutive words and evaluates them with SIMD vectors.
  const jit::CacheStats jit_before = jit::cache_stats();
  rtl::Simulator hist(build_histogram_rtl(), mode, kLanes);
  rtl::Simulator thresh(hls::synthesize(build_threshold_osss()), mode,
                        kLanes);
  const jit::CacheStats jit_setup = jit::cache_stats();
  const rtl::InputHandle pixel = hist.input_handle("pixel");
  const rtl::InputHandle pixel_valid = hist.input_handle("pixel_valid");
  const rtl::InputHandle vsync = hist.input_handle("vsync");
  const rtl::OutputHandle bin_valid = hist.output_handle("bin_valid");
  const rtl::OutputHandle bin_index = hist.output_handle("bin_index");
  const rtl::OutputHandle bin_count = hist.output_handle("bin_count");
  const rtl::OutputHandle frame_done = hist.output_handle("frame_done");
  const rtl::InputHandle t_bin_valid = thresh.input_handle("bin_valid");
  const rtl::InputHandle t_bin_index = thresh.input_handle("bin_index");
  const rtl::InputHandle t_bin_count = thresh.input_handle("bin_count");
  const rtl::InputHandle t_frame_done = thresh.input_handle("frame_done");
  const rtl::OutputHandle mean = thresh.output_handle("mean");
  // One value per lane — the engines are lane-major, so this drives the
  // stimulus without the bit transposes of the set_input_lanes layout.
  std::vector<std::uint64_t> pixel_lanes(kLanes);
  std::uint64_t frame = 0;
  for (auto _ : state) {
    for (unsigned i = 0; i < kCyclesPerFrame; ++i) {
      const bool valid = i < kPixelsPerFrame;
      for (unsigned lane = 0; lane < kLanes; ++lane)
        pixel_lanes[lane] = (i * 7 + (frame + lane) * 13) & 0xff;
      hist.set_input_values(pixel, pixel_lanes);
      hist.set_input(pixel_valid, std::uint64_t{valid ? 1u : 0u});
      hist.set_input(vsync, std::uint64_t{(valid && i == 0) ? 1u : 0u});
      hist.step();
      thresh.set_input_values(t_bin_valid, hist.output_values(bin_valid));
      thresh.set_input_values(t_bin_index, hist.output_values(bin_index));
      thresh.set_input_values(t_bin_count, hist.output_values(bin_count));
      thresh.set_input_values(t_frame_done, hist.output_values(frame_done));
      thresh.step();
    }
    frame += kLanes;
    benchmark::DoNotOptimize(thresh.output(mean));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(frame) * kCyclesPerFrame);
  state.counters["level"] = 1;  // RTL
  state.counters["lanes"] = static_cast<double>(kLanes);
  report_rtl_stats(state, hist.stats(), thresh.stats());
  if (mode == rtl::SimMode::kNative) {
    state.counters["native_code"] =
        (hist.native().native() && thresh.native().native()) ? 1 : 0;
    report_jit_stats(state, jit_before, jit_setup);
  }
}

void BM_RtlTapeLanesSim(benchmark::State& state) {
  rtl_lanes_bench(state, rtl::SimMode::kTape, 64);
}

void BM_RtlNativeLanesSim(benchmark::State& state) {
  rtl_lanes_bench(state, rtl::SimMode::kNative, 256);
}

void report_engine_stats(benchmark::State& state,
                         const gate::Simulator::Stats& hist,
                         const gate::Simulator::Stats& thresh) {
  state.counters["gate_evals"] = static_cast<double>(hist.events +
                                                     thresh.events);
  state.counters["queue_high_water"] = static_cast<double>(
      std::max(hist.queue_high_water, thresh.queue_high_water));
  state.counters["levels_evaluated"] =
      static_cast<double>(hist.levels_evaluated + thresh.levels_evaluated);
  state.counters["levels_skipped"] =
      static_cast<double>(hist.levels_skipped + thresh.levels_skipped);
}

/// The native engine's interpreted level sweep (no compile).
gate::CodegenOptions gate_fallback() {
  gate::CodegenOptions opt;
  opt.force_fallback = true;
  return opt;
}

void gate_scalar_bench(benchmark::State& state, gate::SimMode mode,
                       const gate::CodegenOptions& codegen = {}) {
  gate::Simulator hist(gate::lower_to_gates(build_histogram_rtl()), mode, 1,
                       codegen);
  gate::Simulator thresh(
      gate::lower_to_gates(hls::synthesize(build_threshold_osss())), mode, 1,
      codegen);
  std::uint64_t frame = 0;
  for (auto _ : state) {
    drive_frame(hist, thresh, frame++);
    benchmark::DoNotOptimize(thresh.output("mean"));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(frame) * kCyclesPerFrame);
  state.counters["level"] = 2;  // gate
  report_engine_stats(state, hist.stats(), thresh.stats());
}

void BM_GateEventSim(benchmark::State& state) {
  gate_scalar_bench(state, gate::SimMode::kEvent);
}

// The interpreted level sweep at one lane.  The row keeps its name, so
// the R7 ratio gates and the committed baseline still pair with it.
void BM_GateLevelizedSim(benchmark::State& state) {
  gate_scalar_bench(state, gate::SimMode::kNative, gate_fallback());
}

void BM_GateBitParallelSim(benchmark::State& state) {
  // The interpreted level sweep at 64 lanes.  One simulated cycle advances
  // kLanes independent frames: lane l runs the pixel stream of frame
  // `frame + l`.
  constexpr unsigned kLanes = gate::Simulator::kLanes;
  gate::Simulator hist(gate::lower_to_gates(build_histogram_rtl()),
                       gate::SimMode::kNative, kLanes, gate_fallback());
  gate::Simulator thresh(
      gate::lower_to_gates(hls::synthesize(build_threshold_osss())),
      gate::SimMode::kNative, kLanes, gate_fallback());
  std::vector<std::uint64_t> pixel(8);
  std::uint64_t frame = 0;
  for (auto _ : state) {
    for (unsigned i = 0; i < kCyclesPerFrame; ++i) {
      const bool valid = i < kPixelsPerFrame;
      std::fill(pixel.begin(), pixel.end(), 0);
      for (unsigned lane = 0; lane < kLanes; ++lane) {
        const std::uint64_t pix = (i * 7 + (frame + lane) * 13) & 0xff;
        for (unsigned b = 0; b < 8; ++b)
          pixel[b] |= ((pix >> b) & 1u) << lane;
      }
      hist.set_input_lanes("pixel", pixel);
      hist.set_input("pixel_valid", valid ? 1 : 0);
      hist.set_input("vsync", (valid && i == 0) ? 1 : 0);
      hist.step();
      thresh.set_input_lanes("bin_valid", hist.output_words("bin_valid"));
      thresh.set_input_lanes("bin_index", hist.output_words("bin_index"));
      thresh.set_input_lanes("bin_count", hist.output_words("bin_count"));
      thresh.set_input_lanes("frame_done", hist.output_words("frame_done"));
      thresh.step();
    }
    frame += kLanes;
    benchmark::DoNotOptimize(thresh.output("mean"));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(frame) * kCyclesPerFrame);
  state.counters["level"] = 2;  // gate
  report_engine_stats(state, hist.stats(), thresh.stats());
}

void gate_native_bench(benchmark::State& state, const unsigned kLanes) {
  // One simulated cycle advances kLanes independent frames through the
  // generated-code engine (lane l = frame `frame + l`); the DFF and memory
  // commits run inside the generated step().  The jit counters record what
  // the setup cost was: 2 compiles on a cold cache, cache hits when an
  // identical netlist was compiled earlier in the process.
  const jit::CacheStats jit_before = jit::cache_stats();
  gate::Simulator hist(gate::lower_to_gates(build_histogram_rtl()),
                       gate::SimMode::kNative, kLanes);
  gate::Simulator thresh(
      gate::lower_to_gates(hls::synthesize(build_threshold_osss())),
      gate::SimMode::kNative, kLanes);
  const jit::CacheStats jit_setup = jit::cache_stats();
  // One value per lane for the 8-bit pixel port (no bit transpose); the
  // hist->thresh chain hands the lane words across unmodified.
  std::vector<std::uint64_t> pixel_lanes(kLanes);
  std::uint64_t frame = 0;
  for (auto _ : state) {
    for (unsigned i = 0; i < kCyclesPerFrame; ++i) {
      const bool valid = i < kPixelsPerFrame;
      for (unsigned lane = 0; lane < kLanes; ++lane)
        pixel_lanes[lane] = (i * 7 + (frame + lane) * 13) & 0xff;
      hist.set_input_values("pixel", pixel_lanes);
      hist.set_input("pixel_valid", valid ? 1 : 0);
      hist.set_input("vsync", (valid && i == 0) ? 1 : 0);
      hist.step();
      thresh.set_input_lanes("bin_valid", hist.output_words("bin_valid"));
      thresh.set_input_lanes("bin_index", hist.output_words("bin_index"));
      thresh.set_input_lanes("bin_count", hist.output_words("bin_count"));
      thresh.set_input_lanes("frame_done", hist.output_words("frame_done"));
      thresh.step();
    }
    frame += kLanes;
    benchmark::DoNotOptimize(thresh.output("mean"));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(frame) * kCyclesPerFrame);
  state.counters["level"] = 2;  // gate
  state.counters["lanes"] = static_cast<double>(kLanes);
  report_engine_stats(state, hist.stats(), thresh.stats());
  // 1 = the dlopen'd specialized code ran; 0 = interpreted fallback.
  state.counters["native_code"] =
      (hist.native().native() && thresh.native().native()) ? 1 : 0;
  report_jit_stats(state, jit_before, jit_setup);
}

void BM_GateNativeSim(benchmark::State& state) {
  gate_native_bench(state, gate::Simulator::kLanes);
}

void BM_GateNativeLanesSim(benchmark::State& state) {
  gate_native_bench(state, 256);
}

// --- Cold JIT compile --------------------------------------------------------
//
// One frames design (RTL or gate level, histogram or threshold) at 256
// lanes: each iteration emits the generated parts and compiles them as the
// engines do (concurrently, then linked into one object).  A
// per-iteration -DOSSS_COLD_NONCE=<n> changes the cache key, so every
// iteration misses the in-memory cache and runs the compiler, and the
// disk cache is switched off for the row.  The time
// column is wall seconds per compile (the compiler is a child process, so
// CPU time of this one would miss it).  No jit_compiles_steady counter:
// compiling is what these rows measure.

constexpr unsigned kColdLanes = 256;

void BM_JitColdCompile(benchmark::State& state, bool gate_level,
                       bool threshold) {
  const rtl::Module m = threshold ? hls::synthesize(build_threshold_osss())
                                  : build_histogram_rtl();
  const gate::Netlist nl = gate::lower_to_gates(m);
  const rtl::tape::Program prog = rtl::tape::Program::compile(m, kColdLanes);
  const char* cache_env = std::getenv("OSSS_JIT_CACHE_DIR");
  const std::string cache_dir = cache_env != nullptr ? cache_env : "";
  ::unsetenv("OSSS_JIT_CACHE_DIR");
  static unsigned nonce = 0;
  const jit::CacheStats before = jit::cache_stats();
  for (auto _ : state) {
    jit::CompileOptions opt;
    opt.extra_flags = "-DOSSS_COLD_NONCE=" + std::to_string(++nonce);
    const jit::Parts parts = gate_level
                                 ? gate::emit_netlist_cpp(nl, kColdLanes)
                                 : rtl::tape::emit_cpp(prog);
    std::string log;
    const std::shared_ptr<jit::Object> obj =
        jit::compile(parts, opt, "osss-cold", log);
    if (obj == nullptr) {
      state.SkipWithError(("JIT compile failed: " + log).c_str());
      break;
    }
    benchmark::DoNotOptimize(obj.get());
  }
  if (cache_env != nullptr)
    ::setenv("OSSS_JIT_CACHE_DIR", cache_dir.c_str(), 1);
  state.counters["level"] = gate_level ? 2 : 1;
  state.counters["jit_compiles"] =
      static_cast<double>(jit::cache_stats().compiles - before.compiles);
}

// --- Thread scaling (src/par batch API) ------------------------------------
//
// The same histogram netlist / module, but the stimulus is pre-generated
// into independent StimulusBlocks and fanned across a work-stealing pool
// (run_batch).  Arg = pool contexts; items_per_second stays
// vector-cycles/s, so the 1→8 thread curve is the R7 scaling result.

constexpr unsigned kBatchBlocks = 16;
constexpr unsigned kFramesPerBlock = 2;
constexpr unsigned kBatchCycles = kFramesPerBlock * kCyclesPerFrame;

std::vector<par::StimulusBlock> make_gate_lane_blocks() {
  // Gate hist inputs in declaration order: pixel[8], pixel_valid, vsync —
  // 10 bit slots, each element a 64-lane word; block b lane l carries the
  // pixel stream of frame (b * 64 + l) per in-block frame.
  std::vector<par::StimulusBlock> blocks;
  for (unsigned b = 0; b < kBatchBlocks; ++b) {
    par::StimulusBlock blk = par::StimulusBlock::make(kBatchCycles, 10, 64);
    for (unsigned f = 0; f < kFramesPerBlock; ++f) {
      for (unsigned i = 0; i < kCyclesPerFrame; ++i) {
        const unsigned c = f * kCyclesPerFrame + i;
        const bool valid = i < kPixelsPerFrame;
        for (unsigned lane = 0; lane < 64; ++lane) {
          const std::uint64_t frame =
              (static_cast<std::uint64_t>(b) * 64 + lane) * kFramesPerBlock +
              f;
          const std::uint64_t pix = (i * 7 + frame * 13) & 0xff;
          for (unsigned bit = 0; bit < 8; ++bit)
            blk.in_at(c, bit) |= ((pix >> bit) & 1u) << lane;
        }
        blk.in_at(c, 8) = valid ? ~0ull : 0;
        blk.in_at(c, 9) = (valid && i == 0) ? ~0ull : 0;
      }
    }
    blocks.push_back(std::move(blk));
  }
  return blocks;
}

void BM_GateBitParallelShards(benchmark::State& state) {
  // The native engine at 64 lanes.  `warm` holds the compiled object in
  // the jit cache across the timed loop, so the compile lands in set-up
  // and every pooled engine run_batch builds is a cache hit.
  const gate::Netlist nl = gate::lower_to_gates(build_histogram_rtl());
  std::vector<par::StimulusBlock> blocks = make_gate_lane_blocks();
  par::Pool pool(static_cast<unsigned>(state.range(0)));
  const jit::CacheStats jit_before = jit::cache_stats();
  const gate::Simulator warm(nl, gate::SimMode::kNative, 64);
  const jit::CacheStats jit_setup = jit::cache_stats();
  std::uint64_t vectors = 0;
  for (auto _ : state) {
    gate::run_batch(nl, gate::SimMode::kNative, blocks, &pool);
    vectors += static_cast<std::uint64_t>(kBatchBlocks) * kBatchCycles * 64;
    benchmark::DoNotOptimize(blocks.front().out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(vectors));
  state.counters["level"] = 2;  // gate
  state.counters["threads"] = static_cast<double>(pool.size());
  state.counters["native_code"] = warm.native().native() ? 1 : 0;
  report_jit_stats(state, jit_before, jit_setup);
}

void BM_RtlTapeBatch(benchmark::State& state) {
  const rtl::Module m = build_histogram_rtl();
  // One-lane blocks: 10 bit slots, pixel[8], pixel_valid, vsync, each a
  // lane word whose bit 0 is the lane; block b runs the pixel streams of
  // frames b*2 and b*2+1.
  std::vector<par::StimulusBlock> blocks;
  for (unsigned b = 0; b < kBatchBlocks; ++b) {
    par::StimulusBlock blk = par::StimulusBlock::make(kBatchCycles, 10, 1);
    for (unsigned f = 0; f < kFramesPerBlock; ++f) {
      const std::uint64_t frame =
          static_cast<std::uint64_t>(b) * kFramesPerBlock + f;
      for (unsigned i = 0; i < kCyclesPerFrame; ++i) {
        const unsigned c = f * kCyclesPerFrame + i;
        const bool valid = i < kPixelsPerFrame;
        const std::uint64_t pix = (i * 7 + frame * 13) & 0xff;
        for (unsigned bit = 0; bit < 8; ++bit)
          blk.in_at(c, bit) = (pix >> bit) & 1u;
        blk.in_at(c, 8) = valid ? 1 : 0;
        blk.in_at(c, 9) = (valid && i == 0) ? 1 : 0;
      }
    }
    blocks.push_back(std::move(blk));
  }
  par::Pool pool(static_cast<unsigned>(state.range(0)));
  std::uint64_t vectors = 0;
  for (auto _ : state) {
    rtl::run_batch(m, rtl::SimMode::kTape, blocks, &pool);
    vectors += static_cast<std::uint64_t>(kBatchBlocks) * kBatchCycles;
    benchmark::DoNotOptimize(blocks.front().out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(vectors));
  state.counters["level"] = 1;  // RTL
  state.counters["threads"] = static_cast<double>(pool.size());
}

}  // namespace

BENCHMARK(BM_OoKernelSim)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RtlCycleSim)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RtlTapeSim)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RtlNativeSim)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RtlTapeLanesSim)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RtlNativeLanesSim)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GateEventSim)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GateLevelizedSim)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GateBitParallelSim)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GateNativeSim)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GateNativeLanesSim)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_JitColdCompile, rtl_histogram, false, false)
    ->Unit(benchmark::kSecond)->UseRealTime()->Iterations(3);
BENCHMARK_CAPTURE(BM_JitColdCompile, rtl_threshold, false, true)
    ->Unit(benchmark::kSecond)->UseRealTime()->Iterations(3);
BENCHMARK_CAPTURE(BM_JitColdCompile, gate_histogram, true, false)
    ->Unit(benchmark::kSecond)->UseRealTime()->Iterations(3);
BENCHMARK_CAPTURE(BM_JitColdCompile, gate_threshold, true, true)
    ->Unit(benchmark::kSecond)->UseRealTime()->Iterations(3);
// UseRealTime: vector-cycles per WALL second — the honest scaling metric
// (the default CPU-time rate only counts the calling thread).
BENCHMARK(BM_GateBitParallelShards)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);
BENCHMARK(BM_RtlTapeBatch)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

// Custom main instead of BENCHMARK_MAIN: google benchmark's built-in
// "library_build_type" context key records how *libbenchmark* was built,
// not this translation unit — a Debug bench linked against a Release
// libbenchmark (or vice versa) reports the wrong thing and once let a
// debug-build baseline land in BENCH_r7.json.  Record the honest build
// type of the benchmark code itself, keyed on the optimizer being on;
// tools/check_bench_r7.py refuses runs and baselines that don't say
// "release" here.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("osss_build_type",
#ifdef __OPTIMIZE__
                              "release"
#else
                              "debug"
#endif
  );
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
