// random_module.hpp — random RTL design generation for fuzzing.
//
// Grows a random module from a pool of wires the way the lowering fuzzer
// always has (random operators over random widths, registers with random
// feedback), extended with the structural shapes the OSSS synthesizer
// emits, so lowering fuzz also exercises the gate backend's handling of
// `synth/`- and `osss/`-style output:
//
//   * memories      — an RTL memory with random read/write ports (the
//                     histogram-RAM shape);
//   * shared-mux    — one functional unit whose operands are selected from
//                     several candidate pairs by a rotating grant register
//                     (the shared-object arbiter/mux shape of
//                     synth/shared_synth.cpp);
//   * polymorphic   — a tag register dispatching between per-variant
//                     datapaths through a result mux tree (the virtual-call
//                     shape of synth/polymorphic_synth.cpp).

#pragma once

#include <random>

#include "rtl/ir.hpp"

namespace osss::verify {

struct RandomModuleOptions {
  unsigned ops = 40;            ///< random operator count for the base pool
  bool with_memory = false;     ///< add a memory with read + write ports
  bool with_shared_mux = false; ///< add a shared-functional-unit shape
  bool with_polymorphic = false;///< add a tag-dispatch shape
};

/// Generate a random module.  Deterministic for a given rng state.
rtl::Module random_module(std::mt19937_64& rng,
                          const RandomModuleOptions& opt = {});

}  // namespace osss::verify
