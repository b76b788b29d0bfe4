#include "rtl/sim.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace osss::rtl {

const char* sim_mode_name(SimMode mode) {
  switch (mode) {
    case SimMode::kInterp: return "interp";
    case SimMode::kTape: return "tape";
    case SimMode::kNative: return "native";
  }
  return "?";
}

Simulator::Simulator(Module module, SimMode mode, unsigned lanes,
                     tape::CodegenOptions codegen)
    : m_(std::move(module)), mode_(mode), lanes_(lanes) {
  if (mode_ == SimMode::kInterp && lanes_ != 1)
    throw std::logic_error(
        "Simulator: multi-lane requires SimMode::kTape or kNative");
  for (std::uint32_t i = 0; i < m_.inputs().size(); ++i)
    input_index_.emplace(m_.inputs()[i].name, i);
  for (std::uint32_t i = 0; i < m_.outputs().size(); ++i)
    output_index_.emplace(m_.outputs()[i].name, i);
  if (mode_ != SimMode::kInterp) {
    engine_ = std::make_unique<tape::NativeEngine>(
        m_, lanes_, std::move(codegen),
        mode_ == SimMode::kTape ? tape::Evaluator::kLaneSwitch
                                : tape::Evaluator::kCompiled);
    return;
  }
  m_.validate();
  order_ = m_.topo_order();
  values_.resize(m_.node_count());
  for (NodeId id = 0; id < m_.node_count(); ++id)
    values_[id] = Bits(m_.node(id).width);
  reg_state_.reserve(m_.registers().size());
  for (const Register& r : m_.registers()) reg_state_.push_back(r.init);
  for (const Memory& mem : m_.memories())
    mem_state_.emplace_back(mem.depth, Bits(mem.data_width));
  input_values_.reserve(m_.inputs().size());
  for (const auto& p : m_.inputs())
    input_values_.push_back(Bits(m_.node(p.node).width));
}

InputHandle Simulator::input_handle(const std::string& name) const {
  const auto it = input_index_.find(name);
  if (it == input_index_.end())
    throw std::logic_error("Simulator: no input named " + name);
  return InputHandle{it->second};
}

OutputHandle Simulator::output_handle(const std::string& name) const {
  const auto it = output_index_.find(name);
  if (it == output_index_.end())
    throw std::logic_error("Simulator: no output named " + name);
  return OutputHandle{it->second};
}

void Simulator::set_input(const std::string& name, const Bits& value) {
  set_input(input_handle(name), value);
}

void Simulator::set_input(const std::string& name, std::uint64_t value) {
  const InputHandle h = input_handle(name);
  set_input(h, Bits(input_width(h.index), value));
}

void Simulator::set_input(InputHandle h, const Bits& value) {
  if (h.index >= m_.inputs().size())
    throw std::logic_error("Simulator: bad input handle");
  if (value.width() != input_width(h.index))
    throw std::logic_error("Simulator: input width mismatch on " +
                           m_.inputs()[h.index].name);
  if (mode_ != SimMode::kInterp) {
    engine_->set_input(h.index, value);
    return;
  }
  input_values_[h.index] = value;
  dirty_ = true;
}

void Simulator::set_input(InputHandle h, std::uint64_t value) {
  if (h.index >= m_.inputs().size())
    throw std::logic_error("Simulator: bad input handle");
  if (mode_ != SimMode::kInterp) {
    engine_->set_input_u64(h.index, value);  // no Bits
    return;
  }
  set_input(h, Bits(input_width(h.index), value));
}

void Simulator::set_input_lanes(InputHandle h,
                                std::span<const std::uint64_t> bit_lanes) {
  if (h.index >= m_.inputs().size())
    throw std::logic_error("Simulator: bad input handle");
  if (mode_ != SimMode::kInterp) {
    engine_->set_input_lanes(h.index, bit_lanes);
    return;
  }
  Bits& v = input_values_[h.index];
  if (bit_lanes.size() != v.width())
    throw std::logic_error("Simulator: set_input_lanes width mismatch on " +
                           m_.inputs()[h.index].name);
  for (unsigned i = 0; i < v.width(); ++i)
    v.set_bit(i, (bit_lanes[i] & 1u) != 0);
  dirty_ = true;
}

void Simulator::set_input_values(InputHandle h,
                                 std::span<const std::uint64_t> values) {
  if (mode_ == SimMode::kInterp)
    throw std::logic_error(
        "Simulator: set_input_values requires kTape or kNative");
  if (h.index >= m_.inputs().size())
    throw std::logic_error("Simulator: bad input handle");
  engine_->set_input_values(h.index, values);
}

Bits Simulator::compute(const Node& n) const {
  switch (n.op) {
    case Op::kInput: return Bits(n.width);  // overwritten in eval()
    case Op::kReg: return reg_state_[n.param];
    case Op::kMemRead: {
      const Memory& mem = m_.memories()[n.param];
      const std::uint64_t addr = values_[n.ins[0]].to_u64();
      if (addr >= mem.depth) return Bits(mem.data_width);  // out of depth: 0
      return mem_state_[n.param][addr];
    }
    default:
      return eval_op(
          n, [&](std::size_t i) -> const Bits& { return values_[n.ins[i]]; });
  }
}

void Simulator::eval() {
  if (!dirty_) return;
  // Input ports first (they are sources in the topo order anyway, but their
  // values come from the testbench).
  for (std::size_t i = 0; i < m_.inputs().size(); ++i)
    values_[m_.inputs()[i].node] = input_values_[i];
  for (const NodeId id : order_) {
    const Node& n = m_.node(id);
    if (n.op == Op::kInput) continue;
    values_[id] = compute(n);
  }
  dirty_ = false;
}

void Simulator::check_lane(unsigned lane) const {
  if (lane >= lanes_)
    throw std::logic_error("Simulator: lane " + std::to_string(lane) +
                           " out of range (" + std::to_string(lanes_) +
                           " lanes)");
}

Bits Simulator::get(NodeId id, unsigned lane) {
  check_lane(lane);
  if (mode_ != SimMode::kInterp)
    return engine_->node_value(id, lane);
  eval();
  return values_.at(id);
}

Bits Simulator::output(const std::string& name) {
  return output(output_handle(name));
}

Bits Simulator::output(OutputHandle h) { return output_lane(h, 0); }

Bits Simulator::output_lane(OutputHandle h, unsigned lane) {
  if (h.index >= m_.outputs().size())
    throw std::logic_error("Simulator: bad output handle");
  check_lane(lane);
  if (mode_ != SimMode::kInterp)
    return engine_->output(h.index, lane);
  eval();
  return values_.at(m_.outputs()[h.index].node);
}

std::uint64_t Simulator::output_u64(OutputHandle h) {
  if (h.index >= m_.outputs().size())
    throw std::logic_error("Simulator: bad output handle");
  if (mode_ != SimMode::kInterp)
    return engine_->output_u64(h.index);
  eval();
  return values_[m_.outputs()[h.index].node].to_u64();
}

std::vector<std::uint64_t> Simulator::output_words(OutputHandle h) {
  if (h.index >= m_.outputs().size())
    throw std::logic_error("Simulator: bad output handle");
  if (mode_ != SimMode::kInterp) return engine_->output_words(h.index);
  eval();
  const Bits& v = values_[m_.outputs()[h.index].node];
  std::vector<std::uint64_t> out(v.width());
  for (unsigned i = 0; i < v.width(); ++i) out[i] = v.bit(i) ? 1u : 0u;
  return out;
}

std::vector<std::uint64_t> Simulator::output_values(OutputHandle h) {
  if (mode_ == SimMode::kInterp)
    throw std::logic_error(
        "Simulator: output_values requires kTape or kNative");
  if (h.index >= m_.outputs().size())
    throw std::logic_error("Simulator: bad output handle");
  return engine_->output_values(h.index);
}

void Simulator::step() {
  if (mode_ != SimMode::kInterp) {
    engine_->step();
    return;
  }
  eval();
  // Capture next state before committing anything (all registers and memory
  // writes observe the same pre-edge values).
  std::vector<Bits> next = reg_state_;
  for (std::size_t i = 0; i < m_.registers().size(); ++i) {
    const Register& r = m_.registers()[i];
    const bool en =
        r.enable == kInvalidNode || values_[r.enable].bit(0);
    if (en) next[i] = values_[r.d];
  }
  struct PendingWrite {
    unsigned mem;
    std::uint64_t addr;
    Bits data;
  };
  std::vector<PendingWrite> writes;
  for (unsigned mi = 0; mi < m_.memories().size(); ++mi) {
    for (const auto& w : m_.memories()[mi].writes) {
      if (values_[w.enable].bit(0)) {
        const std::uint64_t addr = values_[w.addr].to_u64();
        if (addr < m_.memories()[mi].depth)
          writes.push_back({mi, addr, values_[w.data]});
      }
    }
  }
  reg_state_ = std::move(next);
  for (auto& w : writes) mem_state_[w.mem][w.addr] = std::move(w.data);
  dirty_ = true;
  ++cycles_;
}

void Simulator::reset() {
  if (mode_ != SimMode::kInterp) {
    engine_->reset();
    return;
  }
  for (std::size_t i = 0; i < m_.registers().size(); ++i)
    reg_state_[i] = m_.registers()[i].init;
  for (unsigned mi = 0; mi < m_.memories().size(); ++mi) {
    for (auto& word : mem_state_[mi]) word = Bits(word.width());
  }
  dirty_ = true;
}

void Simulator::restore_poweron() {
  if (mode_ != SimMode::kInterp) {
    engine_->restore_poweron();
    return;
  }
  reset();
}

std::uint64_t Simulator::cycle_count() const noexcept {
  if (mode_ == SimMode::kInterp) return cycles_;
  return engine_->stats().cycles;
}

Simulator::Stats Simulator::stats() const {
  if (mode_ != SimMode::kInterp) {
    Stats s;
    const tape::NativeEngine::RunStats& rs = engine_->stats();
    const tape::CompileStats& cs = engine_->program().stats;
    s.cycles = rs.cycles;
    s.nodes_evaluated = rs.evals;
    s.levels_evaluated = rs.levels_evaluated;
    s.levels_skipped = rs.levels_skipped;
    s.tape_len = cs.tape_len;
    s.arena_words = cs.arena_words;
    s.levels = cs.levels;
    s.const_folded = cs.const_folded;
    s.pruned = cs.pruned;
    s.fused = cs.fused;
    return s;
  }
  Stats s;
  s.cycles = cycles_;
  return s;
}

tape::Program& Simulator::tape() {
  if (mode_ == SimMode::kInterp)
    throw std::logic_error("Simulator: tape() requires kTape or kNative");
  return engine_->program();
}

tape::NativeEngine& Simulator::native() {
  if (mode_ != SimMode::kNative)
    throw std::logic_error("Simulator: native() requires SimMode::kNative");
  return *engine_;
}

Bits Simulator::mem_word(unsigned mem_index, unsigned word) {
  if (mode_ != SimMode::kInterp)
    return engine_->mem_word(mem_index, word);
  return mem_state_.at(mem_index).at(word);
}

void Simulator::poke_mem(unsigned mem_index, unsigned word,
                         const Bits& value) {
  if (mode_ != SimMode::kInterp) {
    if (mem_index >= m_.memories().size() ||
        word >= m_.memories()[mem_index].depth)
      throw std::out_of_range("Simulator: poke_mem out of range");
    if (value.width() != m_.memories()[mem_index].data_width)
      throw std::logic_error("Simulator: poke_mem width mismatch");
    engine_->poke_mem(mem_index, word, value);
    return;
  }
  Bits& slot = mem_state_.at(mem_index).at(word);
  if (slot.width() != value.width())
    throw std::logic_error("Simulator: poke_mem width mismatch");
  slot = value;
  dirty_ = true;
}

void Simulator::poke_reg(const std::string& name, const Bits& value) {
  for (std::size_t i = 0; i < m_.registers().size(); ++i) {
    if (m_.registers()[i].name == name) {
      if (m_.node(m_.registers()[i].q).width != value.width())
        throw std::logic_error("Simulator: poke_reg width mismatch");
      if (mode_ != SimMode::kInterp) {
        engine_->poke_reg(static_cast<unsigned>(i), value);
      } else {
        reg_state_[i] = value;
        dirty_ = true;
      }
      return;
    }
  }
  throw std::logic_error("Simulator: no register named " + name);
}

// --- run_batch -------------------------------------------------------------

namespace {

void run_block(Simulator& sim, const std::vector<InputHandle>& in,
               const std::vector<unsigned>& in_widths,
               const std::vector<OutputHandle>& out, par::StimulusBlock& b) {
  const unsigned lw = sim.lane_words();
  sim.restore_poweron();
  for (unsigned c = 0; c < b.cycles; ++c) {
    unsigned slot = 0;
    for (std::size_t p = 0; p < in.size(); ++p) {
      const unsigned w = in_widths[p] * lw;
      // Block memory already has the set_input_lanes layout.
      sim.set_input_lanes(in[p],
                          std::span<const std::uint64_t>(&b.in_at(c, slot), w));
      slot += w;
    }
    sim.step();
    slot = 0;
    for (const OutputHandle h : out) {
      const std::vector<std::uint64_t> words = sim.output_words(h);
      for (std::size_t i = 0; i < words.size(); ++i)
        b.out[static_cast<std::size_t>(c) * b.out_slots + slot + i] = words[i];
      slot += static_cast<unsigned>(words.size());
    }
  }
}

}  // namespace

void run_batch(const Module& m, SimMode mode,
               std::span<par::StimulusBlock> blocks, par::Pool* pool) {
  if (blocks.empty()) return;
  const unsigned lanes = blocks.front().lanes;
  if (lanes > 1 && mode != SimMode::kTape && mode != SimMode::kNative)
    throw std::invalid_argument(
        "rtl::run_batch: lane blocks require SimMode::kTape or kNative");
  if (lanes > 64 && mode != SimMode::kNative)
    throw std::invalid_argument(
        "rtl::run_batch: blocks wider than 64 lanes require SimMode::kNative");

  std::vector<unsigned> in_widths, out_widths;
  for (const PortRef& p : m.inputs())
    in_widths.push_back(m.node(p.node).width);
  for (const PortRef& p : m.outputs())
    out_widths.push_back(m.node(p.node).width);
  // Each pooled engine carries its resolved port handles; blocks start
  // from restore_poweron(), a snapshot copy.
  struct BatchSim {
    Simulator sim;
    std::vector<InputHandle> in;
    std::vector<OutputHandle> out;
    BatchSim(const Module& m, SimMode mode, unsigned lanes)
        : sim(m, mode, lanes) {
      for (const PortRef& p : m.inputs())
        in.push_back(sim.input_handle(p.name));
      for (const PortRef& p : m.outputs())
        out.push_back(sim.output_handle(p.name));
    }
  };
  par::run_blocks(
      blocks, in_widths, out_widths, tape::kMaxLanes, pool, "rtl::run_batch",
      [&] { return std::make_unique<BatchSim>(m, mode, lanes); },
      [&](BatchSim& bs, par::StimulusBlock& b) {
        run_block(bs.sim, bs.in, in_widths, bs.out, b);
      });
}

}  // namespace osss::rtl
