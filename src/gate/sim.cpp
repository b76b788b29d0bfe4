#include "gate/sim.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace osss::gate {

const char* sim_mode_name(SimMode m) {
  switch (m) {
    case SimMode::kEvent: return "event";
    case SimMode::kNative: return "native";
  }
  return "?";
}

Simulator::Simulator(Netlist nl, SimMode mode, unsigned lanes,
                     CodegenOptions codegen)
    : nl_(std::move(nl)), mode_(mode) {
  if (mode == SimMode::kNative) {
    // The engine owns all simulation state (it validates the netlist and
    // resets itself); the event-engine members stay empty.
    native_ = std::make_unique<NativeEngine>(
        nl_, lanes == 0 ? kLanes : lanes, std::move(codegen));
    return;
  }
  if (lanes > 1)
    throw std::invalid_argument(
        "gate::Simulator: the event engine carries one lane");
  nl_.validate();
  const std::size_t n = nl_.cells().size();
  values_.assign(n, 0);
  values_[nl_.const1()] = 1;
  queued_.assign(n, 0);
  queue_.reserve(64);

  // Sequential elements and memory read cells, cached once so step() never
  // rescans the cell array.
  memq_cells_.resize(nl_.memories().size());
  for (NetId id = 0; id < n; ++id) {
    const Cell& c = nl_.cells()[id];
    if (c.kind == CellKind::kDff) dffs_.push_back({id, c.ins[0], c.init});
    if (c.kind == CellKind::kMemQ) memq_cells_[c.param].push_back(id);
  }
  dff_next_.resize(dffs_.size());

  // CSR fanout arena (combinational users only; DFFs are the sequential
  // boundary and are sampled in step(), never event-scheduled).
  fanout_offset_.assign(n + 1, 0);
  for (NetId id = 0; id < n; ++id) {
    const Cell& c = nl_.cells()[id];
    if (c.kind == CellKind::kDff) continue;
    for (const NetId in : c.ins) ++fanout_offset_[in + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) fanout_offset_[i] += fanout_offset_[i - 1];
  fanout_.resize(fanout_offset_[n]);
  {
    std::vector<std::uint32_t> cursor(fanout_offset_.begin(),
                                      fanout_offset_.end() - 1);
    for (NetId id = 0; id < n; ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind == CellKind::kDff) continue;
      for (const NetId in : c.ins) fanout_[cursor[in]++] = id;
    }
  }
  order_ = nl_.topo_order();

  // Memory state and flattened write-port sampling plan.
  for (const MemMacro& m : nl_.memories())
    mem_.emplace_back(static_cast<std::size_t>(m.depth) * m.width, 0);
  for (std::uint32_t mi = 0; mi < nl_.memories().size(); ++mi) {
    const MemMacro& m = nl_.memories()[mi];
    for (const auto& w : m.writes) {
      WritePortRef ref;
      ref.mem = mi;
      ref.base = static_cast<std::uint32_t>(wp_nets_.size());
      ref.addr_n = static_cast<std::uint32_t>(w.addr.size());
      ref.width = m.width;
      wp_nets_.push_back(w.enable);
      wp_nets_.insert(wp_nets_.end(), w.addr.begin(), w.addr.end());
      wp_nets_.insert(wp_nets_.end(), w.data.begin(), w.data.end());
      wports_.push_back(ref);
    }
  }
  wp_samp_.resize(wp_nets_.size());

  reset();
}

void Simulator::throw_bad_net(NetId id, unsigned word) {
  throw std::out_of_range("gate::Simulator: net " + std::to_string(id) +
                          " word " + std::to_string(word) + " out of range");
}

std::uint64_t Simulator::eval_memq(const Cell& c) const {
  const MemMacro& m = nl_.memories()[c.param];
  std::uint64_t a = 0;
  for (std::size_t i = c.ins.size(); i-- > 0;)
    a = (a << 1) | values_[c.ins[i]];
  if (a >= m.depth) return 0;
  return mem_[c.param][a * m.width + c.param2];
}

std::uint64_t Simulator::eval_cell(NetId id) const {
  const Cell& c = nl_.cells()[id];
  const auto w = [&](std::size_t i) { return values_[c.ins[i]]; };
  switch (c.kind) {
    case CellKind::kConst0: return 0;
    case CellKind::kConst1: return 1;
    case CellKind::kInput: return values_[id];
    case CellKind::kBuf: return w(0);
    case CellKind::kInv: return w(0) ^ 1u;
    case CellKind::kAnd2: return w(0) & w(1);
    case CellKind::kOr2: return w(0) | w(1);
    case CellKind::kNand2: return (w(0) & w(1)) ^ 1u;
    case CellKind::kNor2: return (w(0) | w(1)) ^ 1u;
    case CellKind::kXor2: return w(0) ^ w(1);
    case CellKind::kXnor2: return w(0) ^ w(1) ^ 1u;
    case CellKind::kMux2: return (w(0) & w(1)) | (~w(0) & w(2));
    case CellKind::kDff: return values_[id];  // held state
    case CellKind::kMemQ: return eval_memq(c);
  }
  return 0;
}

void Simulator::on_net_changed(NetId id) {
  for (std::uint32_t i = fanout_offset_[id]; i < fanout_offset_[id + 1]; ++i)
    wake_cell(fanout_[i]);
}

void Simulator::wake_cell(NetId cell) {
  if (!queued_[cell]) {
    queued_[cell] = 1;
    queue_.push_back(cell);
  }
}

void Simulator::propagate() {
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    stats_.queue_high_water =
        std::max<std::uint64_t>(stats_.queue_high_water, queue_.size() - head);
    const NetId id = queue_[head];
    queued_[id] = 0;
    ++stats_.events;
    const std::uint64_t nv = eval_cell(id);
    if (nv != values_[id]) {
      values_[id] = nv;
      on_net_changed(id);
    }
  }
  queue_.clear();
}

void Simulator::full_eval() {
  for (const NetId id : order_) {
    ++stats_.events;
    values_[id] = eval_cell(id);
  }
}

void Simulator::reset() {
  if (native_) {
    native_->reset();
    return;
  }
  for (const DffBind& d : dffs_) values_[d.q] = d.init ? 1 : 0;
  for (auto& mem : mem_) std::fill(mem.begin(), mem.end(), 0);
  queue_.clear();
  std::fill(queued_.begin(), queued_.end(), 0);
  full_eval();
}

void Simulator::restore_poweron() {
  if (native_) {
    native_->restore_poweron();
    return;
  }
  reset();
}

unsigned Simulator::find_bus(const std::vector<Bus>& buses,
                             const std::string& name) const {
  for (unsigned i = 0; i < buses.size(); ++i)
    if (buses[i].name == name) return i;
  throw std::logic_error("gate::Simulator: no bus " + name);
}

void Simulator::set_input(const std::string& bus, const Bits& value) {
  const unsigned bi = find_bus(nl_.inputs(), bus);
  if (native_) {
    native_->set_input(bi, value);
    return;
  }
  const Bus& b = nl_.inputs()[bi];
  if (value.width() != b.nets.size())
    throw std::logic_error("gate::Simulator: input width mismatch on " + bus);
  for (std::size_t i = 0; i < b.nets.size(); ++i)
    drive(b.nets[i], value.bit(static_cast<unsigned>(i)) ? 1 : 0);
  propagate();
}

void Simulator::set_input(const std::string& bus, std::uint64_t value) {
  const unsigned bi = find_bus(nl_.inputs(), bus);
  if (native_) {
    native_->set_input(bi, value);
    return;
  }
  const std::vector<NetId>& nets = nl_.inputs()[bi].nets;
  const std::size_t n = nets.size();
  if (n < 64 && (value >> n) != 0)
    throw std::logic_error("gate::Simulator: value does not fit " +
                           std::to_string(n) + "-bit input bus " + bus);
  for (std::size_t i = 0; i < n; ++i)
    drive(nets[i], i < 64 ? (value >> i) & 1u : 0);
  propagate();
}

void Simulator::drive(NetId net, std::uint64_t v) {
  if (values_[net] == v) return;
  values_[net] = v;
  on_net_changed(net);
}

void Simulator::set_input_lanes(const std::string& bus,
                                std::span<const std::uint64_t> bit_lanes) {
  const unsigned bi = find_bus(nl_.inputs(), bus);
  if (native_) {
    native_->set_input_lanes(bi, bit_lanes);
    return;
  }
  const std::vector<NetId>& nets = nl_.inputs()[bi].nets;
  if (bit_lanes.size() != nets.size())
    throw std::logic_error("gate::Simulator: input width mismatch on " + bus);
  for (std::size_t i = 0; i < nets.size(); ++i)
    drive(nets[i], bit_lanes[i] & 1u);
  propagate();
}

void Simulator::set_input_values(const std::string& bus,
                                 std::span<const std::uint64_t> values) {
  if (!native_)
    throw std::logic_error(
        "gate::Simulator: set_input_values requires kNative mode");
  native_->set_input_values(find_bus(nl_.inputs(), bus), values);
}

std::vector<std::uint64_t> Simulator::output_values(
    const std::string& bus) const {
  if (!native_)
    throw std::logic_error(
        "gate::Simulator: output_values requires kNative mode");
  return native_->output_values(find_bus(nl_.outputs(), bus));
}

const Simulator::Stats& Simulator::stats() const noexcept {
  if (native_) {
    const NativeEngine::RunStats& rs = native_->stats();
    stats_.events = rs.evals;
    stats_.cycles = rs.cycles;
    stats_.levels_evaluated = rs.levels_evaluated;
    stats_.levels_skipped = rs.levels_skipped;
  }
  return stats_;
}

NativeEngine& Simulator::native() {
  if (!native_)
    throw std::logic_error("gate::Simulator: native() requires kNative mode");
  return *native_;
}

const NativeEngine& Simulator::native() const {
  if (!native_)
    throw std::logic_error("gate::Simulator: native() requires kNative mode");
  return *native_;
}

Bits Simulator::output(const std::string& bus) const {
  return output_lane(bus, 0);
}

Bits Simulator::output_lane(const std::string& bus, unsigned lane) const {
  const unsigned bi = find_bus(nl_.outputs(), bus);
  if (native_) return native_->output_lane(bi, lane);
  if (lane != 0) throw std::logic_error("gate::Simulator: lane out of range");
  const Bus& b = nl_.outputs()[bi];
  Bits out(static_cast<unsigned>(b.nets.size()));
  for (std::size_t i = 0; i < b.nets.size(); ++i)
    out.set_bit(static_cast<unsigned>(i), values_[b.nets[i]] != 0);
  return out;
}

std::vector<std::uint64_t> Simulator::output_words(
    const std::string& bus) const {
  const unsigned bi = find_bus(nl_.outputs(), bus);
  if (native_) return native_->output_words(bi);
  const Bus& b = nl_.outputs()[bi];
  std::vector<std::uint64_t> out(b.nets.size());
  for (std::size_t i = 0; i < b.nets.size(); ++i) out[i] = values_[b.nets[i]];
  return out;
}

void Simulator::commit_writes() {
  for (const WritePortRef& wp : wports_) {
    if (!wp_samp_[wp.base]) continue;
    const std::uint64_t* addr = &wp_samp_[wp.base + 1];
    const std::uint64_t* data = addr + wp.addr_n;
    std::uint64_t a = 0;
    for (std::size_t i = wp.addr_n; i-- > 0;) a = (a << 1) | addr[i];
    if (a >= nl_.memories()[wp.mem].depth) continue;
    std::uint64_t* word = &mem_[wp.mem][a * wp.width];
    bool changed = false;
    for (std::uint32_t b = 0; b < wp.width; ++b) {
      if (word[b] != data[b]) {
        word[b] = data[b];
        changed = true;
      }
    }
    if (changed)
      for (const NetId q : memq_cells_[wp.mem]) wake_cell(q);
  }
}

void Simulator::step() {
  if (native_) {
    native_->step();
    return;
  }
  // Sample all DFF D pins and memory write ports with pre-edge values,
  // then commit — member scratch buffers, no per-cycle allocation.
  for (std::size_t i = 0; i < dffs_.size(); ++i)
    dff_next_[i] = values_[dffs_[i].d];
  for (std::size_t i = 0; i < wp_nets_.size(); ++i)
    wp_samp_[i] = values_[wp_nets_[i]];
  for (std::size_t i = 0; i < dffs_.size(); ++i) {
    const NetId q = dffs_[i].q;
    if (values_[q] != dff_next_[i]) {
      values_[q] = dff_next_[i];
      on_net_changed(q);
    }
  }
  commit_writes();
  propagate();
  ++stats_.cycles;
}

Bits Simulator::mem_word(unsigned mem, unsigned word) const {
  if (native_) return native_->mem_word(mem, word);
  const MemMacro& m = nl_.memories().at(mem);
  if (word >= m.depth)
    throw std::out_of_range("gate::Simulator: memory word out of range");
  Bits out(m.width);
  for (unsigned b = 0; b < m.width; ++b)
    out.set_bit(b,
                mem_[mem][static_cast<std::size_t>(word) * m.width + b] != 0);
  return out;
}

void Simulator::poke_mem(unsigned mem, unsigned word, const Bits& value) {
  if (native_) {
    native_->poke_mem(mem, word, value);
    return;
  }
  const MemMacro& m = nl_.memories().at(mem);
  if (word >= m.depth)
    throw std::out_of_range("gate::Simulator: memory word out of range");
  if (m.width != value.width())
    throw std::logic_error("gate::Simulator: poke_mem width mismatch");
  for (unsigned b = 0; b < m.width; ++b)
    mem_[mem][static_cast<std::size_t>(word) * m.width + b] =
        value.bit(b) ? 1 : 0;
  for (const NetId q : memq_cells_.at(mem)) wake_cell(q);
  propagate();
}

// --- run_batch -------------------------------------------------------------

namespace {

void run_block(Simulator& sim, const Netlist& nl, par::StimulusBlock& b) {
  const unsigned lw = sim.lane_words();
  sim.restore_poweron();
  for (unsigned c = 0; c < b.cycles; ++c) {
    unsigned slot = 0;
    for (const Bus& bus : nl.inputs()) {
      const unsigned w = static_cast<unsigned>(bus.nets.size());
      // Block memory already has the set_input_lanes layout (bit i at
      // lw consecutive slots) — hand it over without copying.
      sim.set_input_lanes(bus.name,
                          std::span<const std::uint64_t>(
                              &b.in_at(c, slot), std::size_t{w} * lw));
      slot += w * lw;
    }
    sim.step();
    slot = 0;
    for (const Bus& bus : nl.outputs()) {
      const std::vector<std::uint64_t> words = sim.output_words(bus.name);
      for (std::size_t i = 0; i < words.size(); ++i)
        b.out[static_cast<std::size_t>(c) * b.out_slots + slot + i] = words[i];
      slot += static_cast<unsigned>(words.size());
    }
  }
}

}  // namespace

void run_batch(const Netlist& nl, SimMode mode,
               std::span<par::StimulusBlock> blocks, par::Pool* pool) {
  if (blocks.empty()) return;
  const unsigned lanes = blocks.front().lanes;
  if (lanes != 1 && mode != SimMode::kNative)
    throw std::invalid_argument(
        "gate::run_batch: lane blocks require kNative");
  std::vector<unsigned> in_widths, out_widths;
  for (const Bus& bus : nl.inputs())
    in_widths.push_back(static_cast<unsigned>(bus.nets.size()));
  for (const Bus& bus : nl.outputs())
    out_widths.push_back(static_cast<unsigned>(bus.nets.size()));
  // Every native engine shares one cached object; blocks start from
  // restore_poweron(), a snapshot copy.
  par::run_blocks(
      blocks, in_widths, out_widths, Simulator::kMaxLanes, pool,
      "gate::run_batch",
      [&] { return std::make_unique<Simulator>(nl, mode, lanes); },
      [&](Simulator& sim, par::StimulusBlock& b) { run_block(sim, nl, b); });
}

}  // namespace osss::gate
