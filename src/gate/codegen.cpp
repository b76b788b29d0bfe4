// codegen.cpp — gate-level NativeEngine: topology build, native dispatch,
// and the interpreted LW-word fallback sweep.
//
// Semantics contract: every observable value must be bit-identical to
// gate::Simulator (kEvent / kBitParallel) lane for lane.  The topology
// construction below intentionally mirrors the Simulator constructor —
// same level schedule, same fanout-level marking, same write-port
// flattening — generalized from one 64-lane word per net to lw_ words.

#include "gate/codegen.hpp"

#include <algorithm>
#include <stdexcept>

#include "par/batch.hpp"

namespace osss::gate {

NativeEngine::NativeEngine(const Netlist& nl, unsigned lanes,
                           CodegenOptions opt)
    : nl_(&nl) {
  if (lanes == 0) lanes = 64;
  if (lanes != 1 && (lanes % 64 != 0 || lanes > kMaxLanes))
    throw std::invalid_argument(
        "gate::NativeEngine: lanes must be 1 or a multiple of 64 up to " +
        std::to_string(kMaxLanes));
  lanes_ = lanes;
  lw_ = lanes == 1 ? 1 : lanes / 64;
  tail_mask_ = lanes == 1 ? std::uint64_t{1} : ~std::uint64_t{0};

  nl.validate();
  const std::size_t n = nl.cells().size();
  values_.assign(n * lw_, 0);
  for (unsigned w = 0; w < lw_; ++w)
    values_[std::size_t{nl.const1()} * lw_ + w] = tail_mask_;

  // Sequential elements and memory read cells (same scan as the Simulator).
  memq_cells_.resize(nl.memories().size());
  for (NetId id = 0; id < n; ++id) {
    const Cell& c = nl.cells()[id];
    if (c.kind == CellKind::kDff) dffs_.push_back({id, c.ins[0], c.init});
    if (c.kind == CellKind::kMemQ) memq_cells_[c.param].push_back(id);
  }
  dff_next_.assign(dffs_.size() * lw_, 0);

  // Level schedule plus the distinct fanout levels of every net.  The
  // fanout CSR is only needed to derive flevels_, so it stays local.
  level_of_ = nl.topo_levels();
  std::uint32_t num_levels = 0;
  for (const std::uint32_t l : level_of_)
    if (l != kNoLevel) num_levels = std::max(num_levels, l + 1);
  level_offset_.assign(num_levels + 1, 0);
  for (const std::uint32_t l : level_of_)
    if (l != kNoLevel) ++level_offset_[l + 1];
  for (std::size_t i = 1; i <= num_levels; ++i)
    level_offset_[i] += level_offset_[i - 1];
  level_cells_.resize(level_offset_[num_levels]);
  {
    std::vector<std::uint32_t> cursor(level_offset_.begin(),
                                      level_offset_.end() - 1);
    for (NetId id = 0; id < n; ++id)
      if (level_of_[id] != kNoLevel) level_cells_[cursor[level_of_[id]]++] = id;
  }
  level_dirty_.assign(num_levels, 0);
  {
    std::vector<std::vector<std::uint32_t>> users(n);
    for (NetId id = 0; id < n; ++id) {
      const Cell& c = nl.cells()[id];
      if (c.kind == CellKind::kDff) continue;
      for (const NetId in : c.ins) users[in].push_back(level_of_[id]);
    }
    flevel_offset_.assign(n + 1, 0);
    for (NetId id = 0; id < n; ++id) {
      std::vector<std::uint32_t>& u = users[id];
      std::sort(u.begin(), u.end());
      u.erase(std::unique(u.begin(), u.end()), u.end());
      for (const std::uint32_t l : u) flevels_.push_back(l);
      flevel_offset_[id + 1] = static_cast<std::uint32_t>(flevels_.size());
    }
  }

  // Memory state (one lane word per data bit per lane group) and the
  // flattened write-port sampling plan.
  for (const MemMacro& m : nl.memories())
    mem_.emplace_back(
        static_cast<std::size_t>(m.depth) * m.width * lw_, 0);
  for (auto& m : mem_) mem_ptrs_.push_back(m.data());
  for (std::uint32_t mi = 0; mi < nl.memories().size(); ++mi) {
    const MemMacro& m = nl.memories()[mi];
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
  wp_samp_.assign(wp_nets_.size() * lw_, 0);

  if (jit::jit_disabled_by_env()) opt.force_fallback = true;
  try_native(opt);
  reset();
  // Power-on snapshot: inputs are still 0 here and reset() settled the
  // arena, so restore_poweron() can recycle this engine with one copy.
  poweron_values_ = values_;
}

NativeEngine::~NativeEngine() = default;

void NativeEngine::drop_native() {
  eval_fn_ = nullptr;
  step_fn_ = nullptr;
  obj_.reset();
}

namespace {
/// ABI probe shared between the post-compile check and the persistent
/// disk cache's load-time validation: a stale or truncated published
/// artifact must fail here and fall back to a fresh compile, never reach
/// the engine.
bool probe_gate_abi(const jit::Object& obj, unsigned lanes,
                    std::size_t nets_expected) {
  const auto abi = reinterpret_cast<unsigned (*)()>(obj.sym("osss_gate_abi"));
  const auto lns =
      reinterpret_cast<unsigned (*)()>(obj.sym("osss_gate_lanes"));
  const auto nets = reinterpret_cast<unsigned long long (*)()>(
      obj.sym("osss_gate_nets"));
  const auto ssz = reinterpret_cast<unsigned long long (*)()>(
      obj.sym("osss_gate_scratch"));
  return abi != nullptr && abi() == 1u && lns != nullptr && lns() == lanes &&
         nets != nullptr && nets() == nets_expected && ssz != nullptr &&
         obj.sym("osss_gate_eval") != nullptr &&
         obj.sym("osss_gate_step") != nullptr;
}
}  // namespace

void NativeEngine::try_native(const CodegenOptions& opt) {
  const std::string src = emit_netlist_cpp(*nl_, lanes_);
  CodegenOptions vopt = opt;
  vopt.validate = [this](const jit::Object& o) {
    return probe_gate_abi(o, lanes_, nl_->cells().size());
  };
  obj_ = jit::compile(src, vopt, "osss-gate", compile_log_);
  if (obj_ == nullptr) return;
  if (!probe_gate_abi(*obj_, lanes_, nl_->cells().size())) {
    compile_log_ += "\n[ABI check failed; using interpreted dispatch]";
    drop_native();
    return;
  }
  const auto ssz = reinterpret_cast<unsigned long long (*)()>(
      obj_->sym("osss_gate_scratch"));
  eval_fn_ = reinterpret_cast<EvalFn>(obj_->sym("osss_gate_eval"));
  step_fn_ = reinterpret_cast<StepFn>(obj_->sym("osss_gate_step"));
  step_scratch_.assign(ssz(), 0);
}

void NativeEngine::mark_net(NetId id) {
  for (std::uint32_t k = flevel_offset_[id]; k < flevel_offset_[id + 1]; ++k)
    level_dirty_[flevels_[k]] = 1;
}

void NativeEngine::eval() {
  if (eval_fn_ != nullptr) {
    eval_fn_(values_.data(), mem_ptrs_.data(), level_dirty_.data());
    return;
  }
  fallback_eval();
}

std::uint64_t NativeEngine::addr_at_lane(const NetId* addr_nets,
                                         std::uint32_t n,
                                         unsigned lane) const {
  std::uint64_t a = 0;
  for (std::uint32_t i = n; i-- > 0;)
    a = (a << 1) |
        ((values_[std::size_t{addr_nets[i]} * lw_ + lane / 64] >>
          (lane % 64)) &
         1u);
  return a;
}

std::uint64_t NativeEngine::addr_sample_lane(std::uint32_t base,
                                             std::uint32_t n,
                                             unsigned lane) const {
  std::uint64_t a = 0;
  for (std::uint32_t i = n; i-- > 0;)
    a = (a << 1) |
        ((wp_samp_[std::size_t{base + i} * lw_ + lane / 64] >> (lane % 64)) &
         1u);
  return a;
}

void NativeEngine::eval_memq(NetId id, std::uint64_t* out) const {
  const Cell& c = nl_->cells()[id];
  const MemMacro& m = nl_->memories()[c.param];
  const std::vector<std::uint64_t>& mem = mem_[c.param];
  for (unsigned w = 0; w < lw_; ++w) out[w] = 0;
  for (unsigned lane = 0; lane < lanes_; ++lane) {
    const std::uint64_t a = addr_at_lane(
        c.ins.data(), static_cast<std::uint32_t>(c.ins.size()), lane);
    if (a >= m.depth) continue;
    const std::uint64_t bit =
        (mem[(a * m.width + c.param2) * lw_ + lane / 64] >> (lane % 64)) & 1u;
    out[lane / 64] |= bit << (lane % 64);
  }
}

std::uint64_t NativeEngine::eval_cell_word(const Cell& c, NetId id,
                                           unsigned w) const {
  const auto v = [&](std::size_t i) {
    return values_[std::size_t{c.ins[i]} * lw_ + w];
  };
  switch (c.kind) {
    case CellKind::kConst0: return 0;
    case CellKind::kConst1: return tail_mask_;
    case CellKind::kInput:
    case CellKind::kDff: return values_[std::size_t{id} * lw_ + w];
    case CellKind::kBuf: return v(0);
    case CellKind::kInv: return ~v(0) & tail_mask_;
    case CellKind::kAnd2: return v(0) & v(1);
    case CellKind::kOr2: return v(0) | v(1);
    case CellKind::kNand2: return ~(v(0) & v(1)) & tail_mask_;
    case CellKind::kNor2: return ~(v(0) | v(1)) & tail_mask_;
    case CellKind::kXor2: return v(0) ^ v(1);
    case CellKind::kXnor2: return ~(v(0) ^ v(1)) & tail_mask_;
    case CellKind::kMux2: return (v(0) & v(1)) | (~v(0) & v(2));
    case CellKind::kMemQ: return 0;  // handled by eval_memq()
  }
  return 0;
}

void NativeEngine::fallback_eval() {
  std::uint64_t nv[kMaxLanes / 64];
  for (std::uint32_t lvl = 0; lvl < level_dirty_.size(); ++lvl) {
    if (!level_dirty_[lvl]) {
      ++stats_.levels_skipped;
      continue;
    }
    level_dirty_[lvl] = 0;
    ++stats_.levels_evaluated;
    for (std::uint32_t i = level_offset_[lvl]; i < level_offset_[lvl + 1];
         ++i) {
      const NetId id = level_cells_[i];
      ++stats_.gate_evals;
      const Cell& c = nl_->cells()[id];
      if (c.kind == CellKind::kMemQ)
        eval_memq(id, nv);
      else
        for (unsigned w = 0; w < lw_; ++w) nv[w] = eval_cell_word(c, id, w);
      std::uint64_t* d = &values_[std::size_t{id} * lw_];
      std::uint64_t diff = 0;
      for (unsigned w = 0; w < lw_; ++w) diff |= nv[w] ^ d[w];
      if (diff) {
        for (unsigned w = 0; w < lw_; ++w) d[w] = nv[w];
        mark_net(id);
      }
    }
  }
}

void NativeEngine::fallback_step() {
  // Pre-edge sample of every DFF D pin and write-port net, then commit —
  // same order as Simulator::step() so mixed-port memories match exactly.
  for (std::size_t i = 0; i < dffs_.size(); ++i) {
    const std::uint64_t* d = &values_[std::size_t{dffs_[i].d} * lw_];
    for (unsigned w = 0; w < lw_; ++w) dff_next_[i * lw_ + w] = d[w];
  }
  for (std::size_t s = 0; s < wp_nets_.size(); ++s) {
    const std::uint64_t* v = &values_[std::size_t{wp_nets_[s]} * lw_];
    for (unsigned w = 0; w < lw_; ++w) wp_samp_[s * lw_ + w] = v[w];
  }
  for (std::size_t i = 0; i < dffs_.size(); ++i) {
    const NetId q = dffs_[i].q;
    std::uint64_t* qv = &values_[std::size_t{q} * lw_];
    const std::uint64_t* nd = &dff_next_[i * lw_];
    std::uint64_t diff = 0;
    for (unsigned w = 0; w < lw_; ++w) {
      diff |= qv[w] ^ nd[w];
      qv[w] = nd[w];
    }
    if (diff) mark_net(q);
  }
  for (const WritePortRef& wp : wports_) {
    const MemMacro& m = nl_->memories()[wp.mem];
    std::vector<std::uint64_t>& mem = mem_[wp.mem];
    bool changed = false;
    for (unsigned lane = 0; lane < lanes_; ++lane) {
      if (((wp_samp_[std::size_t{wp.base} * lw_ + lane / 64] >> (lane % 64)) &
           1u) == 0)
        continue;
      const std::uint64_t a = addr_sample_lane(wp.base + 1, wp.addr_n, lane);
      if (a >= m.depth) continue;
      const std::uint64_t bm = std::uint64_t{1} << (lane % 64);
      for (std::uint32_t b = 0; b < wp.width; ++b) {
        std::uint64_t& word = mem[(a * wp.width + b) * lw_ + lane / 64];
        const std::uint64_t db =
            (wp_samp_[std::size_t{wp.base + 1 + wp.addr_n + b} * lw_ +
                      lane / 64] >>
             (lane % 64)) &
            1u;
        const std::uint64_t nw = (word & ~bm) | (db << (lane % 64));
        if (nw != word) {
          word = nw;
          changed = true;
        }
      }
    }
    if (changed)
      for (const NetId q : memq_cells_[wp.mem])
        level_dirty_[level_of_[q]] = 1;
  }
  fallback_eval();
}

void NativeEngine::step() {
  if (step_fn_ != nullptr)
    (void)step_fn_(values_.data(), mem_ptrs_.data(), level_dirty_.data(),
                   step_scratch_.data());
  else
    fallback_step();
  ++stats_.cycles;
}

void NativeEngine::reset() {
  for (const DffBind& d : dffs_) {
    std::uint64_t* q = &values_[std::size_t{d.q} * lw_];
    for (unsigned w = 0; w < lw_; ++w) q[w] = d.init ? tail_mask_ : 0;
  }
  for (auto& mem : mem_) std::fill(mem.begin(), mem.end(), 0);
  std::fill(level_dirty_.begin(), level_dirty_.end(), 1);
  eval();
}

void NativeEngine::restore_poweron() {
  values_ = poweron_values_;
  for (auto& mem : mem_) std::fill(mem.begin(), mem.end(), 0);
  // The snapshot was taken settled, so the schedule is clean.
  std::fill(level_dirty_.begin(), level_dirty_.end(), 0);
}

const Bus& NativeEngine::find_bus(const std::vector<Bus>& buses,
                                  const std::string& name) const {
  for (const Bus& b : buses)
    if (b.name == name) return b;
  throw std::logic_error("gate::NativeEngine: no bus " + name);
}

void NativeEngine::store_input(NetId id, const std::uint64_t* nv) {
  std::uint64_t* d = &values_[std::size_t{id} * lw_];
  std::uint64_t diff = 0;
  for (unsigned w = 0; w < lw_; ++w) diff |= d[w] ^ nv[w];
  if (diff == 0) return;
  std::copy_n(nv, lw_, d);
  mark_net(id);
}

void NativeEngine::set_input(const std::string& bus, const Bits& value) {
  const Bus& b = find_bus(nl_->inputs(), bus);
  if (value.width() != b.nets.size())
    throw std::logic_error("gate::NativeEngine: input width mismatch on " +
                           bus);
  std::uint64_t nv[kMaxLanes / 64];
  for (std::size_t i = 0; i < b.nets.size(); ++i) {
    std::fill_n(nv, lw_,
                value.bit(static_cast<unsigned>(i)) ? tail_mask_ : 0);
    store_input(b.nets[i], nv);
  }
  eval();
}

void NativeEngine::set_input(const std::string& bus, std::uint64_t value) {
  const Bus& b = find_bus(nl_->inputs(), bus);
  const std::size_t n = b.nets.size();
  if (n < 64 && (value >> n) != 0)
    throw std::logic_error("gate::NativeEngine: value does not fit " +
                           std::to_string(n) + "-bit input bus " + bus);
  std::uint64_t nv[kMaxLanes / 64];
  for (std::size_t i = 0; i < n; ++i) {
    std::fill_n(nv, lw_, i < 64 && ((value >> i) & 1u) != 0 ? tail_mask_ : 0);
    store_input(b.nets[i], nv);
  }
  eval();
}

void NativeEngine::set_input_lanes(const std::string& bus,
                                   std::span<const std::uint64_t> bit_lanes) {
  const Bus& b = find_bus(nl_->inputs(), bus);
  if (bit_lanes.size() != b.nets.size() * std::size_t{lw_})
    throw std::logic_error("gate::NativeEngine: input width mismatch on " +
                           bus);
  std::uint64_t nv[kMaxLanes / 64];
  for (std::size_t i = 0; i < b.nets.size(); ++i) {
    const std::uint64_t* s = bit_lanes.data() + i * lw_;
    for (unsigned w = 0; w < lw_; ++w) nv[w] = s[w] & tail_mask_;
    store_input(b.nets[i], nv);
  }
  eval();
}

void NativeEngine::set_input_values(const std::string& bus,
                                    std::span<const std::uint64_t> values) {
  const Bus& b = find_bus(nl_->inputs(), bus);
  if (b.nets.size() > 64)
    throw std::logic_error(
        "gate::NativeEngine: set_input_values requires a <= 64-bit bus");
  if (values.size() != lanes_)
    throw std::logic_error(
        "gate::NativeEngine: set_input_values needs one value per lane");
  std::uint64_t nv[64 * (kMaxLanes / 64)];
  par::values_to_lane_words(values.data(), 1, lanes_,
                            static_cast<unsigned>(b.nets.size()), nv);
  for (std::size_t i = 0; i < b.nets.size(); ++i)
    store_input(b.nets[i], nv + i * lw_);
  eval();
}

Bits NativeEngine::output(const std::string& bus) const {
  return output_lane(bus, 0);
}

Bits NativeEngine::output_lane(const std::string& bus, unsigned lane) const {
  if (lane >= lanes_)
    throw std::logic_error("gate::NativeEngine: lane out of range");
  const Bus& b = find_bus(nl_->outputs(), bus);
  Bits out(static_cast<unsigned>(b.nets.size()));
  for (std::size_t i = 0; i < b.nets.size(); ++i)
    out.set_bit(static_cast<unsigned>(i),
                ((values_[std::size_t{b.nets[i]} * lw_ + lane / 64] >>
                  (lane % 64)) &
                 1u) != 0);
  return out;
}

std::vector<std::uint64_t> NativeEngine::output_words(
    const std::string& bus) const {
  const Bus& b = find_bus(nl_->outputs(), bus);
  std::vector<std::uint64_t> out(b.nets.size() * lw_);
  for (std::size_t i = 0; i < b.nets.size(); ++i)
    for (unsigned w = 0; w < lw_; ++w)
      out[i * lw_ + w] = values_[std::size_t{b.nets[i]} * lw_ + w];
  return out;
}

std::vector<std::uint64_t> NativeEngine::output_values(
    const std::string& bus) const {
  const Bus& b = find_bus(nl_->outputs(), bus);
  if (b.nets.size() > 64)
    throw std::logic_error(
        "gate::NativeEngine: output_values requires a <= 64-bit bus");
  std::uint64_t words[64 * (kMaxLanes / 64)];
  for (std::size_t i = 0; i < b.nets.size(); ++i)
    std::copy_n(&values_[std::size_t{b.nets[i]} * lw_], lw_, words + i * lw_);
  std::vector<std::uint64_t> out(lanes_);
  par::lane_words_to_values(words, lanes_,
                            static_cast<unsigned>(b.nets.size()), out.data(),
                            1);
  return out;
}

std::uint64_t NativeEngine::net_word(NetId id, unsigned word) const {
  return values_[std::size_t{id} * lw_ + word];
}

Bits NativeEngine::mem_word(unsigned mem, unsigned word,
                            unsigned lane) const {
  const MemMacro& m = nl_->memories().at(mem);
  if (word >= m.depth)
    throw std::out_of_range("gate::NativeEngine: memory word out of range");
  if (lane >= lanes_)
    throw std::logic_error("gate::NativeEngine: lane out of range");
  Bits out(m.width);
  for (unsigned b = 0; b < m.width; ++b)
    out.set_bit(
        b, ((mem_[mem][(std::size_t{word} * m.width + b) * lw_ + lane / 64] >>
             (lane % 64)) &
            1u) != 0);
  return out;
}

void NativeEngine::poke_mem(unsigned mem, unsigned word, const Bits& value) {
  const MemMacro& m = nl_->memories().at(mem);
  if (word >= m.depth)
    throw std::out_of_range("gate::NativeEngine: memory word out of range");
  if (m.width != value.width())
    throw std::logic_error("gate::NativeEngine: poke_mem width mismatch");
  for (unsigned b = 0; b < m.width; ++b) {
    const std::uint64_t nv = value.bit(b) ? tail_mask_ : 0;
    for (unsigned w = 0; w < lw_; ++w)
      mem_[mem][(std::size_t{word} * m.width + b) * lw_ + w] = nv;
  }
  for (const NetId q : memq_cells_.at(mem)) level_dirty_[level_of_[q]] = 1;
  eval();
}

}  // namespace osss::gate
