// codegen.cpp — gate-level NativeEngine: topology build, native dispatch,
// and the interpreted LW-word level sweep.
//
// The sweep is the repo's one gate-level lane interpreter: it runs
// whenever the generated code does not (CodegenOptions::force_fallback,
// OSSS_NO_JIT, no compiler), at any lane count the engine accepts, and
// every observable value is bit-identical to the generated code and,
// lane for lane, to the kEvent oracle of gate::Simulator.

#include "gate/codegen.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>

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
  // A forced fallback that keeps no source never reads it: jit::compile
  // returns before the source is used, so skip the emission.
  const std::string src = opt.force_fallback && opt.keep_source.empty()
                              ? std::string()
                              : emit_netlist_cpp(*nl_, lanes_);
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

void NativeEngine::decode_addresses(const std::uint64_t* words, std::size_t n,
                                    std::uint64_t* addr) const {
  // Only the low 64 address bits reach a row, as in the generated code's
  // `a = (a << 1) | bit` decode.
  n = std::min<std::size_t>(n, 64);
  if (lanes_ == 1) {
    std::uint64_t a = 0;
    for (std::size_t i = n; i-- > 0;) a = (a << 1) | words[i];
    addr[0] = a;
    return;
  }
  par::lane_words_to_values(words, lanes_, static_cast<unsigned>(n), addr, 1);
}

void NativeEngine::decode_read_port(const Cell& c,
                                    std::uint64_t* addr) const {
  std::uint64_t words[64 * (kMaxLanes / 64)];
  const std::size_t n = std::min<std::size_t>(c.ins.size(), 64);
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(&values_[std::size_t{c.ins[i]} * lw_], lw_, words + i * lw_);
  decode_addresses(words, n, addr);
}

void NativeEngine::read_memq(const Cell& c, const std::uint64_t* addr,
                             std::uint64_t* out) const {
  const MemMacro& m = nl_->memories()[c.param];
  // Word w of data bit c.param2 in row a: bit[a * stride + w].
  const std::uint64_t* bit =
      mem_[c.param].data() + std::size_t{c.param2} * lw_;
  const std::size_t stride = std::size_t{m.width} * lw_;
  const unsigned group = std::min(lanes_, 64u);
  for (unsigned w = 0; w < lw_; ++w) {
    const std::uint64_t* a = addr + std::size_t{w} * 64;
    std::uint64_t o = 0;
    for (unsigned l = 0; l < group; ++l)
      if (a[l] < m.depth) o |= ((bit[a[l] * stride + w] >> l) & 1u) << l;
    out[w] = o;
  }
}

namespace {
/// Lane word w of combinational cell `c` (net `id`) over the arena V at
/// `lw` words per net; `mask` is the tail mask.  kMemQ is read elsewhere.
template <class LW>
std::uint64_t cell_word(const Cell& c, NetId id, const std::uint64_t* V,
                        LW lw, unsigned w, std::uint64_t mask) {
  const auto v = [&](std::size_t i) {
    return V[std::size_t{c.ins[i]} * lw + w];
  };
  switch (c.kind) {
    case CellKind::kConst0: return 0;
    case CellKind::kConst1: return mask;
    case CellKind::kInput:
    case CellKind::kDff: return V[std::size_t{id} * lw + w];
    case CellKind::kBuf: return v(0);
    case CellKind::kInv: return ~v(0) & mask;
    case CellKind::kAnd2: return v(0) & v(1);
    case CellKind::kOr2: return v(0) | v(1);
    case CellKind::kNand2: return ~(v(0) & v(1)) & mask;
    case CellKind::kNor2: return ~(v(0) | v(1)) & mask;
    case CellKind::kXor2: return v(0) ^ v(1);
    case CellKind::kXnor2: return ~(v(0) ^ v(1)) & mask;
    case CellKind::kMux2: return (v(0) & v(1)) | (~v(0) & v(2));
    case CellKind::kMemQ: return 0;
  }
  return 0;
}
}  // namespace

template <class LW>
void NativeEngine::sweep(LW lw) {
  // Members read through locals: the dirty marks are char stores, which
  // may alias any member, so the compiler would reload them after each.
  std::uint64_t* const V = values_.data();
  unsigned char* const dirty = level_dirty_.data();
  const std::uint32_t num_levels =
      static_cast<std::uint32_t>(level_dirty_.size());
  const Cell* const cells = nl_->cells().data();
  const std::uint32_t* const lvl_off = level_offset_.data();
  const NetId* const lvl_cells = level_cells_.data();
  const std::uint32_t* const fl_off = flevel_offset_.data();
  const std::uint32_t* const fl = flevels_.data();
  const std::uint64_t mask = tail_mask_;
  std::uint64_t nv[kMaxLanes / 64];
  std::uint64_t addr[kMaxLanes];
  std::uint64_t evaluated = 0, evals = 0;
  for (std::uint32_t lvl = 0; lvl < num_levels; ++lvl) {
    // Most sweeps (an input write that changed nothing, a quiet cycle)
    // find few dirty levels: skip to the next one in one memchr.
    const void* next = std::memchr(dirty + lvl, 1, num_levels - lvl);
    if (next == nullptr) break;
    lvl = static_cast<std::uint32_t>(static_cast<const unsigned char*>(next) -
                                     dirty);
    dirty[lvl] = 0;
    ++evaluated;
    evals += lvl_off[lvl + 1] - lvl_off[lvl];
    // The read cells of one memory port (one per data bit) share its
    // address nets, which sit at lower levels and so hold still while this
    // level runs: decode them once per port and level.
    const std::vector<NetId>* decoded = nullptr;
    for (std::uint32_t i = lvl_off[lvl]; i < lvl_off[lvl + 1]; ++i) {
      const NetId id = lvl_cells[i];
      const Cell& c = cells[id];
      if (c.kind == CellKind::kMemQ) {
        if (decoded == nullptr || *decoded != c.ins) {
          decode_read_port(c, addr);
          decoded = &c.ins;
        }
        read_memq(c, addr, nv);
      } else {
        for (unsigned w = 0; w < lw; ++w)
          nv[w] = cell_word(c, id, V, lw, w, mask);
      }
      std::uint64_t* d = V + std::size_t{id} * lw;
      std::uint64_t diff = 0;
      for (unsigned w = 0; w < lw; ++w) diff |= nv[w] ^ d[w];
      if (diff) {
        for (unsigned w = 0; w < lw; ++w) d[w] = nv[w];
        for (std::uint32_t k = fl_off[id]; k < fl_off[id + 1]; ++k)
          dirty[fl[k]] = 1;
      }
    }
  }
  stats_.levels_evaluated += evaluated;
  stats_.levels_skipped += num_levels - evaluated;
  stats_.gate_evals += evals;
}

void NativeEngine::fallback_eval() {
  if (lw_ == 1)
    sweep(std::integral_constant<unsigned, 1>{});
  else
    sweep(lw_);
}

template <class LW>
void NativeEngine::commit(LW lw) {
  std::uint64_t* const V = values_.data();
  unsigned char* const dirty = level_dirty_.data();
  const std::uint32_t* const fl_off = flevel_offset_.data();
  const std::uint32_t* const fl = flevels_.data();
  // Pre-edge sample of every DFF D pin and write-port net, then commit —
  // same order as Simulator::step() so mixed-port memories match exactly.
  std::uint64_t* const next = dff_next_.data();
  for (std::size_t i = 0; i < dffs_.size(); ++i) {
    const std::uint64_t* d = V + std::size_t{dffs_[i].d} * lw;
    for (unsigned w = 0; w < lw; ++w) next[i * lw + w] = d[w];
  }
  std::uint64_t* const samp = wp_samp_.data();
  for (std::size_t s = 0; s < wp_nets_.size(); ++s) {
    const std::uint64_t* v = V + std::size_t{wp_nets_[s]} * lw;
    for (unsigned w = 0; w < lw; ++w) samp[s * lw + w] = v[w];
  }
  for (std::size_t i = 0; i < dffs_.size(); ++i) {
    const NetId q = dffs_[i].q;
    std::uint64_t* qv = V + std::size_t{q} * lw;
    const std::uint64_t* nd = next + i * lw;
    std::uint64_t diff = 0;
    for (unsigned w = 0; w < lw; ++w) {
      diff |= qv[w] ^ nd[w];
      qv[w] = nd[w];
    }
    if (diff)
      for (std::uint32_t k = fl_off[q]; k < fl_off[q + 1]; ++k)
        dirty[fl[k]] = 1;
  }
  std::uint64_t addr[kMaxLanes];
  for (const WritePortRef& wp : wports_) {
    const std::uint64_t* en = samp + std::size_t{wp.base} * lw;
    std::uint64_t any = 0;
    for (unsigned w = 0; w < lw; ++w) any |= en[w];
    if (any == 0) continue;
    const std::uint64_t* addr_words = en + lw;
    const std::uint64_t* data = addr_words + std::size_t{wp.addr_n} * lw;
    const std::uint64_t depth = nl_->memories()[wp.mem].depth;
    std::uint64_t* mem = mem_[wp.mem].data();
    decode_addresses(addr_words, wp.addr_n, addr);
    bool changed = false;
    for (unsigned lane = 0; lane < lanes_; ++lane) {
      const unsigned w = lane / 64, sh = lane % 64;
      if (((en[w] >> sh) & 1u) == 0 || addr[lane] >= depth) continue;
      std::uint64_t* row = mem + addr[lane] * wp.width * lw + w;
      for (std::uint32_t b = 0; b < wp.width; ++b) {
        std::uint64_t& word = row[std::size_t{b} * lw];
        const std::uint64_t nw = (word & ~(std::uint64_t{1} << sh)) |
                                 (((data[std::size_t{b} * lw + w] >> sh) & 1u)
                                  << sh);
        if (nw != word) {
          word = nw;
          changed = true;
        }
      }
    }
    if (changed)
      for (const NetId q : memq_cells_[wp.mem]) dirty[level_of_[q]] = 1;
  }
}

void NativeEngine::fallback_step() {
  if (lw_ == 1)
    commit(std::integral_constant<unsigned, 1>{});
  else
    commit(lw_);
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
  if (id >= nl_->cells().size() || word >= lw_)
    throw std::out_of_range("gate::NativeEngine: net " + std::to_string(id) +
                            " word " + std::to_string(word) +
                            " out of range");
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
