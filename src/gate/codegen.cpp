// codegen.cpp — gate-level NativeEngine: the Schedule, the engine over the
// shared jit::Runtime, and the interpreted LW-word level sweep.
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

Schedule::Schedule(const Netlist& nl, unsigned lanes_arg)
    : lanes(lanes_arg == 0 ? 64 : lanes_arg) {
  if (lanes != 1 && (lanes % 64 != 0 || lanes > NativeEngine::kMaxLanes))
    throw std::invalid_argument(
        "gate: lanes must be 1 or a multiple of 64 up to " +
        std::to_string(NativeEngine::kMaxLanes));
  lw = lanes == 1 ? 1 : lanes / 64;
  tail_mask = lanes == 1 ? std::uint64_t{1} : ~std::uint64_t{0};
  nl.validate();

  const std::size_t n = nl.cells().size();
  const std::vector<std::uint32_t> level_of = nl.topo_levels();
  std::uint32_t num_levels = 0;
  for (const std::uint32_t l : level_of)
    if (l != kNoLevel) num_levels = std::max(num_levels, l + 1);
  std::vector<std::vector<std::uint32_t>> by_level(num_levels), net_users(n),
      mem_users(nl.memories().size());
  for (NetId id = 0; id < n; ++id) {
    const Cell& c = nl.cells()[id];
    if (level_of[id] != kNoLevel) by_level[level_of[id]].push_back(id);
    if (c.kind == CellKind::kDff) {
      dffs.push_back(id);
      continue;
    }
    if (c.kind == CellKind::kMemQ) mem_users[c.param].push_back(level_of[id]);
    for (const NetId in : c.ins) net_users[in].push_back(level_of[id]);
  }
  jit::to_csr(by_level, level_offset, level_cells);
  jit::to_csr(net_users, net_fl_off, net_fl);
  jit::to_csr(mem_users, mem_fl_off, mem_fl);

  for (std::uint32_t mi = 0; mi < nl.memories().size(); ++mi) {
    const MemMacro& m = nl.memories()[mi];
    for (const auto& w : m.writes) {
      wports.push_back({mi, static_cast<std::uint32_t>(wp_nets.size()),
                        static_cast<std::uint32_t>(w.addr.size()), m.width});
      wp_nets.push_back(w.enable);
      wp_nets.insert(wp_nets.end(), w.addr.begin(), w.addr.end());
      wp_nets.insert(wp_nets.end(), w.data.begin(), w.data.end());
    }
  }
}

NativeEngine::NativeEngine(const Netlist& nl, unsigned lanes,
                           CodegenOptions opt)
    : nl_(&nl),
      plan_(nl, lanes),
      rt_(nl.cells().size() * plan_.lw, plan_.levels()),
      samples_(plan_.scratch_words(), 0) {
  for (const MemMacro& m : nl.memories())
    rt_.add_memory(std::size_t{m.depth} * m.width * plan_.lw);
  std::fill_n(rt_.arena() + std::size_t{nl.const1()} * plan_.lw, plan_.lw,
              plan_.tail_mask);
  rt_.bind([&] { return emit_netlist_cpp(nl, plan_); }, std::move(opt),
           {"osss_gate", 2, plan_.lanes, "nets", nl.cells().size(),
            /*step_settles=*/true});
  reset();
  // Power-on snapshot: inputs are still 0, so restore_poweron() can
  // recycle this engine with one copy.
  settle();
  rt_.take_poweron();
}

NativeEngine::~NativeEngine() = default;

void NativeEngine::settle() const {
  rt_.settle([this] {
    if (plan_.lw == 1)
      sweep(std::integral_constant<unsigned, 1>{});
    else
      sweep(plan_.lw);
  });
}

void NativeEngine::decode_addresses(const std::uint64_t* words, std::size_t n,
                                    std::uint64_t* addr) const {
  // Only the low 64 address bits reach a row, as in the generated code's
  // `a = (a << 1) | bit` decode.
  n = std::min<std::size_t>(n, 64);
  if (plan_.lanes == 1) {
    std::uint64_t a = 0;
    for (std::size_t i = n; i-- > 0;) a = (a << 1) | words[i];
    addr[0] = a;
    return;
  }
  par::lane_words_to_values(words, plan_.lanes, static_cast<unsigned>(n),
                            addr, 1);
}

void NativeEngine::decode_read_port(const Cell& c,
                                    std::uint64_t* addr) const {
  const unsigned lw = plan_.lw;
  std::uint64_t words[64 * (kMaxLanes / 64)];
  const std::size_t n = std::min<std::size_t>(c.ins.size(), 64);
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(rt_.arena() + std::size_t{c.ins[i]} * lw, lw, words + i * lw);
  decode_addresses(words, n, addr);
}

void NativeEngine::read_memq(const Cell& c, const std::uint64_t* addr,
                             std::uint64_t* out) const {
  const MemMacro& m = nl_->memories()[c.param];
  const unsigned lw = plan_.lw;
  // Word w of data bit c.param2 in row a: bit[a * stride + w].
  const std::uint64_t* bit = rt_.mem(c.param) + std::size_t{c.param2} * lw;
  const std::size_t stride = std::size_t{m.width} * lw;
  const unsigned group = std::min(plan_.lanes, 64u);
  for (unsigned w = 0; w < lw; ++w) {
    const std::uint64_t* a = addr + std::size_t{w} * 64;
    std::uint64_t o = 0;
    for (unsigned l = 0; l < group; ++l)
      if (a[l] < m.depth) o |= ((bit[a[l] * stride + w] >> l) & 1u) << l;
    out[w] = o;
  }
}

template <class LW>
void NativeEngine::sweep(LW lw) const {
  // Members read through locals: the dirty marks are char stores, which
  // may alias any member, so the compiler would reload them after each.
  std::uint64_t* const V = rt_.arena();
  unsigned char* const dirty = rt_.dirty();
  const std::uint32_t num_levels = plan_.levels();
  const Cell* const cells = nl_->cells().data();
  const std::uint32_t* const lvl_off = plan_.level_offset.data();
  const NetId* const lvl_cells = plan_.level_cells.data();
  const std::uint32_t* const fl_off = plan_.net_fl_off.data();
  const std::uint32_t* const fl = plan_.net_fl.data();
  const std::uint64_t mask = plan_.tail_mask;
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
          nv[w] = eval_cell(
              c.kind,
              [&](std::size_t k) { return V[std::size_t{c.ins[k]} * lw + w]; },
              mask);
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
  jit::RunStats& st = rt_.stats();
  st.levels_evaluated += evaluated;
  st.levels_skipped += num_levels - evaluated;
  st.evals += evals;
}

template <class LW>
void NativeEngine::commit(LW lw) {
  std::uint64_t* const V = rt_.arena();
  // Pre-edge sample of every DFF D pin and write-port net, then commit —
  // same order as Simulator::step() so mixed-port memories match exactly.
  // The samples sit where the generated step keeps them (Schedule).
  const Cell* const cells = nl_->cells().data();
  const std::vector<NetId>& dffs = plan_.dffs;
  std::uint64_t* const next = samples_.data();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const std::uint64_t* d = V + std::size_t{cells[dffs[i]].ins[0]} * lw;
    for (unsigned w = 0; w < lw; ++w) next[i * lw + w] = d[w];
  }
  std::uint64_t* const samp = next + dffs.size() * lw;
  for (std::size_t s = 0; s < plan_.wp_nets.size(); ++s) {
    const std::uint64_t* v = V + std::size_t{plan_.wp_nets[s]} * lw;
    for (unsigned w = 0; w < lw; ++w) samp[s * lw + w] = v[w];
  }
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    std::uint64_t* qv = V + std::size_t{dffs[i]} * lw;
    const std::uint64_t* nd = next + i * lw;
    std::uint64_t diff = 0;
    for (unsigned w = 0; w < lw; ++w) {
      diff |= qv[w] ^ nd[w];
      qv[w] = nd[w];
    }
    if (diff) rt_.mark(plan_.net_fl_off, plan_.net_fl, dffs[i]);
  }
  const unsigned lanes = plan_.lanes;
  std::uint64_t addr[kMaxLanes];
  for (const Schedule::WritePort& wp : plan_.wports) {
    const std::uint64_t* en = samp + std::size_t{wp.base} * lw;
    std::uint64_t any = 0;
    for (unsigned w = 0; w < lw; ++w) any |= en[w];
    if (any == 0) continue;
    const std::uint64_t* addr_words = en + lw;
    const std::uint64_t* data = addr_words + std::size_t{wp.addr_n} * lw;
    const std::uint64_t depth = nl_->memories()[wp.mem].depth;
    std::uint64_t* mem = rt_.mem(wp.mem);
    decode_addresses(addr_words, wp.addr_n, addr);
    bool changed = false;
    for (unsigned lane = 0; lane < lanes; ++lane) {
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
    if (changed) rt_.mark(plan_.mem_fl_off, plan_.mem_fl, wp.mem);
  }
}

void NativeEngine::step() {
  settle();
  rt_.step([this] {
    if (plan_.lw == 1)
      commit(std::integral_constant<unsigned, 1>{});
    else
      commit(plan_.lw);
  });
}

void NativeEngine::reset() {
  const unsigned lw = plan_.lw;
  for (const NetId q : plan_.dffs)
    std::fill_n(rt_.arena() + std::size_t{q} * lw, lw,
                nl_->cells()[q].init ? plan_.tail_mask : 0);
  rt_.reset();
}

void NativeEngine::restore_poweron() { rt_.restore_poweron(); }

void NativeEngine::store_input(NetId id, const std::uint64_t* nv) {
  const unsigned lw = plan_.lw;
  std::uint64_t* d = rt_.arena() + std::size_t{id} * lw;
  std::uint64_t diff = 0;
  for (unsigned w = 0; w < lw; ++w) diff |= d[w] ^ nv[w];
  if (diff == 0) return;
  std::copy_n(nv, lw, d);
  rt_.mark(plan_.net_fl_off, plan_.net_fl, id);
}

void NativeEngine::set_input(unsigned bus, const Bits& value) {
  const Bus& b = nl_->inputs().at(bus);
  if (value.width() != b.nets.size())
    throw std::logic_error("gate::NativeEngine: input width mismatch on " +
                           b.name);
  std::uint64_t nv[kMaxLanes / 64];
  for (std::size_t i = 0; i < b.nets.size(); ++i) {
    std::fill_n(nv, plan_.lw,
                value.bit(static_cast<unsigned>(i)) ? plan_.tail_mask : 0);
    store_input(b.nets[i], nv);
  }
}

void NativeEngine::set_input(unsigned bus, std::uint64_t value) {
  const Bus& b = nl_->inputs().at(bus);
  const std::size_t n = b.nets.size();
  if (n < 64 && (value >> n) != 0)
    throw std::logic_error("gate::NativeEngine: value does not fit " +
                           std::to_string(n) + "-bit input bus " + b.name);
  std::uint64_t nv[kMaxLanes / 64];
  for (std::size_t i = 0; i < n; ++i) {
    std::fill_n(nv, plan_.lw,
                i < 64 && ((value >> i) & 1u) != 0 ? plan_.tail_mask : 0);
    store_input(b.nets[i], nv);
  }
}

void NativeEngine::set_input_lanes(unsigned bus,
                                   std::span<const std::uint64_t> bit_lanes) {
  const Bus& b = nl_->inputs().at(bus);
  const unsigned lw = plan_.lw;
  if (bit_lanes.size() != b.nets.size() * std::size_t{lw})
    throw std::logic_error("gate::NativeEngine: input width mismatch on " +
                           b.name);
  std::uint64_t nv[kMaxLanes / 64];
  for (std::size_t i = 0; i < b.nets.size(); ++i) {
    const std::uint64_t* s = bit_lanes.data() + i * lw;
    for (unsigned w = 0; w < lw; ++w) nv[w] = s[w] & plan_.tail_mask;
    store_input(b.nets[i], nv);
  }
}

void NativeEngine::set_input_values(unsigned bus,
                                    std::span<const std::uint64_t> values) {
  const Bus& b = nl_->inputs().at(bus);
  if (b.nets.size() > 64)
    throw std::logic_error(
        "gate::NativeEngine: set_input_values requires a <= 64-bit bus");
  if (values.size() != plan_.lanes)
    throw std::logic_error(
        "gate::NativeEngine: set_input_values needs one value per lane");
  std::uint64_t nv[64 * (kMaxLanes / 64)];
  par::values_to_lane_words(values.data(), 1, plan_.lanes,
                            static_cast<unsigned>(b.nets.size()), nv);
  for (std::size_t i = 0; i < b.nets.size(); ++i)
    store_input(b.nets[i], nv + i * plan_.lw);
}

Bits NativeEngine::output_lane(unsigned bus, unsigned lane) const {
  if (lane >= plan_.lanes)
    throw std::logic_error("gate::NativeEngine: lane out of range");
  const Bus& b = nl_->outputs().at(bus);
  settle();
  Bits out(static_cast<unsigned>(b.nets.size()));
  for (std::size_t i = 0; i < b.nets.size(); ++i)
    out.set_bit(static_cast<unsigned>(i),
                ((rt_.arena()[std::size_t{b.nets[i]} * plan_.lw + lane / 64] >>
                  (lane % 64)) &
                 1u) != 0);
  return out;
}

std::vector<std::uint64_t> NativeEngine::output_words(unsigned bus) const {
  const Bus& b = nl_->outputs().at(bus);
  const unsigned lw = plan_.lw;
  settle();
  std::vector<std::uint64_t> out(b.nets.size() * lw);
  for (std::size_t i = 0; i < b.nets.size(); ++i)
    std::copy_n(rt_.arena() + std::size_t{b.nets[i]} * lw, lw,
                out.data() + i * lw);
  return out;
}

std::vector<std::uint64_t> NativeEngine::output_values(unsigned bus) const {
  const Bus& b = nl_->outputs().at(bus);
  if (b.nets.size() > 64)
    throw std::logic_error(
        "gate::NativeEngine: output_values requires a <= 64-bit bus");
  const unsigned lw = plan_.lw;
  settle();
  std::uint64_t words[64 * (kMaxLanes / 64)];
  for (std::size_t i = 0; i < b.nets.size(); ++i)
    std::copy_n(rt_.arena() + std::size_t{b.nets[i]} * lw, lw, words + i * lw);
  std::vector<std::uint64_t> out(plan_.lanes);
  par::lane_words_to_values(words, plan_.lanes,
                            static_cast<unsigned>(b.nets.size()), out.data(),
                            1);
  return out;
}

std::uint64_t NativeEngine::net_word(NetId id, unsigned word) const {
  if (id >= nl_->cells().size() || word >= plan_.lw)
    throw std::out_of_range("gate::NativeEngine: net " + std::to_string(id) +
                            " word " + std::to_string(word) +
                            " out of range");
  settle();
  return rt_.arena()[std::size_t{id} * plan_.lw + word];
}

Bits NativeEngine::mem_word(unsigned mem, unsigned word,
                            unsigned lane) const {
  const MemMacro& m = nl_->memories().at(mem);
  if (word >= m.depth)
    throw std::out_of_range("gate::NativeEngine: memory word out of range");
  if (lane >= plan_.lanes)
    throw std::logic_error("gate::NativeEngine: lane out of range");
  const std::uint64_t* row =
      rt_.mem(mem) + std::size_t{word} * m.width * plan_.lw + lane / 64;
  Bits out(m.width);
  for (unsigned b = 0; b < m.width; ++b)
    out.set_bit(b, ((row[std::size_t{b} * plan_.lw] >> (lane % 64)) & 1u) != 0);
  return out;
}

void NativeEngine::poke_mem(unsigned mem, unsigned word, const Bits& value) {
  const MemMacro& m = nl_->memories().at(mem);
  if (word >= m.depth)
    throw std::out_of_range("gate::NativeEngine: memory word out of range");
  if (m.width != value.width())
    throw std::logic_error("gate::NativeEngine: poke_mem width mismatch");
  std::uint64_t* row = rt_.mem(mem) + std::size_t{word} * m.width * plan_.lw;
  for (unsigned b = 0; b < m.width; ++b)
    std::fill_n(row + std::size_t{b} * plan_.lw, plan_.lw,
                value.bit(b) ? plan_.tail_mask : 0);
  rt_.mark(plan_.mem_fl_off, plan_.mem_fl, mem);
}

}  // namespace osss::gate
