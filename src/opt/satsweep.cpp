#include "opt/satsweep.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "gate/equiv.hpp"
#include "opt/rebuild.hpp"
#include "verify/stimgen.hpp"

namespace osss::opt {

using gate::kInvalidNet;
using gate::MemMacro;

namespace {

/// 64-lane signature rounds per merge sweep (512 patterns).
constexpr unsigned kRounds = 8;
/// Resolution proves a merge exhaustively up to 2^k support assignments.
constexpr unsigned kExhaustiveBits = 14;
/// Random 64-lane resolution rounds for cones wider than that.
constexpr unsigned kResolutionRounds = 96;
/// Sequential trajectory length (cycles, 64 lanes each) sampled for ODC
/// merging.
constexpr unsigned kOdcCycles = 48;
/// ODC merges per sweep.
constexpr unsigned kOdcMaxMerges = 32;
/// Netlists with more cells than this skip the ODC phase (the pair scan
/// stays quadratic in the live-cell count: every narrow-support net is
/// compared against each live representative ranked before it).
constexpr unsigned kOdcMaxCells = 4096;
/// Exhaustive-proof budget for combinational ODC merges: the union free
/// support of every affected observation cone must fit in this many
/// variables for the merge to be *proven* (masked agreement on the
/// trajectory is only the candidate filter, never the proof).
constexpr unsigned kOdcExhaustiveBits = 10;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool is_free_leaf(CellKind k) {
  return k == CellKind::kInput || k == CellKind::kDff ||
         k == CellKind::kMemQ;
}

bool is_source_kind(CellKind k) {
  return k == CellKind::kConst0 || k == CellKind::kConst1 ||
         k == CellKind::kInput || k == CellKind::kDff;
}

/// Canonical 64-lane enumeration tiles: variable v < 6 toggles with period
/// 2^v lanes, so six variables cover all 64 assignments in one word.
constexpr std::uint64_t kTile[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};

/// Union-find whose root is always the member that the rebuild scaffold may
/// use as class representative: sources before combinational cells, then
/// ascending (level, id).
class UnionFind {
 public:
  UnionFind(const Netlist& nl, const std::vector<std::uint32_t>& levels)
      : nl_(nl), levels_(levels), parent_(nl.cells().size()) {
    for (NetId i = 0; i < parent_.size(); ++i) parent_[i] = i;
  }

  NetId find(NetId id) const {
    while (parent_[id] != id) {
      parent_[id] = parent_[parent_[id]];
      id = parent_[id];
    }
    return id;
  }

  /// Merge the classes of a and b; returns false when already one class.
  bool unite(NetId a, NetId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (better(b, a)) std::swap(a, b);
    parent_[b] = a;
    return true;
  }

  /// Strict "a is a better representative than b" in rebuild's order.
  bool better(NetId a, NetId b) const {
    const bool sa = is_source_kind(nl_.cells()[a].kind);
    const bool sb = is_source_kind(nl_.cells()[b].kind);
    if (sa != sb) return sa;
    const std::uint32_t la = sa ? 0 : levels_[a];
    const std::uint32_t lb = sb ? 0 : levels_[b];
    if (la != lb) return la < lb;
    return a < b;
  }

 private:
  const Netlist& nl_;
  const std::vector<std::uint32_t>& levels_;
  mutable std::vector<NetId> parent_;
};

class Sweeper {
 public:
  /// `sample`: accept wide-cone pairs that survive random resolution;
  /// false keeps only proven merges.
  Sweeper(const Netlist& nl, const SatSweepOptions& opt, std::uint64_t seed,
          bool sample = true)
      : nl_(nl),
        opt_(opt),
        seed_(seed),
        sample_(sample),
        levels_(nl.topo_levels()),
        order_(level_order(nl)),
        uf_(nl, levels_),
        cone_val_(nl.cells().size(), 0) {
    cone_val_[1] = ~0ull;
  }

  std::size_t sweep() {
    std::size_t merges = 0;
    // Iterate: a register or memory-port merge can equalize further cones.
    for (unsigned iter = 0; iter < 8; ++iter) {
      std::size_t round = dedup_memq();
      round += dedup_dffs();
      round += const_regs(iter);
      round += merge_comb(iter);
      merges += round;
      if (round == 0) break;
    }
    return merges;
  }

  NetId find(NetId id) const { return uf_.find(id); }

  /// Combinational merges accepted by random resolution, not proven.
  std::size_t sampled() const noexcept { return sampled_; }

  /// SDC phase: re-prove the externally supplied per-bit register constants
  /// by netlist induction, then unite the survivors into the constant-net
  /// classes.  Shares const_regs' core; the value added by the facts is the
  /// random-resolution fallback for cones whose free support exceeds the
  /// exhaustive prover — the RTL-level abstract interpreter already proved
  /// the invariant, so a sampled netlist-level confirmation (plus the
  /// pass-level differential check) carries the name-mapping trust
  /// boundary.  Returns the number of registers merged.
  std::size_t sweep_facts() {
    if (!opt_.facts || opt_.facts->empty()) return 0;
    std::vector<char> cand(nl_.cells().size(), 0);
    std::vector<NetId> regs;
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind != CellKind::kDff || uf_.find(id) != id || c.ins.empty())
        continue;
      const auto it = opt_.facts->find(c.name);
      // A valid invariant always covers the reset state, so a claim that
      // disagrees with the init value is a stale or mismapped fact: drop.
      if (it == opt_.facts->end() || it->second != (c.init != 0)) continue;
      cand[id] = 1;
      regs.push_back(id);
    }
    if (regs.empty()) return 0;
    return merge_const_regs(regs, cand, "factreg/", true);
  }

  /// Sequential phase: a 64-lane trajectory from reset samples the
  /// reachable state space (so reachable-state structure — saturating
  /// counters, one-hot guards, mirrored registers — is in scope, not just
  /// combinational identities).  The trajectory only *nominates*; every
  /// merge is proven:
  ///
  ///   * register equivalences (van Eijk): register pairs with equal init
  ///     that agreed on every sampled cycle are assumed equal as a set —
  ///     the leader substitutes for the follower in every next-state cone —
  ///     and each pair's D cones are then proven equal exhaustively over
  ///     the remaining free support; failures drop out of the assumption
  ///     set and the rest re-prove, to a fixpoint.  Survivors are sound by
  ///     induction from reset.
  ///   * observability merges: nets that differ only where the chain-rule
  ///     mask says nobody is watching are accepted only on an exact proof —
  ///     exhaustive enumeration of the union free support of every affected
  ///     observation cone, comparing each cone with and without the
  ///     replacement.
  ///
  /// The netlist is fully resimulated, and its support bitsets recomputed,
  /// after each comb merge.  Returns the number of merges applied.
  std::size_t sweep_odc() {
    const std::size_t n = nl_.cells().size();
    if (n > kOdcMaxCells) return 0;
    simulate_trajectory();
    std::size_t merges = sweep_seq_regs();
    // A replacement b must be a better representative than a; the ranking
    // is static, so a's candidates are the live reps in a prefix of it.
    std::vector<NetId> rank(n);
    for (NetId id = 0; id < n; ++id) rank[id] = id;
    std::sort(rank.begin(), rank.end(),
              [&](NetId x, NetId y) { return uf_.better(x, y); });
    std::vector<std::size_t> pos(n);
    for (std::size_t i = 0; i < n; ++i) pos[rank[i]] = i;
    const std::size_t cycles = kOdcCycles;
    std::vector<NetId> live, cands;
    while (merges < kOdcMaxMerges) {
      simulate_trajectory();
      compute_support();
      live.clear();
      for (const NetId b : rank)
        if (uf_.find(b) == b && nl_.cells()[b].kind != CellKind::kMemQ)
          live.push_back(b);
      NetId ma = kInvalidNet;
      NetId mb = kInvalidNet;
      for (NetId a = 0; a < n && ma == kInvalidNet; ++a) {
        if (uf_.find(a) != a) continue;
        const CellKind ka = nl_.cells()[a].kind;
        if (is_free_leaf(ka) || is_source_kind(ka)) continue;
        // Every affected observation cone's support is a superset of a's
        // own (the cone runs through a), so a wide-support a can never be
        // proven — skip before the quadratic candidate scan.
        if (width(support_row(a)) > kOdcExhaustiveBits) continue;
        const std::uint64_t* va = odc_val_.data() + a * cycles;
        const std::uint64_t* oa = odc_obs_.data() + a * cycles;
        cands.clear();
        for (const NetId b : live) {
          if (pos[b] >= pos[a]) break;
          const std::uint64_t* vb = odc_val_.data() + b * cycles;
          std::size_t t = 0;
          while (t < cycles && ((va[t] ^ vb[t]) & oa[t]) == 0) ++t;
          if (t == cycles) cands.push_back(b);
        }
        if (cands.empty()) continue;
        std::sort(cands.begin(), cands.end());
        OdcCtx ctx;
        if (!odc_ctx(a, ctx)) continue;
        for (const NetId b : cands)
          if (prove_odc(ctx, a, b)) {
            ma = a;
            mb = b;
            break;
          }
      }
      if (ma == kInvalidNet) break;
      uf_.unite(ma, mb);
      ++merges;
    }
    return merges;
  }

 private:
  const Netlist& nl_;
  const SatSweepOptions& opt_;
  std::uint64_t seed_;
  bool sample_;
  std::size_t sampled_ = 0;
  std::vector<std::uint32_t> levels_;
  std::vector<NetId> order_;
  UnionFind uf_;
  std::vector<std::uint32_t> seen_;  ///< cone_of visit stamps
  std::uint32_t stamp_ = 0;
  /// eval_cone's net-indexed lane words: callers write the free leaves,
  /// eval_cone the cone cells; nets 0/1 hold the constants for good.
  std::vector<std::uint64_t> cone_val_;
  /// Trial substitution overlay for sweep_seq_regs: maps a class rep onto
  /// the register it is assumed equal to.  Empty = inactive.  Applied by
  /// res() after find(), so cone extraction and evaluation see the merged
  /// netlist *plus* the assumption set under test.
  std::vector<NetId> trial_;

  NetId res(NetId id) const {
    id = uf_.find(id);
    return trial_.empty() ? id : trial_[id];
  }

  std::uint64_t init_word(NetId q) const {
    return nl_.cells()[q].init ? ~0ull : 0ull;
  }

  // --- ODC phase state ----------------------------------------------------
  /// Net-major trajectory: entry [id * kOdcCycles + t] is net id's value
  /// (odc_val_) or chain-rule observability mask (odc_obs_) in cycle t.
  std::vector<std::uint64_t> odc_val_;
  std::vector<std::uint64_t> odc_obs_;
  /// Free support of every class rep in the merged graph: one row of
  /// support_words_ words per net, bit i standing for leaves_[i].
  std::vector<NetId> leaves_;  ///< live free-leaf reps, ascending id
  std::size_t support_words_ = 0;
  std::vector<std::uint64_t> support_;

  const std::uint64_t* support_row(NetId id) const {
    return support_.data() + id * support_words_;
  }

  void or_support(std::uint64_t* dst, NetId id) const {
    const std::uint64_t* src = support_row(id);
    for (std::size_t w = 0; w < support_words_; ++w) dst[w] |= src[w];
  }

  std::size_t width(const std::uint64_t* row) const {
    std::size_t bits = 0;
    for (std::size_t w = 0; w < support_words_; ++w)
      bits += static_cast<std::size_t>(std::popcount(row[w]));
    return bits;
  }

  /// One forward pass over the merged graph: a free-leaf rep supports
  /// itself, a kMemQ read cuts its address cone (as cone_of does), and a
  /// combinational rep ORs the rows of its resolved inputs.  order_ stays
  /// topological for the merged graph, since a rep never ranks after the
  /// class members it stands for.
  void compute_support() {
    const std::size_t n = nl_.cells().size();
    leaves_.clear();
    for (NetId id = 0; id < n; ++id)
      if (is_free_leaf(nl_.cells()[id].kind) && uf_.find(id) == id)
        leaves_.push_back(id);
    support_words_ = (leaves_.size() + 63) / 64;
    support_.assign(n * support_words_, 0);
    for (std::size_t i = 0; i < leaves_.size(); ++i)
      support_[leaves_[i] * support_words_ + i / 64] |= 1ull << (i % 64);
    for (const NetId id : order_) {
      const Cell& c = nl_.cells()[id];
      if (uf_.find(id) != id || c.kind == CellKind::kMemQ) continue;
      std::uint64_t* row = support_.data() + id * support_words_;
      for (const NetId in : c.ins) or_support(row, uf_.find(in));
    }
  }

  /// Read one memory bit against explicit contents, with the same per-lane
  /// semantics as gate::NativeEngine::read_memq (the lane interpreter):
  /// lanes whose address is out of range read 0.  Bit-sliced: lane-select
  /// masks per word.
  std::uint64_t memq_eval(const std::vector<std::uint64_t>& mem,
                          const Cell& c,
                          const std::vector<std::uint64_t>& val) const {
    const MemMacro& m = nl_.memories()[c.param];
    std::uint64_t out = 0;
    for (unsigned w = 0; w < m.depth; ++w) {
      std::uint64_t eq = ~0ull;
      for (std::size_t i = 0; i < c.ins.size() && eq; ++i) {
        const std::uint64_t bit = val[uf_.find(c.ins[i])];
        eq &= ((w >> i) & 1u) ? bit : ~bit;
      }
      if (eq) out |= eq & mem[static_cast<std::size_t>(w) * m.width + c.param2];
    }
    return out;
  }

  /// One combinational evaluation over the *merged* view of the netlist:
  /// every cell input resolves through find(), which is exactly the wiring
  /// rebuild will emit.  Free leaves (inputs, DFF state) must already be
  /// set in `val`; kMemQ cells read `mem`.
  void eval_resolved(std::vector<std::uint64_t>& val,
                     const std::vector<std::vector<std::uint64_t>>& mem) const {
    for (const NetId id : order_) {
      if (uf_.find(id) != id) continue;
      const Cell& c = nl_.cells()[id];
      if (c.kind == CellKind::kMemQ) {
        val[id] = memq_eval(mem[c.param], c, val);
        continue;
      }
      val[id] = gate::eval_cell(
          c.kind, [&](std::size_t i) { return val[uf_.find(c.ins[i])]; },
          ~0ull);
    }
  }

  /// The nets whose values define external/sequential behavior: outputs,
  /// DFF D pins, memory write ports.  Resolved through find(); duplicates
  /// are harmless.
  template <typename F>
  void for_each_obs_point(F&& f) const {
    for (const auto& bus : nl_.outputs())
      for (const NetId net : bus.nets) f(uf_.find(net));
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind == CellKind::kDff && uf_.find(id) == id && !c.ins.empty())
        f(uf_.find(c.ins[0]));
    }
    for (const MemMacro& m : nl_.memories())
      for (const auto& wp : m.writes) {
        for (const NetId a : wp.addr) f(uf_.find(a));
        for (const NetId d : wp.data) f(uf_.find(d));
        f(uf_.find(wp.enable));
      }
  }

  /// Chain-rule observability masks of one cycle's values `val`:
  /// observation points are fully observable, and a cell input inherits
  /// (flip-sensitivity AND the cell's own mask) in reverse topological
  /// order.  Reconvergent fanout makes this approximate in both directions,
  /// which is fine: it is only the candidate filter, never the proof.
  void compute_obs(const std::vector<std::uint64_t>& val,
                   std::vector<std::uint64_t>& obs) const {
    obs.assign(nl_.cells().size(), 0);
    for_each_obs_point([&](NetId id) { obs[id] = ~0ull; });
    // Memory read addresses select words: a flip redirects the read, which
    // this pass does not model — treat them as fully observable.
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind != CellKind::kMemQ || uf_.find(id) != id) continue;
      for (const NetId in : c.ins) obs[uf_.find(in)] = ~0ull;
    }
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      const NetId id = *it;
      if (uf_.find(id) != id || obs[id] == 0) continue;
      const Cell& c = nl_.cells()[id];
      if (c.kind == CellKind::kMemQ) continue;  // handled above
      std::uint64_t in[3] = {};
      for (std::size_t i = 0; i < c.ins.size(); ++i)
        in[i] = val[uf_.find(c.ins[i])];
      for (std::size_t j = 0; j < c.ins.size(); ++j) {
        // The lanes where flipping input j flips the cell's output.
        const std::uint64_t sens =
            gate::eval_cell(
                c.kind,
                [&](std::size_t i) { return i == j ? ~in[i] : in[i]; },
                ~0ull) ^
            val[id];
        obs[uf_.find(c.ins[j])] |= sens & obs[id];
      }
    }
  }

  /// Simulate kOdcCycles cycles of the merged netlist from power-on reset
  /// under deterministic random inputs, recording per-cycle values and
  /// observability masks.
  void simulate_trajectory() {
    const std::size_t n = nl_.cells().size();
    const unsigned cycles = kOdcCycles;
    odc_val_.assign(n * cycles, 0);
    odc_obs_.assign(n * cycles, 0);
    const std::uint64_t base = verify::StimGen::derive(seed_, "odc/traj");

    std::vector<std::vector<std::uint64_t>> mem(nl_.memories().size());
    for (std::size_t mi = 0; mi < mem.size(); ++mi) {
      const MemMacro& m = nl_.memories()[mi];
      mem[mi].assign(static_cast<std::size_t>(m.depth) * m.width, 0);
    }
    std::vector<std::uint64_t> state(n, 0);
    for (NetId id = 0; id < n; ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind == CellKind::kDff && uf_.find(id) == id)
        state[id] = init_word(id);
    }

    std::vector<std::uint64_t> val;
    std::vector<std::uint64_t> obs;
    for (unsigned t = 0; t < cycles; ++t) {
      val.assign(n, 0);
      val[1] = ~0ull;
      for (NetId id = 0; id < n; ++id) {
        const Cell& c = nl_.cells()[id];
        if (uf_.find(id) != id) continue;
        if (c.kind == CellKind::kInput) {
          std::uint64_t s = base + 0x6a09e667f3bcc909ull *
                                       (static_cast<std::uint64_t>(id) + 1) +
                            0x3c6ef372fe94f82bull * (t + 1);
          val[id] = splitmix64(s);
        } else if (c.kind == CellKind::kDff) {
          val[id] = state[id];
        }
      }
      eval_resolved(val, mem);
      compute_obs(val, obs);
      for (std::size_t id = 0; id < n; ++id) {
        odc_val_[id * cycles + t] = val[id];
        odc_obs_[id * cycles + t] = obs[id];
      }

      // Commit: write ports in declaration order (later ports win a
      // same-word collision, matching gate::Simulator), then DFF state.
      // Both sample pre-edge values, so ordering between them is moot.
      for (std::size_t mi = 0; mi < mem.size(); ++mi) {
        const MemMacro& m = nl_.memories()[mi];
        for (const auto& wp : m.writes) {
          const std::uint64_t en = val[uf_.find(wp.enable)];
          if (!en) continue;
          for (unsigned w = 0; w < m.depth; ++w) {
            std::uint64_t eq = en;
            for (std::size_t i = 0; i < wp.addr.size() && eq; ++i) {
              const std::uint64_t bit = val[uf_.find(wp.addr[i])];
              eq &= ((w >> i) & 1u) ? bit : ~bit;
            }
            if (!eq) continue;
            for (unsigned b = 0; b < m.width; ++b) {
              std::uint64_t& word =
                  mem[mi][static_cast<std::size_t>(w) * m.width + b];
              word = (word & ~eq) | (val[uf_.find(wp.data[b])] & eq);
            }
          }
        }
      }
      for (NetId id = 0; id < n; ++id) {
        const Cell& c = nl_.cells()[id];
        if (c.kind == CellKind::kDff && uf_.find(id) == id && !c.ins.empty())
          state[id] = val[uf_.find(c.ins[0])];
      }
    }
  }

  /// Van Eijk sequential register equivalence.  Candidate pairs: rep
  /// registers with equal init whose Q values agreed on every sampled
  /// trajectory cycle.  All candidates are assumed equal at once (the
  /// trial substitution maps each follower onto its leader inside every
  /// cone), then each pair's next-state cones must be proven equal
  /// exhaustively over the remaining free support — a pair that cannot be
  /// proven (support too wide, or a real mismatch) is dropped and the
  /// survivors re-prove under the smaller assumption set, to a fixpoint.
  /// Base case (equal init) plus inductive step (equal D under the
  /// assumption, for *all* states and inputs) make the surviving merges
  /// sound from reset, with no reliance on sampling.  The support bitsets
  /// do not model the overlay, so the proofs take support from the cones.
  std::size_t sweep_seq_regs() {
    const std::size_t n = nl_.cells().size();
    const std::size_t cycles = kOdcCycles;
    std::unordered_map<std::uint64_t, std::vector<NetId>> groups;
    for (NetId q = 0; q < n; ++q) {
      const Cell& c = nl_.cells()[q];
      if (c.kind != CellKind::kDff || uf_.find(q) != q || c.ins.empty())
        continue;
      std::uint64_t h = c.init ? 0x9e3779b97f4a7c15ull : 0xcbf29ce484222325ull;
      for (std::size_t t = 0; t < cycles; ++t)
        h = (h ^ odc_val_[q * cycles + t]) * 0x100000001b3ull;
      groups[h].push_back(q);
    }
    std::vector<std::pair<NetId, NetId>> pairs;  // (leader, follower)
    for (auto& [h, members] : groups) {
      if (members.size() < 2) continue;
      std::sort(members.begin(), members.end(),
                [&](NetId x, NetId y) { return uf_.better(x, y); });
      for (std::size_t i = 1; i < members.size(); ++i)
        if (nl_.cells()[members[i]].init == nl_.cells()[members[0]].init)
          pairs.emplace_back(members[0], members[i]);
    }
    if (pairs.empty()) return 0;

    std::vector<char> alive(pairs.size(), 1);
    for (bool changed = true; changed;) {
      changed = false;
      trial_.resize(n);
      for (NetId id = 0; id < n; ++id) trial_[id] = id;
      for (std::size_t i = 0; i < pairs.size(); ++i)
        if (alive[i] != 0) trial_[pairs[i].second] = pairs[i].first;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (alive[i] == 0) continue;
        const NetId d1 = nl_.cells()[pairs[i].first].ins[0];
        const NetId d2 = nl_.cells()[pairs[i].second].ins[0];
        const Cone c1 = cone_of(d1);
        const Cone c2 = cone_of(d2);
        bool ok = c1.ok && c2.ok;
        if (ok) {
          const std::vector<NetId> support = union_support(c1, c2);
          ok = support.size() <= kExhaustiveBits &&
               for_all_assignments(support, [&] {
                 return eval_cone(c1, d1) == eval_cone(c2, d2);
               });
        }
        if (!ok) {
          alive[i] = 0;
          changed = true;
        }
      }
    }
    trial_.clear();
    std::size_t merges = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i)
      if (alive[i] != 0 && uf_.unite(pairs[i].first, pairs[i].second))
        ++merges;
    return merges;
  }

  struct Cone {
    std::vector<NetId> cells;    ///< comb cells, ascending (level, id)
    std::vector<NetId> support;  ///< free-leaf class representatives
    bool ok = true;              ///< false when the cone cap was hit
  };

  /// Per-candidate proof context for observability merges: the observation
  /// points in a's transitive fanout, their cones and the union free
  /// support bitset — all independent of the replacement net b, so built
  /// once per a and reused across the candidate scan.
  struct OdcCtx {
    std::vector<NetId> points;
    std::vector<Cone> cones;
    std::vector<std::uint64_t> support;
  };

  bool odc_ctx(NetId a, OdcCtx& ctx) {
    const std::size_t n = nl_.cells().size();
    std::vector<char> aff(n, 0);
    aff[a] = 1;
    for (const NetId id : order_) {
      if (uf_.find(id) != id || id == a) continue;
      const Cell& c = nl_.cells()[id];
      if (c.kind == CellKind::kMemQ) continue;  // cut: reads are free leaves
      for (const NetId in : c.ins)
        if (aff[uf_.find(in)] != 0) {
          aff[id] = 1;
          break;
        }
    }
    std::vector<char> seen(n, 0);
    const auto add_point = [&](NetId p) {
      if (aff[p] != 0 && seen[p] == 0) {
        seen[p] = 1;
        ctx.points.push_back(p);
      }
    };
    for_each_obs_point(add_point);
    // Memory read addresses redirect reads, which the combinational cut
    // does not model — they must be preserved too.
    for (NetId id = 0; id < n; ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind != CellKind::kMemQ || uf_.find(id) != id) continue;
      for (const NetId in : c.ins) add_point(uf_.find(in));
    }
    if (ctx.points.size() > 64) return false;
    // Reject a too-wide union before extracting any cone.
    ctx.support.assign(support_words_, 0);
    for (const NetId p : ctx.points) or_support(ctx.support.data(), p);
    if (width(ctx.support.data()) > kOdcExhaustiveBits) return false;
    ctx.cones.reserve(ctx.points.size());
    for (const NetId p : ctx.points) {
      ctx.cones.push_back(cone_of(p));
      if (!ctx.cones.back().ok) return false;
    }
    return true;
  }

  /// Observability merge proof: a and b genuinely differ, so the
  /// replacement is legal only if the difference can *never* reach an
  /// observation point — and the chain-rule mask that nominated the pair
  /// is approximate, so this is proven, not sampled.  Enumerate the union
  /// free support of b's cone and every affected observation cone
  /// exhaustively, and require each cone to be bit-identical with and
  /// without a forced to b's value.  DFF D pins and memory ports cut the
  /// fanout traversal, so the proof is combinational and therefore
  /// sequentially sound.
  bool prove_odc(const OdcCtx& ctx, NetId a, NetId b) {
    if (ctx.points.empty()) return true;  // provably unobservable
    std::vector<std::uint64_t> sup = ctx.support;
    or_support(sup.data(), b);
    if (width(sup.data()) > kOdcExhaustiveBits) return false;
    const Cone cb = cone_of(b);
    if (!cb.ok) return false;
    std::vector<NetId> support;  // ascending id, as leaves_ is
    for (std::size_t w = 0; w < support_words_; ++w)
      for (std::uint64_t bits = sup[w]; bits != 0; bits &= bits - 1)
        support.push_back(leaves_[w * 64 + static_cast<std::size_t>(
                                               std::countr_zero(bits))]);
    return for_all_assignments(support, [&] {
      const std::uint64_t bv = eval_cone(cb, b);
      for (std::size_t i = 0; i < ctx.points.size(); ++i)
        if (eval_cone(ctx.cones[i], ctx.points[i]) !=
            eval_cone(ctx.cones[i], ctx.points[i], a, bv))
          return false;
      return true;
    });
  }

  /// Structural dedup of memory read bits: same memory, same data bit and
  /// class-equal address nets read the same value.
  std::size_t dedup_memq() {
    std::unordered_map<std::string, NetId> seen;
    std::size_t merges = 0;
    for (const NetId id : order_) {
      const Cell& c = nl_.cells()[id];
      if (c.kind != CellKind::kMemQ) continue;
      std::string key =
          std::to_string(c.param) + ":" + std::to_string(c.param2);
      for (const NetId in : c.ins) {
        key += ',';
        key += std::to_string(uf_.find(in));
      }
      const auto [it, inserted] = seen.emplace(std::move(key), id);
      if (!inserted && uf_.unite(it->second, id)) ++merges;
    }
    return merges;
  }

  /// Register dedup: class-equal D nets + equal init value => equal Q, by
  /// induction from reset.
  std::size_t dedup_dffs() {
    std::unordered_map<std::uint64_t, NetId> seen;
    std::size_t merges = 0;
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind != CellKind::kDff) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(uf_.find(c.ins.at(0))) << 1) |
          (c.init ? 1u : 0u);
      const auto [it, inserted] = seen.emplace(key, id);
      if (!inserted && uf_.unite(it->second, id)) ++merges;
    }
    return merges;
  }

  /// Sequential constant propagation: a register equals its initial value
  /// forever when its next-state function yields that value whenever every
  /// candidate register holds its initial value — induction from reset.
  /// Every rep register is a candidate; survivors whose free support is
  /// too wide for the exhaustive proof are dropped, never guessed.
  std::size_t const_regs(unsigned iter) {
    std::vector<char> cand(nl_.cells().size(), 0);
    std::vector<NetId> regs;
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind != CellKind::kDff || uf_.find(id) != id || c.ins.empty())
        continue;
      cand[id] = 1;
      regs.push_back(id);
    }
    return merge_const_regs(regs, cand,
                            "constreg/" + std::to_string(iter) + "/", false);
  }

  /// Core of const_regs and sweep_facts.  Candidates (`cand` flags over
  /// `regs`) shrink to a simulation fixpoint — 64-lane rounds seeded from
  /// `round_tag`, candidates pinned at init, a candidate whose D deviates
  /// is out — and then to an induction fixpoint: each survivor's D cone
  /// must yield its init value whenever every survivor holds its own, and
  /// each proof assumes the others, so re-prove until none drops.  The
  /// step is exhaustive over the remaining free support; a wider support
  /// is sampled for kResolutionRounds when `sample_wide`, else dropped.
  /// Survivors unite into the constant-net classes; returns how many.
  std::size_t merge_const_regs(const std::vector<NetId>& regs,
                               std::vector<char>& cand,
                               const std::string& round_tag,
                               bool sample_wide) {
    // Every pass either removes a candidate or reaches the fixpoint, so
    // the loop terminates.
    std::vector<std::uint64_t> val;
    for (bool changed = true; changed;) {
      changed = false;
      for (unsigned r = 0; r < 4; ++r) {
        simulate_round(
            val, verify::StimGen::derive(seed_, round_tag + std::to_string(r)),
            &cand);
        for (const NetId q : regs)
          if (cand[q] != 0 && val[nl_.cells()[q].ins[0]] != init_word(q)) {
            cand[q] = 0;
            changed = true;
          }
      }
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (const NetId q : regs)
        if (cand[q] != 0 && !holds_at_init(q, cand, sample_wide)) {
          cand[q] = 0;
          changed = true;
        }
    }
    std::size_t merges = 0;
    for (const NetId q : regs)
      if (cand[q] != 0 && uf_.unite(q, nl_.cells()[q].init ? 1 : 0)) ++merges;
    return merges;
  }

  /// Induction step of merge_const_regs for register q.
  bool holds_at_init(NetId q, const std::vector<char>& cand,
                     bool sample_wide) {
    const NetId d = nl_.cells()[q].ins[0];
    const std::uint64_t want = init_word(q);
    const Cone cone = cone_of(d);
    if (!cone.ok) return false;
    std::vector<NetId> free_vars;
    for (const NetId s : cone.support) {
      if (cand[s] != 0)
        cone_val_[s] = init_word(s);
      else
        free_vars.push_back(s);
    }
    const auto holds = [&] { return eval_cone(cone, d) == want; };
    if (free_vars.size() <= kExhaustiveBits)
      return for_all_assignments(free_vars, holds);
    if (!sample_wide) return false;
    for (unsigned r = 0; r < kResolutionRounds; ++r) {
      std::uint64_t s = verify::StimGen::derive(
          seed_, "factres/" + std::to_string(q) + "/" + std::to_string(r));
      for (const NetId v : free_vars) cone_val_[v] = splitmix64(s);
      if (!holds()) return false;
    }
    return true;
  }

  /// Random value of a free leaf's class this round (one stream per class,
  /// so merged registers agree).  Registers flagged in `pinned` are held at
  /// their initial value instead (sequential constant candidates).
  void assign_free(std::vector<std::uint64_t>& val, std::uint64_t round_seed,
                   const std::vector<char>* pinned = nullptr) {
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (!is_free_leaf(c.kind)) continue;
      const NetId rep = uf_.find(id);
      if (rep == id) {
        if (pinned != nullptr && (*pinned)[id] != 0) {
          val[id] = init_word(id);
          continue;
        }
        std::uint64_t s = round_seed + 0x6a09e667f3bcc909ull *
                                           (static_cast<std::uint64_t>(id) + 1);
        val[id] = splitmix64(s);
      }
    }
    for (NetId id = 0; id < nl_.cells().size(); ++id)
      if (is_free_leaf(nl_.cells()[id].kind)) val[id] = val[uf_.find(id)];
  }

  /// Simulate one 64-lane round over the whole netlist.
  void simulate_round(std::vector<std::uint64_t>& val,
                      std::uint64_t round_seed,
                      const std::vector<char>* pinned = nullptr) {
    val.assign(nl_.cells().size(), 0);
    val[1] = ~0ull;
    assign_free(val, round_seed, pinned);
    for (const NetId id : order_) {
      const Cell& c = nl_.cells()[id];
      if (c.kind == CellKind::kMemQ) continue;  // free leaf, assigned above
      val[id] = gate::eval_cell(
          c.kind, [&](std::size_t i) { return val[c.ins[i]]; }, ~0ull);
    }
  }

  Cone cone_of(NetId root) {
    constexpr std::size_t kConeCap = 4096;
    Cone cone;
    if (seen_.size() != nl_.cells().size())
      seen_.assign(nl_.cells().size(), 0);
    ++stamp_;
    std::vector<NetId> stack;
    const auto visit = [&](NetId id) {
      if (seen_[id] == stamp_) return;
      seen_[id] = stamp_;
      stack.push_back(id);
    };
    visit(res(root));
    while (!stack.empty()) {
      const NetId id = stack.back();
      stack.pop_back();
      const Cell& c = nl_.cells()[id];
      if (c.kind == CellKind::kConst0 || c.kind == CellKind::kConst1) continue;
      if (is_free_leaf(c.kind)) {
        cone.support.push_back(id);
        continue;
      }
      cone.cells.push_back(id);
      if (cone.cells.size() > kConeCap) {
        cone.ok = false;
        return cone;
      }
      for (const NetId in : c.ins) visit(res(in));
    }
    std::sort(cone.cells.begin(), cone.cells.end(), [&](NetId a, NetId b) {
      if (levels_[a] != levels_[b]) return levels_[a] < levels_[b];
      return a < b;
    });
    std::sort(cone.support.begin(), cone.support.end());
    return cone;
  }

  static std::vector<NetId> union_support(const Cone& x, const Cone& y) {
    std::vector<NetId> out;
    std::set_union(x.support.begin(), x.support.end(), y.support.begin(),
                   y.support.end(), std::back_inserter(out));
    return out;
  }

  /// Evaluate one cone over cone_val_, whose free-leaf entries the caller
  /// has set.  Cells run in (level, id) order, so each is written before
  /// any read and no clearing is needed between calls.  `forced` (when
  /// != kInvalidNet) is held at `forced_val` instead of being recomputed —
  /// the replacement under test in prove_odc.
  std::uint64_t eval_cone(const Cone& cone, NetId root,
                          NetId forced = kInvalidNet,
                          std::uint64_t forced_val = 0) {
    for (const NetId id : cone.cells) {
      if (id == forced) {
        cone_val_[id] = forced_val;
        continue;
      }
      const Cell& c = nl_.cells()[id];
      cone_val_[id] = gate::eval_cell(
          c.kind, [&](std::size_t i) { return cone_val_[res(c.ins[i])]; },
          ~0ull);
    }
    return cone_val_[res(root)];
  }

  /// Exhaustive proof driver: enumerate all 2^k assignments of `vars` in
  /// 64-lane blocks — vars 0..5 take the canonical tiles, vars >= 6 sweep
  /// over the block-index bits — writing each block into cone_val_, and
  /// return false at the first block `holds()` rejects.
  template <typename F>
  bool for_all_assignments(const std::vector<NetId>& vars, F&& holds) {
    const std::size_t k = vars.size();
    for (std::size_t v = 0; v < k && v < 6; ++v) cone_val_[vars[v]] = kTile[v];
    const std::size_t blocks = k > 6 ? (std::size_t{1} << (k - 6)) : 1;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      for (std::size_t v = 6; v < k; ++v)
        cone_val_[vars[v]] = ((blk >> (v - 6)) & 1u) ? ~0ull : 0ull;
      if (!holds()) return false;
    }
    return true;
  }

  /// Resolve a signature-collision pair: exhaustive proof when the union
  /// support is small enough, random resolution otherwise.
  bool resolve(NetId a, NetId b, unsigned iter) {
    const Cone ca = cone_of(a);
    const Cone cb = cone_of(b);
    if (!ca.ok || !cb.ok) return false;
    const std::vector<NetId> support = union_support(ca, cb);
    const auto same = [&] { return eval_cone(ca, a) == eval_cone(cb, b); };
    if (support.size() <= kExhaustiveBits)
      return for_all_assignments(support, same);  // proven
    if (!sample_) return false;
    // Random resolution over the union support only.
    for (unsigned r = 0; r < kResolutionRounds; ++r) {
      std::uint64_t s = verify::StimGen::derive(
          seed_, "resolve/" + std::to_string(iter) + "/" + std::to_string(r) +
                     "/" + std::to_string(a) + "/" + std::to_string(b));
      for (const NetId v : support) cone_val_[v] = splitmix64(s);
      if (!same()) return false;
    }
    ++sampled_;  // accepted, verified by SatSweepPass::run
    return true;
  }

  /// One signature/merge sweep over combinational nets.
  std::size_t merge_comb(unsigned iter) {
    std::vector<std::vector<std::uint64_t>> sig(
        nl_.cells().size(), std::vector<std::uint64_t>());
    std::vector<std::uint64_t> val;
    for (unsigned r = 0; r < kRounds; ++r) {
      simulate_round(val, verify::StimGen::derive(
                              seed_, "round/" + std::to_string(iter) + "/" +
                                         std::to_string(r)));
      for (NetId id = 0; id < nl_.cells().size(); ++id)
        if (uf_.find(id) == id) sig[id].push_back(val[id]);
    }

    // Group class representatives by full signature.
    std::unordered_map<std::uint64_t, std::vector<NetId>> groups;
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      if (uf_.find(id) != id) continue;
      const CellKind kind = nl_.cells()[id].kind;
      const bool comb = levels_[id] != gate::kNoLevel;
      const bool constant =
          kind == CellKind::kConst0 || kind == CellKind::kConst1;
      if (!comb && !constant && !is_free_leaf(kind)) continue;
      std::uint64_t h = 0xcbf29ce484222325ull;
      if (constant) {
        for (unsigned r = 0; r < kRounds; ++r)
          h = (h ^ (kind == CellKind::kConst1 ? ~0ull : 0ull)) *
              0x100000001b3ull;
      } else {
        for (const std::uint64_t w : sig[id]) h = (h ^ w) * 0x100000001b3ull;
      }
      groups[h].push_back(id);
    }

    std::size_t merges = 0;
    for (auto& [h, members] : groups) {
      if (members.size() < 2) continue;
      std::sort(members.begin(), members.end(),
                [&](NetId x, NetId y) { return uf_.better(x, y); });
      const NetId rep = members.front();
      for (std::size_t i = 1; i < members.size(); ++i) {
        const NetId cand = members[i];
        if (uf_.find(cand) == uf_.find(rep)) continue;
        // Only merge pairs with at least one combinational side; two free
        // leaves with colliding signatures are distinct variables (the
        // exhaustive check below would reject them anyway).
        if (is_free_leaf(nl_.cells()[rep].kind) &&
            is_free_leaf(nl_.cells()[cand].kind))
          continue;
        if (resolve(rep, cand, iter) && uf_.unite(rep, cand)) ++merges;
      }
    }
    return merges;
  }
};

}  // namespace

gate::Netlist SatSweepPass::run(const gate::Netlist& in,
                                PassStats& stats) const {
  const std::uint64_t seed =
      verify::StimGen::derive(0x5a77, "satsweep/" + in.name());
  Sweeper sweeper(in, opt_, seed);
  const std::size_t fact_merges = sweeper.sweep_facts();
  std::size_t classic_merges = sweeper.sweep();
  const std::size_t odc_merges = sweeper.sweep_odc();
  // A register equivalence proven by the sequential phase can equalize
  // further combinational cones — give the classic sweep one more look.
  if (odc_merges != 0) classic_merges += sweeper.sweep();
  RebuildHooks hooks;
  hooks.replace = [&](NetId id) { return sweeper.find(id); };
  gate::Netlist out = rebuild(in, hooks);

  if (fact_merges + odc_merges + sweeper.sampled() != 0) {
    // Facts, ODC merges and random resolution are sampled (trajectory /
    // resolution rounds), so every run that applied one is differentially
    // verified here, on 64 lanes — even when the pipeline-level self-check
    // is off — and falls back to proven merges only if the check
    // disagrees.  The pass never throws on a speculative merge gone wrong;
    // it just forgoes it.
    gate::EquivOptions eopt;
    eopt.sequences = 2;
    eopt.cycles = 64;
    eopt.seed = verify::StimGen::derive(seed, "verify");
    eopt.mode_a = gate::SimMode::kNative;
    eopt.mode_b = gate::SimMode::kNative;
    eopt.codegen.force_fallback = true;
    if (!gate::check_equivalence(in, out, eopt)) {
      Sweeper proven(in, opt_, seed, /*sample=*/false);
      stats.changes += proven.sweep();
      RebuildHooks fallback;
      fallback.replace = [&](NetId id) { return proven.find(id); };
      return rebuild(in, fallback);
    }
  }
  stats.changes += fact_merges + classic_merges + odc_merges;
  stats.fact_merges += fact_merges;
  stats.odc_merges += odc_merges;
  return out;
}

}  // namespace osss::opt
