#include "verify/cosim.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "par/batch.hpp"

namespace osss::verify {

// --- Trace -----------------------------------------------------------------

std::size_t Trace::memory_bytes() const noexcept {
  std::size_t n = sizeof(*this);
  n += inputs.capacity() * sizeof(IoDecl);
  n += cycles.capacity() * sizeof(std::vector<Bits>);
  for (const std::vector<Bits>& row : cycles) {
    n += row.capacity() * sizeof(Bits);
    for (const Bits& v : row) n += ((v.width() + 63) / 64) * 8;
  }
  return n;
}

// --- Model defaults --------------------------------------------------------

void Model::set_input_lanes(const std::string& name,
                            const std::vector<std::uint64_t>& bit_lanes) {
  Bits v(static_cast<unsigned>(bit_lanes.size()));
  for (unsigned i = 0; i < v.width(); ++i)
    v.set_bit(i, (bit_lanes[i] & 1u) != 0);
  set_input(name, v);
}

Bits Model::output_lane(const std::string& name, unsigned) {
  return output(name);
}

std::vector<std::uint64_t> Model::output_words(const std::string& name,
                                               unsigned width) {
  const Bits v = output(name);
  std::vector<std::uint64_t> words(width, 0);
  for (unsigned i = 0; i < width && i < v.width(); ++i)
    words[i] = v.bit(i) ? 1u : 0u;
  return words;
}

// --- InterpModel -----------------------------------------------------------

InterpModel::InterpModel(hls::Behavior beh, std::string name)
    : Model(std::move(name)), beh_(std::move(beh)), interp_(beh_) {}

void InterpModel::enable_fsm_coverage(unsigned transition_count) {
  fsm_ = std::make_unique<FsmCoverage>(beh_.state_count, transition_count);
}

void InterpModel::reset() { interp_.reset(); }

void InterpModel::set_input(const std::string& name, const Bits& value) {
  interp_.set_input(name, value);
}

Bits InterpModel::output(const std::string& name) {
  return interp_.var(name);
}

void InterpModel::step() { interp_.step(); }

void InterpModel::sample_coverage() {
  if (fsm_) fsm_->sample(interp_.current_state());
}

void InterpModel::report_coverage(CoverageReport& r) const {
  if (!fsm_) return;
  r.items.push_back(fsm_->state_item(name()));
  r.items.push_back(fsm_->transition_item(name()));
}

// --- RtlModel --------------------------------------------------------------

RtlModel::RtlModel(rtl::Module m, std::string name)
    : RtlModel(std::move(m), rtl::SimMode::kInterp, 1, std::move(name)) {}

RtlModel::RtlModel(rtl::Module m, rtl::SimMode mode, unsigned lanes,
                   std::string name)
    : Model(name.empty() ? std::string("rtl:") + rtl::sim_mode_name(mode)
                         : std::move(name)),
      sim_(std::move(m), mode, lanes) {}

RtlModel::RtlModel(rtl::Module m, rtl::SimMode mode, unsigned lanes,
                   rtl::tape::CodegenOptions codegen, std::string name)
    : Model(name.empty() ? std::string("rtl:") + rtl::sim_mode_name(mode)
                         : std::move(name)),
      sim_(std::move(m), mode, lanes, std::move(codegen)) {}

rtl::InputHandle RtlModel::in_handle(const std::string& name) {
  const auto it = in_.find(name);
  if (it != in_.end()) return it->second;
  const rtl::InputHandle h = sim_.input_handle(name);
  in_.emplace(name, h);
  return h;
}

rtl::OutputHandle RtlModel::out_handle(const std::string& name) {
  const auto it = out_.find(name);
  if (it != out_.end()) return it->second;
  const rtl::OutputHandle h = sim_.output_handle(name);
  out_.emplace(name, h);
  return h;
}

unsigned RtlModel::lanes() const { return sim_.lanes(); }

void RtlModel::reset() { sim_.reset(); }

void RtlModel::set_input(const std::string& name, const Bits& value) {
  sim_.set_input(in_handle(name), value);
}

void RtlModel::set_input_lanes(const std::string& name,
                               const std::vector<std::uint64_t>& bit_lanes) {
  sim_.set_input_lanes(in_handle(name), bit_lanes);
}

Bits RtlModel::output(const std::string& name) {
  return sim_.output(out_handle(name));
}

Bits RtlModel::output_lane(const std::string& name, unsigned lane) {
  return sim_.output_lane(out_handle(name), lane);
}

std::vector<std::uint64_t> RtlModel::output_words(const std::string& name,
                                                  unsigned) {
  return sim_.output_words(out_handle(name));
}

void RtlModel::step() { sim_.step(); }

// --- GateModel -------------------------------------------------------------

GateModel::GateModel(gate::Netlist nl, gate::SimMode mode, std::string name)
    : Model(name.empty() ? std::string("gate:") + gate::sim_mode_name(mode)
                         : std::move(name)),
      sim_(std::move(nl), mode) {}

GateModel::GateModel(gate::Netlist nl, gate::SimMode mode, unsigned lanes,
                     gate::CodegenOptions codegen, std::string name)
    : Model(name.empty() ? std::string("gate:") + gate::sim_mode_name(mode)
                         : std::move(name)),
      sim_(std::move(nl), mode, lanes, std::move(codegen)) {}

void GateModel::enable_toggle_coverage() {
  toggle_ = std::make_unique<ToggleCoverage>(sim_.netlist());
}

unsigned GateModel::lanes() const { return sim_.lanes(); }

void GateModel::reset() { sim_.reset(); }

void GateModel::set_input(const std::string& name, const Bits& value) {
  sim_.set_input(name, value);
}

void GateModel::set_input_lanes(const std::string& name,
                                const std::vector<std::uint64_t>& bit_lanes) {
  sim_.set_input_lanes(name, bit_lanes);
}

Bits GateModel::output(const std::string& name) { return sim_.output(name); }

Bits GateModel::output_lane(const std::string& name, unsigned lane) {
  return sim_.output_lane(name, lane);
}

std::vector<std::uint64_t> GateModel::output_words(const std::string& name,
                                                   unsigned) {
  return sim_.output_words(name);
}

void GateModel::step() { sim_.step(); }

void GateModel::sample_coverage() {
  if (toggle_) toggle_->sample(sim_);
}

void GateModel::report_coverage(CoverageReport& r) const {
  if (toggle_) r.items.push_back(toggle_->item(name()));
}

// --- ReplicaModel ----------------------------------------------------------

namespace {

unsigned lane_words(unsigned lanes) { return (lanes + 63) / 64; }

}  // namespace

ReplicaModel::ReplicaModel(unsigned lanes, const Factory& make)
    : ReplicaModel(make(), lanes, make) {}

ReplicaModel::ReplicaModel(std::unique_ptr<Model> first, unsigned lanes,
                           const Factory& make)
    : Model(first->name()), bits_(lanes), values_(lanes) {
  if (lanes == 0) throw std::invalid_argument("ReplicaModel: zero lanes");
  copies_.push_back(std::move(first));
  while (copies_.size() < lanes) copies_.push_back(make());
  for (const auto& c : copies_)
    if (c->lanes() != 1)
      throw std::invalid_argument("ReplicaModel: copy '" + c->name() +
                                  "' has more than one lane");
}

unsigned ReplicaModel::lanes() const {
  return static_cast<unsigned>(copies_.size());
}

void ReplicaModel::reset() {
  for (auto& c : copies_) c->reset();
}

void ReplicaModel::set_input(const std::string& name, const Bits& value) {
  for (auto& c : copies_) c->set_input(name, value);
}

void ReplicaModel::set_input_lanes(
    const std::string& name, const std::vector<std::uint64_t>& bit_lanes) {
  const unsigned lw = lane_words(lanes());
  const auto width = static_cast<unsigned>(bit_lanes.size() / lw);
  for (unsigned lo = 0; lo < width; lo += 64) {
    const unsigned n = std::min(64u, width - lo);
    par::lane_words_to_values(bit_lanes.data() + std::size_t{lo} * lw,
                              lanes(), n, values_.data(), 1);
    for (unsigned l = 0; l < lanes(); ++l) {
      if (lo == 0)
        bits_[l] = Bits(width, values_[l]);
      else
        bits_[l].set_range(lo, Bits(n, values_[l]));
    }
  }
  for (unsigned l = 0; l < lanes(); ++l)
    copies_[l]->set_input(name, bits_[l]);
}

Bits ReplicaModel::output(const std::string& name) {
  return copies_.front()->output(name);
}

Bits ReplicaModel::output_lane(const std::string& name, unsigned lane) {
  return copies_.at(lane)->output(name);
}

std::vector<std::uint64_t> ReplicaModel::output_words(const std::string& name,
                                                      unsigned width) {
  const unsigned lw = lane_words(lanes());
  for (unsigned l = 0; l < lanes(); ++l) bits_[l] = copies_[l]->output(name);
  std::vector<std::uint64_t> words(std::size_t{width} * lw);
  for (unsigned lo = 0; lo < width; lo += 64) {
    for (unsigned l = 0; l < lanes(); ++l) values_[l] = bits_[l].word(lo / 64);
    par::values_to_lane_words(values_.data(), 1, lanes(),
                              std::min(64u, width - lo),
                              words.data() + std::size_t{lo} * lw);
  }
  return words;
}

void ReplicaModel::step() {
  for (auto& c : copies_) c->step();
}

void ReplicaModel::sample_coverage() {
  for (auto& c : copies_) c->sample_coverage();
}

void ReplicaModel::report_coverage(CoverageReport& r) const {
  CoverageReport merged;
  for (const auto& c : copies_) {
    CoverageReport one;
    c->report_coverage(one);
    for (CoverageItem& it : one.items) it.model = name();
    merged.merge(one);
  }
  r.items.insert(r.items.end(), merged.items.begin(), merged.items.end());
}

// --- Mismatch --------------------------------------------------------------

std::string Mismatch::describe(const std::vector<IoDecl>& input_decls,
                               bool show_lane) const {
  std::ostringstream os;
  os << "sequence " << sequence << " cycle " << cycle;
  if (show_lane) os << " lane " << lane;
  os << ": output " << output << " = " << ref_value.to_hex_string() << " ("
     << ref_model << ") vs " << dut_value.to_hex_string() << " (" << dut_model
     << ") with ";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string name =
        i < input_decls.size() ? input_decls[i].name : "in" + std::to_string(i);
    os << name << "=" << inputs[i].to_hex_string() << " ";
  }
  return os.str();
}

// --- CoSim -----------------------------------------------------------------

Model& CoSim::add_model(std::unique_ptr<Model> m) {
  models_.push_back(std::move(m));
  return *models_.back();
}

void CoSim::add_input(const std::string& name, unsigned width) {
  inputs_.push_back(IoDecl{name, width});
}

void CoSim::add_output(const std::string& name, unsigned width) {
  outputs_.push_back(IoDecl{name, width});
}

void CoSim::declare_io(const hls::Behavior& beh) {
  for (const hls::InputDecl& in : beh.inputs) add_input(in.name, in.width);
  for (const hls::VarDecl& v : beh.vars)
    if (v.is_output) add_output(v.name, v.width);
}

void CoSim::declare_io(const rtl::Module& m) {
  for (const rtl::PortRef& p : m.inputs())
    add_input(p.name, m.node(p.node).width);
  for (const rtl::PortRef& p : m.outputs())
    add_output(p.name, m.node(p.node).width);
}

void CoSim::declare_io(const gate::Netlist& nl) {
  for (const gate::Bus& b : nl.inputs())
    add_input(b.name, static_cast<unsigned>(b.nets.size()));
  for (const gate::Bus& b : nl.outputs())
    add_output(b.name, static_cast<unsigned>(b.nets.size()));
}

void CoSim::declare_stimulus(StimGen& gen, StimConstraint c) const {
  for (const IoDecl& in : inputs_)
    if (!gen.declared(in.name)) gen.declare(in.name, in.width, c);
}

unsigned CoSim::common_lanes() const {
  const Model& first = *models_.front();
  for (const auto& m : models_)
    if (m->lanes() != first.lanes())
      throw std::invalid_argument(
          "CoSim: model '" + m->name() + "' has " +
          std::to_string(m->lanes()) + " lanes and '" + first.name() +
          "' has " + std::to_string(first.lanes()) +
          " (wrap a scalar model in a ReplicaModel)");
  return first.lanes();
}

void CoSim::reset_models() {
  for (auto& m : models_) m->reset();
}

void CoSim::finish(RunResult& r) const {
  if (!coverage_) return;
  for (const auto& m : models_) m->report_coverage(r.coverage);
}

bool CoSim::score_cycle(RunResult& r, unsigned lanes, unsigned scored,
                        unsigned sequence, std::uint64_t cycle) {
  const unsigned lw = lane_words(lanes);
  Model& ref = *models_.front();
  for (const IoDecl& out : outputs_) {
    const std::vector<std::uint64_t> wr = ref.output_words(out.name, out.width);
    for (std::size_t mi = 1; mi < models_.size(); ++mi) {
      Model& dut = *models_[mi];
      const std::vector<std::uint64_t> wd =
          dut.output_words(out.name, out.width);
      r.checks += scored;
      for (unsigned g = 0; g * 64 < scored; ++g) {
        std::uint64_t diff = 0;
        for (std::size_t i = g; i < wr.size(); i += lw) diff |= wr[i] ^ wd[i];
        if (scored - g * 64 < 64) diff &= (1ull << (scored - g * 64)) - 1;
        if (diff == 0) continue;
        const unsigned lane = g * 64 + std::countr_zero(diff);
        r.mismatch.sequence = sequence;
        r.mismatch.cycle = cycle;
        r.mismatch.lane = lane;
        r.mismatch.output = out.name;
        r.mismatch.ref_model = ref.name();
        r.mismatch.dut_model = dut.name();
        r.mismatch.ref_value = ref.output_lane(out.name, lane);
        r.mismatch.dut_value = dut.output_lane(out.name, lane);
        return false;
      }
    }
  }
  return true;
}

RunResult CoSim::run(StimGen& gen, unsigned cycles, unsigned sequences) {
  if (models_.empty()) throw std::logic_error("CoSim: no models attached");
  RunResult r;
  const unsigned lanes = common_lanes();
  const unsigned lw = lane_words(lanes);

  // Flat per-sequence stimulus recorder: one row of `row_words` lane words
  // per cycle (input bits concatenated in declaration order, `lw` words
  // each), sized once and overwritten every sequence.  `scratch` hands one
  // input's words to the models; it only grows over the first cycle.
  std::vector<std::size_t> offset(inputs_.size(), 0);
  std::size_t row_words = 0;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    offset[i] = row_words;
    row_words += std::size_t{inputs_[i].width} * lw;
  }
  std::vector<std::uint64_t> rec(static_cast<std::size_t>(cycles) * row_words);
  std::vector<std::uint64_t> scratch;

  r.recorder_bytes =
      rec.capacity() * 8 + offset.capacity() * sizeof(std::size_t);

  for (unsigned s = 0; s < sequences; ++s) {
    reset_models();
    for (unsigned c = 0; c < cycles; ++c) {
      std::uint64_t* row = rec.data() + static_cast<std::size_t>(c) * row_words;
      for (std::size_t ii = 0; ii < inputs_.size(); ++ii) {
        const IoDecl& in = inputs_[ii];
        std::uint64_t* words = row + offset[ii];
        gen.next_lanes(in.name, lanes, words);
        scratch.assign(words, words + std::size_t{in.width} * lw);
        for (auto& m : models_) m->set_input_lanes(in.name, scratch);
      }
      if (!score_cycle(r, lanes, lanes, s, c)) {
        // Extract the offending lane's scalar stimulus, including the
        // failing cycle, for shrinking / replay.
        const unsigned lane = r.mismatch.lane;
        r.failing_trace.inputs = inputs_;
        for (unsigned pc = 0; pc <= c; ++pc) {
          const std::uint64_t* prow =
              rec.data() + static_cast<std::size_t>(pc) * row_words;
          std::vector<Bits> values;
          values.reserve(inputs_.size());
          for (std::size_t i = 0; i < inputs_.size(); ++i) {
            Bits v(inputs_[i].width);
            const std::uint64_t* words = prow + offset[i] + lane / 64;
            for (unsigned bi = 0; bi < inputs_[i].width; ++bi)
              v.set_bit(bi, ((words[std::size_t{bi} * lw] >> (lane % 64)) &
                             1u) != 0);
            values.push_back(std::move(v));
          }
          r.failing_trace.cycles.push_back(std::move(values));
        }
        r.mismatch.inputs = r.failing_trace.cycles.back();
        r.recorder_bytes += r.failing_trace.memory_bytes();
        finish(r);
        return r;
      }
      if (coverage_)
        for (auto& m : models_) m->sample_coverage();
      for (auto& m : models_) m->step();
      ++r.cycles;
      r.vectors += lanes;
    }
  }
  r.ok = true;
  finish(r);
  return r;
}

RunResult CoSim::run_trace(const Trace& t) {
  if (models_.empty()) throw std::logic_error("CoSim: no models attached");
  RunResult r;
  const unsigned lanes = common_lanes();
  reset_models();
  for (std::size_t c = 0; c < t.cycles.size(); ++c) {
    const std::vector<Bits>& values = t.cycles[c];
    if (values.size() != inputs_.size())
      throw std::invalid_argument("CoSim: trace input arity mismatch");
    for (std::size_t i = 0; i < inputs_.size(); ++i)
      for (auto& m : models_) m->set_input(inputs_[i].name, values[i]);
    if (!score_cycle(r, lanes, 1, 0, c)) {
      r.mismatch.inputs = values;
      r.failing_trace.inputs = inputs_;
      r.failing_trace.cycles.assign(t.cycles.begin(),
                                    t.cycles.begin() + c + 1);
      finish(r);
      return r;
    }
    if (coverage_)
      for (auto& m : models_) m->sample_coverage();
    for (auto& m : models_) m->step();
    ++r.cycles;
    ++r.vectors;
  }
  r.ok = true;
  finish(r);
  return r;
}

}  // namespace osss::verify
