#include "gc/v3.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace maxel::gc {

namespace {

[[noreturn]] void desync(const std::string& what) {
  throw std::runtime_error("v3: " + what);
}

}  // namespace

V3Analysis analyze_v3(const circuit::Circuit& c,
                      const std::vector<bool>& late_garbler_inputs) {
  if (!late_garbler_inputs.empty() &&
      late_garbler_inputs.size() != c.garbler_inputs.size())
    throw std::invalid_argument("analyze_v3: late mask size mismatch");

  V3Analysis an;
  an.late = late_garbler_inputs;
  std::vector<std::uint8_t> known(c.num_wires, 0);
  known[circuit::kConstZero] = kGarblerKnown | kEvaluatorKnown;
  known[circuit::kConstOne] = kGarblerKnown | kEvaluatorKnown;
  for (std::size_t i = 0; i < c.garbler_inputs.size(); ++i)
    if (late_garbler_inputs.empty() || !late_garbler_inputs[i])
      known[c.garbler_inputs[i]] = kGarblerKnown;
  for (const circuit::Wire w : c.evaluator_inputs) known[w] = kEvaluatorKnown;
  // DFF q wires stay unknown to both sides: their labels are carried
  // across rounds and their values depend on both parties' inputs.

  std::vector<GateClass> cls(c.gates.size());
  for (std::size_t i = 0; i < c.gates.size(); ++i) {
    const circuit::Gate& g = c.gates[i];
    const std::uint8_t ka = known[g.a];
    const std::uint8_t kb = known[g.b];
    known[g.out] = ka & kb;
    if (circuit::is_free(g.type)) {
      cls[i] = GateClass::kFree;
      continue;
    }
    if ((ka & kGarblerKnown) && (kb & kGarblerKnown)) {
      cls[i] = GateClass::kKnownOut;
      ++an.n_known_out;
    } else if ((ka & kGarblerKnown) || (kb & kGarblerKnown)) {
      cls[i] = GateClass::kGenHalf;
      ++an.n_gen_half;
    } else if ((ka & kEvaluatorKnown) || (kb & kEvaluatorKnown)) {
      cls[i] = GateClass::kEvalHalf;
      ++an.n_eval_half;
    } else {
      cls[i] = GateClass::kFull;
      ++an.n_full;
    }
  }
  an.garbler_program = compile_gate_program(c, cls, known, kGarblerKnown);
  an.evaluator_program = compile_gate_program(c, cls, known, kEvaluatorKnown);
  an.rows_per_round = an.garbler_program->rows;
  return an;
}

// ---------------------------------------------------------------------------
// Garbler: the round's edges around GateEngine::garble.

V3Garbler::V3Garbler(const circuit::Circuit& c, const V3Analysis& an,
                     const Block& delta, const Block& label_seed,
                     crypto::RandomSource& rng)
    : GateEngine(c, an.garbler_program, Scheme::kHalfGates, delta,
                 label_seed),
      late_(an.late),
      rng_(rng) {
  if (!delta.lsb())
    throw std::invalid_argument("V3Garbler: delta must have lsb 1");
  // Round 0's DFF state is its public init value under a seed label.
  for (std::size_t k = 0; k < c.dffs.size(); ++k)
    state_[k] = c.dffs[k].init ? seed_label(c.dffs[k].q, 0) ^ delta
                               : seed_label(c.dffs[k].q, 0);
}

V3RoundMaterial V3Garbler::garble_round(const std::vector<bool>& garbler_bits) {
  if (garbler_bits.size() != circ_.garbler_inputs.size())
    throw std::invalid_argument("V3Garbler: garbler bit count mismatch");
  V3RoundMaterial out;

  // Constants and bound garbler inputs carry seed labels and known
  // values; late inputs and evaluator inputs draw random labels, in the
  // pinned RNG order.
  label(circuit::kConstZero) = seed_label(circuit::kConstZero, round_);
  label(circuit::kConstOne) = seed_label(circuit::kConstOne, round_) ^ delta();
  value(circuit::kConstZero) = 0;
  value(circuit::kConstOne) = 1;
  for (std::size_t i = 0; i < circ_.garbler_inputs.size(); ++i) {
    const circuit::Wire w = circ_.garbler_inputs[i];
    value(w) = garbler_bits[i] ? 1 : 0;
    if (!late_.empty() && late_[i]) {
      label(w) = rng_.next_block();
      out.late_labels0.push_back(label(w));
    } else {
      label(w) = seed_label(w, round_);
      if (garbler_bits[i]) label(w) ^= delta();
    }
  }
  out.evaluator_pairs.reserve(circ_.evaluator_inputs.size());
  for (const circuit::Wire w : circ_.evaluator_inputs) {
    label(w) = rng_.next_block();
    out.evaluator_pairs.emplace_back(label(w), label(w) ^ delta());
  }
  load_state();

  out.rows.resize(rows());
  garble(out.rows.data());
  out.output_map = output_map();
  finish_round();
  return out;
}

Block V3Garbler::late_input_label(std::size_t i, bool v) const {
  if (late_.empty() || i >= late_.size() || !late_[i])
    throw std::invalid_argument("V3Garbler: input not late-bound");
  const Block l0 = label(circ_.garbler_inputs[i]);
  return v ? l0 ^ delta() : l0;
}

// ---------------------------------------------------------------------------
// Evaluator: the round's edges around GateEngine::evaluate.

V3Evaluator::V3Evaluator(const circuit::Circuit& c, const V3Analysis& an,
                         const Block& label_seed)
    : GateEngine(c, an.evaluator_program, Scheme::kHalfGates, Block::zero(),
                 label_seed),
      outs_(c.outputs.size()) {
  for (std::size_t k = 0; k < c.dffs.size(); ++k)
    state_[k] = seed_label(c.dffs[k].q, 0);
  for (std::size_t i = 0; i < an.late.size(); ++i)
    if (an.late[i]) late_wires_.push_back(c.garbler_inputs[i]);
  std::sort(late_wires_.begin(), late_wires_.end());
  corrected_.resize(late_wires_.size());
}

const std::vector<Block>& V3Evaluator::eval_round(
    const std::vector<Block>& rows, const std::vector<bool>& evaluator_bits,
    const std::vector<Block>& evaluator_labels,
    const std::vector<std::pair<std::uint32_t, Block>>& corrections) {
  if (evaluator_bits.size() != circ_.evaluator_inputs.size() ||
      evaluator_labels.size() != circ_.evaluator_inputs.size())
    desync("evaluator input count mismatch");
  if (rows.size() != this->rows()) desync("row count mismatch");

  label(circuit::kConstZero) = seed_label(circuit::kConstZero, round_);
  label(circuit::kConstOne) = seed_label(circuit::kConstOne, round_);
  value(circuit::kConstZero) = 0;
  value(circuit::kConstOne) = 1;
  for (const circuit::Wire w : circ_.garbler_inputs)
    label(w) = seed_label(w, round_);
  for (std::size_t i = 0; i < circ_.evaluator_inputs.size(); ++i) {
    label(circ_.evaluator_inputs[i]) = evaluator_labels[i];
    value(circ_.evaluator_inputs[i]) = evaluator_bits[i] ? 1 : 0;
  }
  load_state();
  // Late-bound garbler inputs arrive as explicit (wire, active) pairs,
  // each naming a late input exactly once; they replace the seed labels.
  std::fill(corrected_.begin(), corrected_.end(), 0);
  for (const auto& [w, active] : corrections) {
    const auto it = std::lower_bound(late_wires_.begin(), late_wires_.end(), w);
    if (it == late_wires_.end() || *it != w)
      desync("correction names a wire that is not a late-bound input");
    if (corrected_[it - late_wires_.begin()]++ != 0)
      desync("repeated late-input correction");
    label(w) = active;
  }
  if (corrections.size() != late_wires_.size())
    desync("missing late-input correction");

  evaluate(rows.data());
  for (std::size_t i = 0; i < outs_.size(); ++i)
    outs_[i] = label(circ_.outputs[i]);
  finish_round();
  return outs_;
}

}  // namespace maxel::gc
