#include "gc/streaming_evaluator.hpp"

#include <stdexcept>

namespace maxel::gc {

using circuit::Circuit;
using circuit::GateType;
using circuit::kConstOne;
using circuit::kConstZero;
using circuit::Wire;

StreamingEvaluator::StreamingEvaluator(const Circuit& c, Scheme scheme)
    : circ_(c),
      gg_(scheme, Block::zero()),
      plan_(circuit::plan_label_slots(c)),
      slots_(plan_.num_slots, Block::zero()),
      state_(c.dffs.size(), Block::zero()) {}

void StreamingEvaluator::set_initial_state_labels(std::vector<Block> labels) {
  if (labels.size() != circ_.dffs.size())
    throw std::invalid_argument(
        "StreamingEvaluator: state label arity mismatch");
  state_ = std::move(labels);
}

std::vector<Block> StreamingEvaluator::eval_round(
    const RoundTables& tables, const std::vector<Block>& garbler_labels,
    const std::vector<Block>& evaluator_labels,
    const std::vector<Block>& fixed_labels) {
  if (garbler_labels.size() != circ_.garbler_inputs.size() ||
      evaluator_labels.size() != circ_.evaluator_inputs.size() ||
      fixed_labels.size() != 2) {
    throw std::invalid_argument("StreamingEvaluator: label arity mismatch");
  }
  // Raw pointers: the evaluate() calls below would otherwise make every
  // label access reload both vectors' data pointers.
  Block* const slots = slots_.data();
  const std::uint32_t* const slot_of = plan_.slot_of_wire.data();
  const auto at = [&](Wire w) -> Block& { return slots[slot_of[w]]; };

  at(kConstZero) = fixed_labels[0];
  at(kConstOne) = fixed_labels[1];
  for (std::size_t i = 0; i < garbler_labels.size(); ++i)
    at(circ_.garbler_inputs[i]) = garbler_labels[i];
  for (std::size_t i = 0; i < evaluator_labels.size(); ++i)
    at(circ_.evaluator_inputs[i]) = evaluator_labels[i];
  for (std::size_t i = 0; i < circ_.dffs.size(); ++i)
    at(circ_.dffs[i].q) = state_[i];

  std::size_t table_idx = 0;
  for (std::size_t idx = 0; idx < circ_.gates.size(); ++idx) {
    const auto& g = circ_.gates[idx];
    const Block a = at(g.a);
    const Block b = at(g.b);
    Block out;
    if (circuit::is_free(g.type)) {
      out = a ^ b;
    } else {
      if (table_idx >= tables.tables.size())
        throw std::runtime_error("StreamingEvaluator: table underrun");
      out = gg_.evaluate(a, b, tables.tables[table_idx++],
                         gate_tweak(static_cast<std::uint32_t>(idx), round_));
    }
    at(g.out) = out;
  }
  if (table_idx != tables.tables.size())
    throw std::runtime_error("StreamingEvaluator: unconsumed tables");

  for (std::size_t i = 0; i < circ_.dffs.size(); ++i)
    state_[i] = at(circ_.dffs[i].d);
  ++round_;

  std::vector<Block> out(circ_.outputs.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = at(circ_.outputs[i]);
  return out;
}

}  // namespace maxel::gc
