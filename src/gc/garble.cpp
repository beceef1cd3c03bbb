#include "gc/garble.hpp"

#include <stdexcept>

#include "circuit/optimize.hpp"
#include "gc/streaming_evaluator.hpp"

namespace maxel::gc {

using circuit::Circuit;
using circuit::GateType;
using circuit::kConstOne;
using circuit::kConstZero;
using circuit::Wire;

namespace {

// Every wire the garbler answers label queries about after the round
// (garbler_input_label, evaluator_input_labels, output_map, ...).
std::vector<Wire> protocol_wires(const Circuit& c) {
  std::vector<Wire> held = {kConstZero, kConstOne};
  held.insert(held.end(), c.garbler_inputs.begin(), c.garbler_inputs.end());
  held.insert(held.end(), c.evaluator_inputs.begin(), c.evaluator_inputs.end());
  for (const auto& d : c.dffs) {
    held.push_back(d.q);
    held.push_back(d.d);
  }
  held.insert(held.end(), c.outputs.begin(), c.outputs.end());
  return held;
}

}  // namespace

CircuitGarbler::CircuitGarbler(const Circuit& c, Scheme scheme,
                               crypto::RandomSource& rng)
    : circ_(c),
      scheme_(scheme),
      rng_(rng),
      delta_(crypto::random_delta(rng)),
      gg_(scheme, delta_),
      next_state0_(c.dffs.size(), Block::zero()),
      initial_state_active_(c.dffs.size(), Block::zero()) {
  circuit::SlotPlan plan = circuit::plan_label_slots(c, protocol_wires(c));
  slot_ = std::move(plan.slot_of_wire);
  labels0_.assign(plan.num_slots, Block::zero());
}

RoundTables CircuitGarbler::garble_round() {
  // Fresh labels for constants and inputs every round (sequential GC).
  // The RNG draw order is part of the pinned session format: it must
  // not depend on the slot plan.
  l0(kConstZero) = rng_.next_block();
  l0(kConstOne) = rng_.next_block();
  for (const auto w : circ_.garbler_inputs) l0(w) = rng_.next_block();
  for (const auto w : circ_.evaluator_inputs) l0(w) = rng_.next_block();

  for (std::size_t i = 0; i < circ_.dffs.size(); ++i) {
    const auto& dff = circ_.dffs[i];
    if (round_ == 0) {
      l0(dff.q) = rng_.next_block();
      initial_state_active_[i] =
          dff.init ? l0(dff.q) ^ delta_ : l0(dff.q);
    } else {
      l0(dff.q) = next_state0_[i];
    }
  }

  RoundTables out;
  out.tables.reserve(circ_.and_count());
  for (std::size_t idx = 0; idx < circ_.gates.size(); ++idx) {
    const auto& g = circ_.gates[idx];
    switch (g.type) {
      case GateType::kXor:
        l0(g.out) = l0(g.a) ^ l0(g.b);
        break;
      case GateType::kXnor:
        l0(g.out) = l0(g.a) ^ l0(g.b) ^ delta_;
        break;
      default: {
        GarbledTable t;
        l0(g.out) =
            gg_.garble(circuit::and_form(g.type), l0(g.a), l0(g.b),
                       gate_tweak(static_cast<std::uint32_t>(idx), round_), t);
        out.tables.push_back(t);
        break;
      }
    }
  }

  for (std::size_t i = 0; i < circ_.dffs.size(); ++i)
    next_state0_[i] = l0(circ_.dffs[i].d);
  ++round_;
  return out;
}

RoundMaterial CircuitGarbler::garble_round_material() {
  RoundMaterial m;
  m.tables = garble_round();
  m.garbler_labels0.reserve(circ_.garbler_inputs.size());
  for (std::size_t i = 0; i < circ_.garbler_inputs.size(); ++i)
    m.garbler_labels0.push_back(garbler_input_label(i, false));
  m.evaluator_pairs.reserve(circ_.evaluator_inputs.size());
  for (std::size_t i = 0; i < circ_.evaluator_inputs.size(); ++i)
    m.evaluator_pairs.push_back(evaluator_input_labels(i));
  m.fixed_labels = fixed_wire_labels();
  m.output_map = output_map();
  return m;
}

Block CircuitGarbler::garbler_input_label(std::size_t i, bool v) const {
  const Block label = l0(circ_.garbler_inputs.at(i));
  return v ? label ^ delta_ : label;
}

std::pair<Block, Block> CircuitGarbler::evaluator_input_labels(
    std::size_t i) const {
  const Block label = l0(circ_.evaluator_inputs.at(i));
  return {label, label ^ delta_};
}

std::vector<Block> CircuitGarbler::fixed_wire_labels() const {
  return {l0(kConstZero), l0(kConstOne) ^ delta_};
}

std::vector<Block> CircuitGarbler::initial_state_labels() const {
  if (round_ == 0 && !circ_.dffs.empty())
    throw std::logic_error(
        "initial_state_labels: garble round 0 first (labels are assigned "
        "during garbling)");
  return initial_state_active_;
}

std::vector<bool> CircuitGarbler::output_map() const {
  std::vector<bool> map(circ_.outputs.size());
  for (std::size_t i = 0; i < map.size(); ++i)
    map[i] = l0(circ_.outputs[i]).lsb();
  return map;
}

bool CircuitGarbler::decode_output(std::size_t i, const Block& active) const {
  const Block label = l0(circ_.outputs.at(i));
  if (active == label) return false;
  if (active == (label ^ delta_)) return true;
  throw std::runtime_error("decode_output: label matches neither value");
}

void tables_to_bytes(const RoundTables& t, Scheme s, std::uint8_t* out) {
  const std::size_t rows = rows_per_and(s);
  for (const auto& table : t.tables)
    for (std::size_t r = 0; r < rows; ++r, out += 16) table.ct[r].to_bytes(out);
}

RoundTables tables_from_bytes(const std::uint8_t* data, std::size_t n_tables,
                              Scheme s) {
  const std::size_t rows = rows_per_and(s);
  RoundTables t;
  t.tables.assign(n_tables, GarbledTable{});
  for (auto& table : t.tables)
    for (std::size_t r = 0; r < rows; ++r, data += 16)
      table.ct[r] = Block::from_bytes(data);
  return t;
}

std::vector<bool> decode_with_map(const std::vector<Block>& active,
                                  const std::vector<bool>& map) {
  if (active.size() != map.size())
    throw std::invalid_argument("decode_with_map: arity mismatch");
  std::vector<bool> out(active.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = active[i].lsb() != map[i];
  return out;
}

std::vector<bool> garble_and_evaluate(const Circuit& c, Scheme scheme,
                                      const std::vector<bool>& garbler_bits,
                                      const std::vector<bool>& evaluator_bits,
                                      crypto::RandomSource& rng) {
  CircuitGarbler garbler(c, scheme, rng);
  StreamingEvaluator evaluator(c, scheme);
  const RoundTables tables = garbler.garble_round();

  std::vector<Block> g_labels(garbler_bits.size());
  for (std::size_t i = 0; i < garbler_bits.size(); ++i)
    g_labels[i] = garbler.garbler_input_label(i, garbler_bits[i]);
  std::vector<Block> e_labels(evaluator_bits.size());
  for (std::size_t i = 0; i < evaluator_bits.size(); ++i) {
    const auto [l0, l1] = garbler.evaluator_input_labels(i);
    e_labels[i] = evaluator_bits[i] ? l1 : l0;  // in-process OT shortcut
  }
  evaluator.set_initial_state_labels(garbler.initial_state_labels());
  const auto out_labels = evaluator.eval_round(
      tables, g_labels, e_labels, garbler.fixed_wire_labels());
  return decode_with_map(out_labels, garbler.output_map());
}

}  // namespace maxel::gc
