#include "gc/garble.hpp"

#include <stdexcept>

#include "gc/streaming_evaluator.hpp"

namespace maxel::gc {

using circuit::Circuit;
using circuit::GateType;
using circuit::kConstOne;
using circuit::kConstZero;
using circuit::Wire;

namespace {

// Row access of the engine's loops: v2 moves whole tables (a half gate,
// which no v2 class table has, would take a table's first row), v3 one
// flat stream of half-gates rows.
void put(GarbledTable*& out, const GarbledTable& t) { *out++ = t; }
void put(GarbledTable*& out, const Block& row) { (out++)->ct[0] = row; }
void put(Block*& out, const GarbledTable& t) {
  *out++ = t.ct[0];
  *out++ = t.ct[1];
}
void put(Block*& out, const Block& row) { *out++ = row; }
const GarbledTable& take(const GarbledTable*& in, GarbledTable&) {
  return *in++;
}
const GarbledTable& take(const Block*& in, GarbledTable& t) {
  t.ct[0] = in[0];
  t.ct[1] = in[1];
  in += 2;
  return t;
}
Block take_row(const GarbledTable*& in) { return (in++)->ct[0]; }
Block take_row(const Block*& in) { return *in++; }

constexpr std::uint8_t kClassMask = 7;
constexpr std::uint8_t kSwap = 8;
constexpr std::uint8_t kTrack = 16;

// Every wire the garbler answers label queries about after the round.
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

std::shared_ptr<const GateProgram> compile_gate_program(
    const Circuit& c, const std::vector<GateClass>& cls,
    const std::vector<std::uint8_t>& known, std::uint8_t side) {
  if (cls.empty() ? !known.empty()
                  : cls.size() != c.gates.size() || known.size() != c.num_wires)
    throw std::invalid_argument("GateProgram: class table/circuit mismatch");
  auto prog = std::make_shared<GateProgram>();
  prog->plan = circuit::plan_label_slots(
      c, side == kGarblerKnown ? protocol_wires(c) : std::vector<Wire>{});
  prog->values = !cls.empty();
  prog->ops.reserve(c.gates.size());
  for (std::size_t i = 0; i < c.gates.size(); ++i) {
    const circuit::Gate& g = c.gates[i];
    const bool free = circuit::is_free(g.type);
    const GateClass k =
        !cls.empty() ? cls[i] : free ? GateClass::kFree : GateClass::kFull;
    const bool half = k == GateClass::kGenHalf || k == GateClass::kEvalHalf;
    if ((k == GateClass::kFree) != free ||
        prog->plan.slot_of_wire[g.a] == circuit::SlotPlan::kNoSlot ||
        prog->plan.slot_of_wire[g.b] == circuit::SlotPlan::kNoSlot)
      throw std::invalid_argument("GateProgram: malformed gate");
    const std::uint8_t half_side =
        k == GateClass::kGenHalf ? kGarblerKnown : kEvaluatorKnown;
    auto op = static_cast<std::uint8_t>(k);
    if (half && (known[g.a] & half_side) == 0) op |= kSwap;
    if (!cls.empty() && (known[g.out] & side) != 0) op |= kTrack;
    prog->ops.push_back(op);
    prog->tables += k == GateClass::kFull || half ? 1 : 0;
    prog->rows += k == GateClass::kFull ? 2 : half ? 1 : 0;
  }
  return prog;
}

GateEngine::GateEngine(const Circuit& c,
                       std::shared_ptr<const GateProgram> prog, Scheme scheme,
                       const Block& delta, const Block& label_seed)
    : circ_(c),
      prog_(std::move(prog)),
      gg_(scheme, delta),
      label_seed_(label_seed) {
  if (!prog_ || prog_->ops.size() != c.gates.size() ||
      prog_->plan.slot_of_wire.size() != c.num_wires)
    throw std::invalid_argument("GateEngine: no program for this circuit");
  labels_.assign(prog_->plan.num_slots, Block::zero());
  values_.assign(prog_->values ? prog_->plan.num_slots : 0, 0);
  state_.assign(c.dffs.size(), Block::zero());
}

// The one garbling loop. The v3 classes are garbled in garble_v3: kept
// out of this loop, they leave it as fast as the v2 loop it replaced.
template <class Row>
void GateEngine::garble(Row* out) {
  // Raw pointers and locals: the value-byte stores below may alias any
  // member, which would make every access reload it.
  const circuit::Gate* const gates = circ_.gates.data();
  const std::uint8_t* const ops = prog_->ops.data();
  const std::uint32_t* const slot = prog_->plan.slot_of_wire.data();
  Block* const s = labels_.data();
  std::uint8_t* const v = values_.data();
  const std::size_t n = prog_->ops.size();
  const std::uint64_t round = round_;
  const Block delta = gg_.delta();
  for (std::size_t gi = 0; gi < n; ++gi) {
    const circuit::Gate& g = gates[gi];
    const std::uint8_t op = ops[gi];
    const std::uint32_t a = slot[g.a];
    const std::uint32_t b = slot[g.b];
    Block o;
    switch (static_cast<GateClass>(op & kClassMask)) {
      case GateClass::kFree:
        o = s[a] ^ s[b];
        if (g.type == GateType::kXnor) o ^= delta;
        break;
      case GateClass::kFull: {
        GarbledTable tab;
        o = gg_.garble(circuit::and_form(g.type), s[a], s[b],
                       gate_tweak(static_cast<std::uint32_t>(gi), round), tab);
        put(out, tab);
        break;
      }
      default: o = garble_v3(gi, op, a, b, out); break;
    }
    // Operands are read before the output is written: the planner may
    // give a gate's output its operand's slot.
    if ((op & kTrack) != 0)
      v[slot[g.out]] = circuit::eval_gate(g.type, v[a] != 0, v[b] != 0);
    s[slot[g.out]] = o;
  }
}

// Garbles one kKnownOut or half gate whose operands sit in slots a and b.
template <class Row>
Block GateEngine::garble_v3(std::size_t gi, std::uint8_t op, std::uint32_t a,
                            std::uint32_t b, Row*& out) {
  const circuit::Gate& g = circ_.gates[gi];
  const Block delta = gg_.delta();
  if ((op & kClassMask) == static_cast<std::uint8_t>(GateClass::kKnownOut)) {
    const Block o = seed_label(g.out, round_);
    return circuit::eval_gate(g.type, values_[a] != 0, values_[b] != 0)
               ? o ^ delta
               : o;
  }
  const bool swap = (op & kSwap) != 0;
  const Block k = labels_[swap ? b : a];  // the known operand
  const Block u = labels_[swap ? a : b];
  circuit::AndForm f = circuit::and_form(g.type);
  if (swap) std::swap(f.alpha, f.beta);
  // Both half gates hash a label pair {x, x ^ delta}: the unknown
  // operand's (generator half) or the known operand's (evaluator half),
  // from the label of the known value alpha that zeroes the AND factor.
  const bool gen = (op & kClassMask) ==
                   static_cast<std::uint8_t>(GateClass::kGenHalf);
  const Block x = gen ? u : f.alpha ? k ^ delta : k;
  const Block t = gate_tweak(static_cast<std::uint32_t>(gi), round_);
  const Block xs[2] = {x, x ^ delta};
  const Block ts[2] = {t, t};
  Block h[2];
  hash_.hash_batch(xs, ts, h, 2);
  Block o;
  Block row;
  if (gen) {
    // The gate as a function of the unknown operand's value y:
    // f(y) = ((vk^alpha) & (y^beta)) ^ gamma.
    const bool on = (values_[swap ? b : a] != 0) != f.alpha;
    const bool f0 = (on && f.beta) != f.gamma;
    const bool f1 = (on && !f.beta) != f.gamma;
    row = f0 != f1 ? h[0] ^ h[1] ^ delta : h[0] ^ h[1];
    o = f0 ? h[0] ^ delta : h[0];
    if (u.lsb()) o ^= row;
  } else {
    o = f.gamma ? h[0] ^ delta : h[0];
    row = f.beta != f.gamma ? h[1] ^ u ^ o ^ delta : h[1] ^ u ^ o;
  }
  put(out, row);
  return o;
}

// The one evaluation loop.
template <class Row>
void GateEngine::evaluate(const Row* in) {
  const circuit::Gate* const gates = circ_.gates.data();
  const std::uint8_t* const ops = prog_->ops.data();
  const std::uint32_t* const slot = prog_->plan.slot_of_wire.data();
  Block* const s = labels_.data();
  std::uint8_t* const v = values_.data();
  const std::size_t n = prog_->ops.size();
  const std::uint64_t round = round_;
  GarbledTable tab;
  for (std::size_t gi = 0; gi < n; ++gi) {
    const circuit::Gate& g = gates[gi];
    const std::uint8_t op = ops[gi];
    const bool swap = (op & kSwap) != 0;
    const std::uint32_t a = slot[g.a];
    const std::uint32_t b = slot[g.b];
    const std::uint32_t k = swap ? b : a;  // a half gate's known operand
    const std::uint32_t u = swap ? a : b;
    const Block t = gate_tweak(static_cast<std::uint32_t>(gi), round);
    Block o;
    switch (static_cast<GateClass>(op & kClassMask)) {
      case GateClass::kFree: o = s[a] ^ s[b]; break;
      case GateClass::kFull:
        o = gg_.evaluate(s[a], s[b], take(in, tab), t);
        break;
      case GateClass::kKnownOut: o = seed_label(g.out, round); break;
      case GateClass::kGenHalf: {
        const Block row = take_row(in);
        o = hash_(s[u], t);
        if (s[u].lsb()) o ^= row;
        break;
      }
      case GateClass::kEvalHalf: {
        // The known value alpha zeroes the AND factor.
        const circuit::AndForm f = circuit::and_form(g.type);
        const Block row = take_row(in);
        o = hash_(s[k], t);
        if ((v[k] != 0) != (swap ? f.beta : f.alpha)) o ^= row ^ s[u];
        break;
      }
    }
    if ((op & kTrack) != 0)
      v[slot[g.out]] = circuit::eval_gate(g.type, v[a] != 0, v[b] != 0);
    s[slot[g.out]] = o;
  }
}

template void GateEngine::garble(GarbledTable*);
template void GateEngine::garble(Block*);
template void GateEngine::evaluate(const GarbledTable*);
template void GateEngine::evaluate(const Block*);

void GateEngine::load_state() {
  for (std::size_t k = 0; k < circ_.dffs.size(); ++k)
    label(circ_.dffs[k].q) = state_[k];
}

void GateEngine::finish_round() {
  for (std::size_t k = 0; k < circ_.dffs.size(); ++k)
    state_[k] = label(circ_.dffs[k].d);
  ++round_;
}

CircuitGarbler::CircuitGarbler(const Circuit& c, Scheme scheme,
                               crypto::RandomSource& rng)
    : GateEngine(c, compile_gate_program(c, {}, {}, kGarblerKnown), scheme,
                 crypto::random_delta(rng)),
      rng_(rng),
      initial_state_active_(c.dffs.size(), Block::zero()) {}

RoundTables CircuitGarbler::garble_round() {
  // Fresh labels for constants and inputs every round (sequential GC).
  // The RNG draw order is part of the pinned session format: it must
  // not depend on the slot plan.
  label(kConstZero) = rng_.next_block();
  label(kConstOne) = rng_.next_block();
  for (const auto w : circ_.garbler_inputs) label(w) = rng_.next_block();
  for (const auto w : circ_.evaluator_inputs) label(w) = rng_.next_block();
  if (round_ == 0) {
    for (std::size_t i = 0; i < circ_.dffs.size(); ++i) {
      state_[i] = rng_.next_block();
      initial_state_active_[i] =
          circ_.dffs[i].init ? state_[i] ^ delta() : state_[i];
    }
  }
  load_state();

  RoundTables out;
  out.tables.resize(tables());
  garble(out.tables.data());
  finish_round();
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
  const Block label = label0(circ_.garbler_inputs.at(i));
  return v ? label ^ delta() : label;
}

std::pair<Block, Block> CircuitGarbler::evaluator_input_labels(
    std::size_t i) const {
  const Block label = label0(circ_.evaluator_inputs.at(i));
  return {label, label ^ delta()};
}

std::vector<Block> CircuitGarbler::fixed_wire_labels() const {
  return {label0(kConstZero), label0(kConstOne) ^ delta()};
}

std::vector<Block> CircuitGarbler::initial_state_labels() const {
  if (round_ == 0 && !circ_.dffs.empty())
    throw std::logic_error(
        "initial_state_labels: garble round 0 first (labels are assigned "
        "during garbling)");
  return initial_state_active_;
}

std::vector<bool> GateEngine::output_map() const {
  std::vector<bool> map(circ_.outputs.size());
  for (std::size_t i = 0; i < map.size(); ++i)
    map[i] = label(circ_.outputs[i]).lsb();
  return map;
}

bool GateEngine::decode_output(std::size_t i, const Block& active) const {
  const Block l0 = label(circ_.outputs.at(i));
  if (active == l0) return false;
  if (active == (l0 ^ delta())) return true;
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

StreamingEvaluator::StreamingEvaluator(const Circuit& c, Scheme scheme)
    : GateEngine(c, compile_gate_program(c, {}, {}, kEvaluatorKnown), scheme,
                 Block::zero()) {}

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
  if (tables.tables.size() != this->tables())
    throw std::runtime_error("StreamingEvaluator: table count mismatch");
  label(kConstZero) = fixed_labels[0];
  label(kConstOne) = fixed_labels[1];
  for (std::size_t i = 0; i < garbler_labels.size(); ++i)
    label(circ_.garbler_inputs[i]) = garbler_labels[i];
  for (std::size_t i = 0; i < evaluator_labels.size(); ++i)
    label(circ_.evaluator_inputs[i]) = evaluator_labels[i];
  load_state();

  evaluate(tables.tables.data());
  finish_round();
  std::vector<Block> out(circ_.outputs.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = label(circ_.outputs[i]);
  return out;
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
