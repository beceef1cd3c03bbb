// Whole-circuit garbling and evaluation, including the sequential
// (multi-round, TinyGarble-style) execution model that MAXelerator
// accelerates: the same netlist is garbled every round with fresh input
// labels while DFF state wires carry their labels across rounds.
//
// Tweak convention (must match between any two implementations that are
// expected to produce identical tables — the software garbler here and
// the MAXelerator hardware simulator both use it):
//   tweak.lo = 2 * gate_index_in_netlist   (low bit reserved: half gates)
//   tweak.hi = round index
// The paper builds its unique identifier T from (i, j, core id, stage,
// gate id); any injective encoding is equivalent — we pick one that both
// the FSM schedule and the netlist order can compute.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/optimize.hpp"
#include "crypto/rng.hpp"
#include "gc/scheme.hpp"

namespace maxel::gc {

[[nodiscard]] constexpr Block gate_tweak(std::uint32_t gate_index,
                                         std::uint64_t round) {
  return Block{2ull * gate_index, round};
}

// Garbled tables of one round, in netlist (topological) order of the
// non-free gates.
struct RoundTables {
  std::vector<GarbledTable> tables;

  [[nodiscard]] std::size_t byte_size(Scheme s) const {
    return tables.size() * bytes_per_and(s);
  }
};

// Contiguous wire encoding of a round's tables: rows_per_and(s) x 16
// bytes per table, netlist order — the dominant payload of every round,
// moved as one bulk copy (and, over a socket, one syscall) instead of
// one transfer per block. `out` must hold t.byte_size(s) bytes.
void tables_to_bytes(const RoundTables& t, Scheme s, std::uint8_t* out);
RoundTables tables_from_bytes(const std::uint8_t* data, std::size_t n_tables,
                              Scheme s);

// Everything one garbled round hands the serving host: tables plus the
// label material needed to select garbler inputs (0-labels + delta),
// run the evaluator-input OT (pairs), seed the constant wires, and
// decode outputs. proto::PrecomputedSession stores rounds of exactly
// this; stream sessions ship them in chunks as they are garbled.
struct RoundMaterial {
  RoundTables tables;
  std::vector<Block> garbler_labels0;  // choose with input bits (+delta)
  std::vector<std::pair<Block, Block>> evaluator_pairs;  // OT (m0, m1)
  std::vector<Block> fixed_labels;     // active const labels
  std::vector<bool> output_map;        // point-and-permute decode colors
};

// How a gate is garbled: the gate engine's per-gate class table. v2
// garbles every non-free gate kFull; gc/v3.hpp's analyze_v3 shrinks the
// gates whose operands a party knows (the classes are described there).
enum class GateClass : std::uint8_t {
  kFree,
  kFull,
  kGenHalf,
  kEvalHalf,
  kKnownOut,
};

// Per-wire knowledge bits (analyze_v3): which party can compute
// the wire's plaintext value.
inline constexpr std::uint8_t kGarblerKnown = 1;
inline constexpr std::uint8_t kEvaluatorKnown = 2;

// Tweak of a seed-derived label: {2*wire, round | 2^62}, disjoint from
// the gate tweaks (gc/v3.hpp).
[[nodiscard]] constexpr Block v3_label_tweak(circuit::Wire w,
                                             std::uint64_t round) {
  return Block{2ull * w, round | 1ull << 62};
}

// One side's compiled form of a circuit: the slot plan and one op byte
// per gate, immutable once built and shared by every engine that runs
// the circuit on that side. The garbler side holds every wire it
// answers label queries about after the round (the constants, both
// input vectors, DFF q/d wires and the outputs); the evaluator side
// holds nothing, so its plan is the circuit's live width.
struct GateProgram {
  circuit::SlotPlan plan;
  // Per gate: its GateClass and two flags, kSwap (a half gate's known
  // operand is b) and kTrack (the side knows the output's value).
  std::vector<std::uint8_t> ops;
  std::size_t tables = 0;  // full and half gates: a v2 round's tables
  std::size_t rows = 0;    // 2 per full gate, 1 per half: a v3 round's rows
  bool values = false;     // engines keep one value byte per slot
};

// `side` is kGarblerKnown or kEvaluatorKnown; `cls` and `known` are
// analyze_v3's class table and knowledge bits (the program tracks the
// values of wires `side` knows), or both empty for the v2 table.
std::shared_ptr<const GateProgram> compile_gate_program(
    const circuit::Circuit& c, const std::vector<GateClass>& cls,
    const std::vector<std::uint8_t>& known, std::uint8_t side);

// The one gate engine: one loop that garbles a round and one that
// evaluates it, each switching on the per-gate op of a compiled
// GateProgram. The engine owns only the round's buffers: labels by
// slot, values by slot and the DFF state. The modes are classes built
// on the engine and differ only at the round's edges: they write the
// round-start labels, run a loop, and read the held wires.
class GateEngine {
 public:
  [[nodiscard]] const circuit::SlotPlan& plan() const { return prog_->plan; }
  [[nodiscard]] std::size_t label_slots() const { return labels_.size(); }
  // Label and value buffers in bytes: the round's working set.
  [[nodiscard]] std::size_t working_set_bytes() const {
    return labels_.size() * sizeof(Block) + values_.size();
  }

 protected:
  // Runs `prog`, which must be compiled from `c`: a null program or one
  // compiled from another circuit is an invalid_argument.
  GateEngine(const circuit::Circuit& c,
             std::shared_ptr<const GateProgram> prog, Scheme scheme,
             const Block& delta, const Block& label_seed = Block::zero());

  // One round between the round-start labels and its rows. Row is
  // GarbledTable (v2: tables() of them, a half gate taking one table) or
  // Block (v3's flat stream: rows() blocks, 2/1/0 per gate).
  template <class Row>
  void garble(Row* out);
  template <class Row>
  void evaluate(const Row* in);
  [[nodiscard]] std::size_t tables() const { return prog_->tables; }
  [[nodiscard]] std::size_t rows() const { return prog_->rows; }

  [[nodiscard]] Block& label(circuit::Wire w) {
    return labels_[prog_->plan.slot_of_wire[w]];
  }
  [[nodiscard]] const Block& label(circuit::Wire w) const {
    return labels_[prog_->plan.slot_of_wire[w]];
  }
  [[nodiscard]] std::uint8_t& value(circuit::Wire w) {
    return values_[prog_->plan.slot_of_wire[w]];
  }
  [[nodiscard]] Block seed_label(circuit::Wire w, std::uint64_t round) const {
    return hash_(label_seed_, v3_label_tweak(w, round));
  }
  [[nodiscard]] const Block& delta() const { return gg_.delta(); }
  [[nodiscard]] const Block& label_seed() const { return label_seed_; }
  // A garbler's output decode map (lsb of each output's 0-label) and
  // decode of an active output label, for the last round.
  [[nodiscard]] std::vector<bool> output_map() const;
  [[nodiscard]] bool decode_output(std::size_t i, const Block& active) const;

  // DFF hand-over: state_ holds each q wire's label for the next round,
  // and finish_round() refills it from the d wires.
  void load_state();
  void finish_round();

  const circuit::Circuit& circ_;
  std::vector<Block> state_;
  std::uint64_t round_ = 0;

 private:
  template <class Row>
  Block garble_v3(std::size_t gi, std::uint8_t op, std::uint32_t a,
                  std::uint32_t b, Row*& out);

  std::shared_ptr<const GateProgram> prog_;
  std::vector<Block> labels_;
  std::vector<std::uint8_t> values_;
  GateGarbler gg_;
  crypto::GcHash hash_;
  Block label_seed_;
};

// Garbles a circuit round after round with fresh random input labels.
class CircuitGarbler : public GateEngine {
 public:
  CircuitGarbler(const circuit::Circuit& c, Scheme scheme,
                 crypto::RandomSource& rng);

  // Garbles the next round and returns its tables. All per-round label
  // queries below refer to the most recently garbled round.
  RoundTables garble_round();

  // Garbles the next round and gathers its complete material in one
  // step — the shared body of proto::garble_session and the served
  // stream session, so both producers emit byte-identical rounds.
  RoundMaterial garble_round_material();

  [[nodiscard]] std::uint64_t rounds_garbled() const { return round_; }
  using GateEngine::delta;

  // Active label for garbler input i holding value v.
  [[nodiscard]] Block garbler_input_label(std::size_t i, bool v) const;
  // Both labels for evaluator input i (to be fed into OT as (m0, m1)).
  [[nodiscard]] std::pair<Block, Block> evaluator_input_labels(
      std::size_t i) const;
  // Active labels of the two constant wires [const0, const1].
  [[nodiscard]] std::vector<Block> fixed_wire_labels() const;
  // Active labels of the DFF state wires at round 0 (public init values).
  [[nodiscard]] std::vector<Block> initial_state_labels() const;
  using GateEngine::decode_output;
  using GateEngine::output_map;

  // 0-label of a wire in the last garbled round. Only held wires keep
  // theirs after the round; any other wire's slot may have been reused.
  [[nodiscard]] const Block& label0(circuit::Wire w) const { return label(w); }

 private:
  crypto::RandomSource& rng_;
  std::vector<Block> initial_state_active_;
};

// Decodes active output labels with the garbler-published color map.
std::vector<bool> decode_with_map(const std::vector<Block>& active,
                                  const std::vector<bool>& map);

// Convenience: single-round garble+evaluate of a combinational circuit
// with plaintext inputs; returns decoded outputs. Used heavily in tests.
std::vector<bool> garble_and_evaluate(const circuit::Circuit& c, Scheme scheme,
                                      const std::vector<bool>& garbler_bits,
                                      const std::vector<bool>& evaluator_bits,
                                      crypto::RandomSource& rng);

}  // namespace maxel::gc
