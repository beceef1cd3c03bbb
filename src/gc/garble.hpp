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
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
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

// Garbles a circuit round after round. Labels live in a slot buffer
// laid out by circuit::plan_label_slots, holding every wire the garbler
// answers queries about after the round (the constants, both input
// vectors, DFF q/d wires and the outputs); the rest share recycled
// slots, so the buffer is the circuit's live width, not its wire count.
class CircuitGarbler {
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

  // Active label for garbler input i holding value v.
  [[nodiscard]] Block garbler_input_label(std::size_t i, bool v) const;
  // Both labels for evaluator input i (to be fed into OT as (m0, m1)).
  [[nodiscard]] std::pair<Block, Block> evaluator_input_labels(
      std::size_t i) const;
  // Active labels of the two constant wires [const0, const1].
  [[nodiscard]] std::vector<Block> fixed_wire_labels() const;
  // Active labels of the DFF state wires at round 0 (public init values).
  [[nodiscard]] std::vector<Block> initial_state_labels() const;
  // Point-and-permute output decode map: lsb of each output's 0-label.
  [[nodiscard]] std::vector<bool> output_map() const;
  // Garbler-side decode of an active output label.
  [[nodiscard]] bool decode_output(std::size_t i, const Block& active) const;

  [[nodiscard]] const Block& delta() const { return delta_; }
  // 0-label of a wire in the last garbled round. Only held wires keep
  // theirs after the round; any other wire's slot may have been reused.
  [[nodiscard]] const Block& label0(circuit::Wire w) const {
    return labels0_[slot_[w]];
  }

  // Size of the per-round label buffer in slots; x16 for bytes.
  [[nodiscard]] std::size_t label_slots() const { return labels0_.size(); }
  [[nodiscard]] std::size_t label_buffer_bytes() const {
    return labels0_.size() * sizeof(Block);
  }

 private:
  [[nodiscard]] Block& l0(circuit::Wire w) { return labels0_[slot_[w]]; }
  [[nodiscard]] const Block& l0(circuit::Wire w) const {
    return labels0_[slot_[w]];
  }

  const circuit::Circuit& circ_;
  Scheme scheme_;
  crypto::RandomSource& rng_;
  Block delta_;
  GateGarbler gg_;
  std::vector<std::uint32_t> slot_;  // wire -> label slot
  std::vector<Block> labels0_;       // current round, 0-labels per slot
  std::vector<Block> next_state0_;   // d-wire 0-labels carried to next round
  std::vector<Block> initial_state_active_;
  std::uint64_t round_ = 0;
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
