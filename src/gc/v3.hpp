// Protocol-v3 garbling: known-operand gate shrinking + PRG-seeded
// active labels (the wire-format half of the "slim the wire" work).
//
// v2 ships two half-gate rows for every non-XOR gate plus a full
// 16-byte active label per garbler-input wire per round. But in the
// sequential MAC circuit large cones are *party-known*: every wire
// whose value the garbler can compute at garble time (constants, its
// own input bits, and any gate fed only by such wires) does not need
// the generic construction. Classifying each non-XOR gate by operand
// knowledge (analyze_v3):
//
//   kKnownOut  both operands garbler-known: the output value is known,
//              so the output label is pinned directly — zero rows.
//   kGenHalf   one operand garbler-known: a single generator-half-gate
//              row suffices (Zahur-Rosulek-Evans, half of kHalfGates).
//   kEvalHalf  an operand evaluator-known: one evaluator-half-gate row;
//              the evaluator picks the branch from its own plaintext.
//   kFull      neither side knows an operand: the standard 2-row
//              half-gates table.
//
// Active labels of garbler-known wires are derived by both parties from
// a per-session 16-byte label_seed: P = H(seed, {2*wire, round|2^62}).
// The garbler sets the wire's 0-label to P ^ value*delta, so the label
// the evaluator needs is always exactly P — nothing about `value` (or
// delta) leaks, and the per-round garbler-label transfer disappears.
// The same trick covers the constant wires and the round-0 DFF state
// (public init values), so v3 sessions ship no fixed/initial labels.
//
// Late-bound garbler inputs: a caller that cannot fix some garbler
// input bits at garble time lists them in V3Analysis::late mask; those
// wires (and their cones) fall back to ordinary random labels, and the
// serve path ships their active labels as per-wire "corrections"
// (wire, active-label) — the correction is an active label, never a
// label difference, so it reveals exactly what a v2 label transfer
// reveals. The demo protocol binds all inputs at garble time and ships
// an empty correction list.
//
// Security note (why a seed-derived active label is safe to publish):
// an active label is public to the evaluator by definition; only the
// *other* label (active ^ delta) must stay secret, and delta never
// enters the derivation. The tweak space {2*wire, round | 2^62} is
// disjoint from gate tweaks {2*gate, round} (bit 62 of the high half)
// and from the IKNP tweak domain.
//
// v3 requires Scheme::kHalfGates (kFull gates are vanilla half-gates
// tables, so a v3 session interoperates gate-for-gate with the v2
// garbler on the full gates).
//
// Engine: V3Garbler and V3Evaluator own no gate loop and compile
// nothing. They run the one gate engine of gc/garble.hpp on the two
// programs analyze_v3 compiled (one value byte per label slot for the
// half gates' known operands), and keep only the round's edges: seed-
// derived and random input labels, the evaluator's checked corrections,
// and the flat row stream.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/scheme.hpp"

namespace maxel::gc {

// Deterministic classification shared by garbler and evaluator. Both
// sides must compute it from the same circuit (it depends only on the
// public structure), or evaluation desyncs on the row stream.
struct V3Analysis {
  std::vector<bool> late;            // garbler inputs bound after garbling
  std::size_t rows_per_round = 0;    // total ciphertext blocks per round
  std::size_t n_full = 0;
  std::size_t n_gen_half = 0;
  std::size_t n_eval_half = 0;
  std::size_t n_known_out = 0;
  // Each side's compiled class table, shared by every engine built from
  // this analysis; null in a default-constructed one (an engine throws).
  std::shared_ptr<const GateProgram> garbler_program;
  std::shared_ptr<const GateProgram> evaluator_program;
};

// `late_garbler_inputs` (optional, indexed like c.garbler_inputs) marks
// inputs whose bits are not available at garble time; empty = all bound.
V3Analysis analyze_v3(const circuit::Circuit& c,
                      const std::vector<bool>& late_garbler_inputs = {});

// One garbled round in v3 form. `rows` is the flat ciphertext stream in
// netlist order (2/1/0 blocks per gate as classified); both sides derive
// the per-gate row offsets from the shared V3Analysis, so the stream
// carries no per-gate headers.
struct V3RoundMaterial {
  std::vector<Block> rows;
  std::vector<std::pair<Block, Block>> evaluator_pairs;  // OT (m0, m1)
  std::vector<bool> output_map;  // point-and-permute decode colors
  // 0-labels of late-bound garbler inputs (same order as the late mask's
  // set bits); the serve path turns these into (wire, active) corrections
  // once the values are known. Empty when nothing is late-bound.
  std::vector<Block> late_labels0;
};

class V3Garbler : public GateEngine {
 public:
  // delta must have lsb 1 (point-and-permute). In the pooled-OT protocol
  // it equals the server's IKNP sender secret, so evaluator-input labels
  // transfer as one block each (see ot/pool.hpp).
  V3Garbler(const circuit::Circuit& c, const V3Analysis& an,
            const Block& delta, const Block& label_seed,
            crypto::RandomSource& rng);

  // Garbles the next round. garbler_bits are this round's values of the
  // non-late garbler inputs (full input count; late positions ignored).
  V3RoundMaterial garble_round(const std::vector<bool>& garbler_bits);

  [[nodiscard]] std::uint64_t rounds_garbled() const { return round_; }
  using GateEngine::delta;
  using GateEngine::label_seed;
  using GateEngine::decode_output;
  // Active label of late-bound garbler input i for value v (last round).
  [[nodiscard]] Block late_input_label(std::size_t i, bool v) const;

 private:
  std::vector<bool> late_;
  crypto::RandomSource& rng_;
};

class V3Evaluator : public GateEngine {
 public:
  V3Evaluator(const circuit::Circuit& c, const V3Analysis& an,
              const Block& label_seed);

  // Evaluates one round; returns active output labels, valid until the
  // next call. evaluator_bits are this round's evaluator input values
  // (they drive the kEvalHalf branch choice), evaluator_labels the
  // matching active labels from OT. `corrections` carry the active label
  // of every late-bound garbler input, each exactly once; a missing,
  // repeated or stray one is a typed "v3: ..." runtime_error.
  const std::vector<Block>& eval_round(
      const std::vector<Block>& rows,
      const std::vector<bool>& evaluator_bits,
      const std::vector<Block>& evaluator_labels,
      const std::vector<std::pair<std::uint32_t, Block>>& corrections = {});

  [[nodiscard]] std::uint64_t rounds_evaluated() const { return round_; }

 private:
  std::vector<circuit::Wire> late_wires_;  // late-bound inputs, sorted
  std::vector<std::uint8_t> corrected_;    // per late wire, this round
  std::vector<Block> outs_;
};

}  // namespace maxel::gc
