// End-to-end two-party secure computation (Fig. 1's host-side protocol):
// the cloud server garbles (here: software garbler or the MAXelerator
// simulator upstream), ships tables + its input labels, serves the
// client's input labels through OT, and the client evaluates.
//
// Parties expose explicit phase methods so a driver (in-process here, a
// network loop in deployment) controls interleaving; TwoPartyProtocol is
// the batteries-included in-process driver used by examples and benches.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"
#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "proto/channel.hpp"
#include "proto/chunk_io.hpp"

namespace maxel::proto {

enum class OtMode { kBase, kIknp };

struct ProtocolOptions {
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  OtMode ot = OtMode::kIknp;
};

class GarblerParty {
 public:
  GarblerParty(const circuit::Circuit& c, const ProtocolOptions& opt,
               Channel& ch, crypto::RandomSource& rng);

  // IKNP setup steps owned by this side (no-ops under base OT).
  void setup_step2();
  void setup_step4();

  // Round phase 1: garble, send tables + garbler labels + decode map,
  // announce OT batch.
  void garble_and_send(const std::vector<bool>& garbler_bits);
  // Round phase 3: complete the OT with the evaluator-input label pairs.
  void finish_ot();

  [[nodiscard]] std::uint64_t rounds() const { return garbler_.rounds_garbled(); }
  [[nodiscard]] const gc::CircuitGarbler& garbler() const { return garbler_; }

 private:
  const circuit::Circuit& circ_;
  ProtocolOptions opt_;
  Channel& ch_;
  gc::CircuitGarbler garbler_;
  std::unique_ptr<ot::BaseOtSender> base_ot_;
  std::unique_ptr<ot::IknpSender> iknp_;
  ot::OtSender* ot_ = nullptr;
};

// Receives one v2 round as every v2 garbler sends it (GarblerParty,
// PrecomputedGarblerParty and the served precomputed mode): u64 table
// count and the tables, the active garbler labels, the two constant
// labels, the DFF state labels before round 0 only (send_blocks records)
// and the output map (a send_bits record). Every count must be the one
// the evaluator derives from circuit `c`; any other throws
// WireFormatError before its payload is allocated. Round 0's state
// labels go straight into `ev`.
WireChunk::Round recv_v2_round(Channel& ch, const circuit::Circuit& c,
                               gc::Scheme scheme, gc::StreamingEvaluator& ev);

class EvaluatorParty {
 public:
  EvaluatorParty(const circuit::Circuit& c, const ProtocolOptions& opt,
                 Channel& ch, crypto::RandomSource& rng);
  // Variant with an externally managed OT receiver (e.g. a
  // ot::PrecomputedOtReceiver over a Beaver pool).
  EvaluatorParty(const circuit::Circuit& c, gc::Scheme scheme, Channel& ch,
                 ot::OtReceiver& external_ot);

  void setup_step1();
  void setup_step3();

  // Round phase 2: receive round material, start OT with choice bits.
  void receive_and_choose(const std::vector<bool>& evaluator_bits);
  // Round phase 4: obtain labels, evaluate; returns decoded outputs.
  std::vector<bool> evaluate_round();

  [[nodiscard]] std::uint64_t rounds() const {
    return evaluator_.rounds_evaluated();
  }

 private:
  const circuit::Circuit& circ_;
  ProtocolOptions opt_;
  Channel& ch_;
  gc::StreamingEvaluator evaluator_;
  std::unique_ptr<ot::BaseOtReceiver> base_ot_;
  std::unique_ptr<ot::IknpReceiver> iknp_;
  ot::OtReceiver* ot_ = nullptr;

  WireChunk::Round round_;  // the received round material
};

struct ProtocolResult {
  std::vector<bool> outputs;          // decoded outputs of the final round
  std::uint64_t rounds = 0;
  std::uint64_t garbler_bytes_sent = 0;    // tables, labels, OT messages
  std::uint64_t evaluator_bytes_sent = 0;  // OT responses
  std::uint64_t table_bytes = 0;           // garbled tables alone
  std::uint64_t ands_garbled = 0;
};

// In-process driver: runs setup plus one protocol round per entry of
// `rounds` and returns the decoded final outputs with traffic accounting.
class TwoPartyProtocol {
 public:
  explicit TwoPartyProtocol(const circuit::Circuit& c,
                            const ProtocolOptions& opt = {});

  ProtocolResult run(const std::vector<circuit::RoundInputs>& rounds);

 private:
  const circuit::Circuit& circ_;
  ProtocolOptions opt_;
};

}  // namespace maxel::proto
