// Precomputed garbling (Sec. 3): "the garbling operation does not
// require any input from any party... MAXelerator keeps generating the
// garbled tables independently and sends them to the host CPU along with
// the generated labels. The host ... when requested by the client simply
// performs the [evaluation] with one of the stored garbled circuits."
//
// GarblingBank is that host-side store: sessions of pre-garbled rounds
// (tables, input label pairs, decode maps) produced offline; serving a
// client consumes one session and only performs label selection + OT +
// transfer online. Each session uses fresh labels — reuse would break
// security, so consumed sessions are destroyed (checked at runtime).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"

#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "proto/channel.hpp"

namespace maxel::proto {

// One pre-garbled protocol session: everything the host needs to serve
// `rounds` sequential evaluations of the circuit. A round is exactly
// the gc::RoundMaterial the garbler emits — the same record the
// streaming pipeline moves one chunk at a time instead of all at once.
struct PrecomputedSession {
  using Round = gc::RoundMaterial;
  std::vector<Round> rounds;
  std::vector<crypto::Block> initial_state_labels;
  crypto::Block delta;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
};

struct BankStats {
  std::size_t sessions_ready = 0;
  std::size_t sessions_served = 0;
  std::uint64_t stored_bytes = 0;  // host memory footprint of the store
};

// Garbles one complete session (the body of GarblingBank::precompute,
// exposed so callers with their own parallelism — e.g. one GC core per
// session on a core::GcCorePool — can produce sessions off-thread and
// deposit them with add_session).
PrecomputedSession garble_session(const circuit::Circuit& c, gc::Scheme scheme,
                                  std::size_t rounds,
                                  crypto::RandomSource& rng);

// Host memory footprint of a session (tables + label material).
std::uint64_t session_byte_size(const PrecomputedSession& s);

class GarblingBank {
 public:
  GarblingBank(const circuit::Circuit& c, gc::Scheme scheme,
               std::size_t rounds_per_session);

  // Offline phase: garble and store `n` fresh sessions (what the
  // accelerator streams up while the host is otherwise idle).
  void precompute(std::size_t n, crypto::RandomSource& rng);

  // Deposits an externally garbled session (must match this bank's
  // circuit/scheme/rounds — checked).
  void add_session(PrecomputedSession s);

  // Online phase: pops one session. Throws if the bank is empty.
  PrecomputedSession take_session();

  [[nodiscard]] const BankStats& stats() const { return stats_; }
  [[nodiscard]] const circuit::Circuit& circuit() const { return circ_; }
  [[nodiscard]] std::size_t rounds_per_session() const {
    return rounds_per_session_;
  }

 private:
  const circuit::Circuit& circ_;
  gc::Scheme scheme_;
  std::size_t rounds_per_session_;
  std::vector<PrecomputedSession> store_;
  BankStats stats_;
};

// Serves one stored session to an evaluator over a channel, performing
// only online work: table/label transfer and OT. The counterpart is the
// ordinary EvaluatorParty (the client cannot tell precomputed garbling
// from on-demand garbling — same message flow).
enum class PrecomputedOtMode { kBase, kIknp };

class PrecomputedGarblerParty {
 public:
  // Default: fresh base OT online.
  PrecomputedGarblerParty(PrecomputedSession session, Channel& ch,
                          crypto::RandomSource& rng);
  // Explicit online OT choice: base OT or IKNP extension (the latter
  // needs the setup steps below run against the peer's receiver).
  PrecomputedGarblerParty(PrecomputedSession session, Channel& ch,
                          crypto::RandomSource& rng, PrecomputedOtMode ot);
  // Fully-offline variant: an external OT sender (e.g. a
  // ot::PrecomputedOtSender over a Beaver pool) serves the labels, so the
  // online phase is transfer + XOR only.
  PrecomputedGarblerParty(PrecomputedSession session, Channel& ch,
                          ot::OtSender& external_ot);

  // IKNP setup steps owned by this side; no-ops under base/external OT.
  void setup_step2();
  void setup_step4();

  void garble_and_send(const std::vector<bool>& garbler_bits);
  void finish_ot();

 private:
  PrecomputedSession session_;
  Channel& ch_;
  std::unique_ptr<ot::BaseOtSender> owned_ot_;
  std::unique_ptr<ot::IknpSender> iknp_;
  ot::OtSender* ot_ = nullptr;
  std::size_t sent_rounds_ = 0;
  std::size_t ot_rounds_ = 0;
};

}  // namespace maxel::proto
