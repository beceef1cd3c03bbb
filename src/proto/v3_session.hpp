// Protocol-v3 session core: the garble/serve/eval flow that combines
// the slim wire format (gc/v3.hpp + proto/v3_records.hpp) with the
// cross-session correlated-OT pool (ot/pool.hpp).
//
// A v3 session body, after the net-layer handshake and pool
// reconciliation, is:
//
//   garbler -> evaluator   SeedExpansionRecord (once)
//   per round:
//     garbler -> evaluator V3RoundFrame (rows + packed output map)
//     evaluator -> garbler packed derandomization bits d = c ^ r
//     garbler -> evaluator one z-block per evaluator input:
//                          z_j = q_idx ^ L0_j ^ (d_j ? delta : 0)
//                          (the client computes t_idx ^ z_j = L0_j ^
//                          c_j*delta, its active label)
//
// The per-round OT is one bit + one block per evaluator input — no
// hashes, no pair of ciphertexts — because the pool pads already carry
// the delta correlation and the garbling delta *is* the pool secret.
// The session consumes claim indices strictly in order:
// idx = claim_start + round * n_inputs + j.
//
// These functions speak only proto::Channel, so the same code backs the
// TCP server, the broker, and the loopback benches.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/v3.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"
#include "proto/v3_records.hpp"

namespace maxel::proto {

// A pre-garbled v3 session. Tied to a garbling delta (== the pool
// correlation secret) and to a pool lineage: the serve path must feed it
// OT pads from a pool whose delta matches, or every evaluator label
// decodes to garbage. pool_lineage is a fingerprint of the delta so a
// spooled session can be checked against the pool it is served from
// without storing the delta anywhere it doesn't have to live.
struct PrecomputedSessionV3 {
  crypto::Block delta;
  crypto::Block label_seed;
  std::uint64_t pool_lineage = 0;
  std::vector<gc::V3RoundMaterial> rounds;

  [[nodiscard]] std::size_t round_count() const { return rounds.size(); }
};

// Fingerprint of a garbling delta for lineage checks (NOT a secret
// substitute: it is never sent to the evaluator).
[[nodiscard]] std::uint64_t delta_lineage(const crypto::Block& delta);

// Garbles a full session with all garbler inputs bound (the demo
// service knows its input stream at garble time, so the correction list
// is empty). garbler_bits[r] holds round r's garbler input values.
PrecomputedSessionV3 garble_session_v3(
    const circuit::Circuit& c, const gc::V3Analysis& an,
    const std::vector<std::vector<bool>>& garbler_bits,
    const crypto::Block& delta, const crypto::Block& label_seed,
    crypto::RandomSource& rng);

// The two garbler-side steps of round r, each ending in a flush:
// send_v3_round sends the round's V3RoundFrame; answer_v3_round reads
// the client's derandomization bits d and answers with one z-block per
// evaluator input, drawing the pads claim.start + r * n_in + j (a round
// that would reach past the claim throws std::logic_error). Every server
// of the session body (evloop::EvSession, serve_v3_rounds) runs these.
void send_v3_round(Channel& ch, const PrecomputedSessionV3& session,
                   std::size_t r);
void answer_v3_round(Channel& ch, const PrecomputedSessionV3& session,
                     std::size_t r, const ot::CorrelatedPoolSender& pool,
                     const ot::PoolClaim& claim);

// Serves the whole session body over ch, blocking: the seed record, then
// both steps of every round. The claim must hold exactly
// session.round_count() * c.evaluator_inputs.size() pool indices and
// the pool's delta must match the session's (checked via lineage).
// Throws on any transport error; the caller owns claim consume/discard.
void serve_v3_rounds(Channel& ch, const circuit::Circuit& c,
                     const PrecomputedSessionV3& session,
                     ot::CorrelatedPoolSender& pool,
                     const ot::PoolClaim& claim);

// Evaluator twin: consumes the same byte stream, drawing its input
// labels from the pool via the derandomized exchange. evaluator_bits[r]
// holds round r's true choice bits. Returns the decoded outputs of the
// final round. claim_start must already be watermarked via
// CorrelatedPoolReceiver::mark_consumed.
std::vector<bool> eval_v3_rounds(
    Channel& ch, const circuit::Circuit& c, const gc::V3Analysis& an,
    const std::vector<std::vector<bool>>& evaluator_bits,
    ot::CorrelatedPoolReceiver& pool, std::uint64_t claim_start);

// Byte codec for spooling v3 sessions to disk (svc/session_spool's v3
// lane). Format: magic "MXSESS3\0" | delta 16B | label_seed 16B |
// pool_lineage u64 | n_rounds u64 | per round: rows (count-prefixed),
// evaluator 0-labels (count-prefixed; the 1-labels are L0 ^ delta and
// never stored), output_map (count-prefixed packed bits), late 0-labels
// (count-prefixed). Hostile-input safe like the other codecs; throws
// V3FormatError on anything malformed.
std::vector<std::uint8_t> serialize_session_v3(const PrecomputedSessionV3& s);
PrecomputedSessionV3 parse_session_v3(const std::uint8_t* data,
                                      std::size_t n);

}  // namespace maxel::proto
