// Protocol-v3 session core: the garble/serve/eval flow that combines
// the slim wire format (gc/v3.hpp + proto/v3_records.hpp) with the
// cross-session correlated-OT pool (ot/pool.hpp).
//
// A v3 session body, after the net-layer handshake and pool
// reconciliation, is one round trip:
//
//   garbler -> evaluator   SeedExpansionRecord (in the ticket's frame)
//   evaluator -> garbler   packed derandomization bits for the whole
//                          claim, d_k = c_k ^ r_k with
//                          k = round * n_inputs + j (one send_bits record)
//   per round, one frame each, with no read in between:
//     garbler -> evaluator V3RoundFrame (rows + packed output map), then
//                          one z-block per evaluator input:
//                          z_j = q_idx ^ L0_j ^ (d_k ? delta : 0)
//                          (the client computes t_idx ^ z_j = L0_j ^
//                          c_j*delta, its active label)
//
// The label OT is one bit + one block per evaluator input — no hashes,
// no pair of ciphertexts — because the pool pads already carry the delta
// correlation and the garbling delta *is* the pool secret. Every input
// is fixed before the session starts, so the client commits to all of
// them at once and the garbler streams every round without waiting. The
// session consumes claim indices strictly in order:
// idx = claim_start + round * n_inputs + j. Reusable mode
// (net/reusable_service.hpp) sends the same d-bits record.
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

// Client half of the session-wide d-bits step both pooled modes share:
// sends one send_bits record holding d_k = evaluator_bits[r][j] ^
// pool.choice(claim_start + k) for k = r * n_inputs + j, and flushes.
// Throws std::invalid_argument if a round's width is not n_inputs.
void send_dbits(Channel& ch,
                const std::vector<std::vector<bool>>& evaluator_bits,
                std::size_t n_inputs, const ot::CorrelatedPoolReceiver& pool,
                std::uint64_t claim_start);

// Garbler half of the body after the seed record: given the client's
// d bits for the whole claim (d[k] for claim index claim.start + k),
// sends every round's V3RoundFrame followed by its z-blocks, one flush
// per round, drawing the pads claim.start + k. Before sending anything
// it checks that the claim holds exactly one index per evaluator input
// of every round, that d covers it, and that the pool's delta matches
// the session's (via lineage); a failed check throws std::logic_error.
// The caller owns claim consume/discard.
void send_v3_body(Channel& ch, const PrecomputedSessionV3& session,
                  const ot::CorrelatedPoolSender& pool,
                  const ot::PoolClaim& claim, const std::vector<bool>& d);

// Evaluator twin: sends the d bits (send_dbits), then consumes the seed
// record and every round, evaluating each as it lands, its input labels
// drawn from the pool via the derandomized exchange. evaluator_bits[r]
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
// (count-prefixed). Parsed by the rules of proto/codec.hpp; throws
// V3FormatError on anything malformed.
std::vector<std::uint8_t> serialize_session_v3(const PrecomputedSessionV3& s);
PrecomputedSessionV3 parse_session_v3(const std::uint8_t* data,
                                      std::size_t n);

}  // namespace maxel::proto
