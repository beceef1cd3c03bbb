#include "proto/v3_session.hpp"

#include <stdexcept>

#include "crypto/gc_hash.hpp"
#include "proto/codec.hpp"

namespace maxel::proto {
namespace {

constexpr char kSessionV3Magic[8] = {'M', 'X', 'S', 'E', 'S', 'S', '3', '\0'};
constexpr std::uint64_t kMaxV3SessionRounds = 1u << 20;
// Smallest encoding of one round: four u64 count prefixes.
constexpr std::size_t kMinRoundBytes = 4 * 8;

}  // namespace

std::uint64_t delta_lineage(const crypto::Block& delta) {
  // Fixed-key hash under a dedicated tweak; collision-resistant enough
  // for lineage checks and reveals nothing useful about delta.
  const crypto::GcHash h;
  const crypto::Block d =
      h(delta, crypto::Block{0x6C696E65616765ull, 0x5633504F4F4Cull});
  return d.lo ^ d.hi;
}

PrecomputedSessionV3 garble_session_v3(
    const circuit::Circuit& c, const gc::V3Analysis& an,
    const std::vector<std::vector<bool>>& garbler_bits,
    const crypto::Block& delta, const crypto::Block& label_seed,
    crypto::RandomSource& rng) {
  PrecomputedSessionV3 s;
  s.delta = delta;
  s.label_seed = label_seed;
  s.pool_lineage = delta_lineage(delta);
  gc::V3Garbler g(c, an, delta, label_seed, rng);
  s.rounds.reserve(garbler_bits.size());
  for (const auto& bits : garbler_bits) s.rounds.push_back(g.garble_round(bits));
  return s;
}

void send_dbits(Channel& ch,
                const std::vector<std::vector<bool>>& evaluator_bits,
                std::size_t n_inputs, const ot::CorrelatedPoolReceiver& pool,
                std::uint64_t claim_start) {
  std::vector<bool> d(evaluator_bits.size() * n_inputs);
  std::size_t k = 0;
  for (const auto& bits : evaluator_bits) {
    if (bits.size() != n_inputs)
      throw std::invalid_argument("send_dbits: round input width mismatch");
    for (std::size_t j = 0; j < n_inputs; ++j, ++k)
      d[k] = bits[j] != pool.choice(claim_start + k);
  }
  ch.send_bits(d);
  ch.flush();
}

void send_v3_body(Channel& ch, const PrecomputedSessionV3& session,
                  const ot::CorrelatedPoolSender& pool,
                  const ot::PoolClaim& claim, const std::vector<bool>& d) {
  std::uint64_t inputs = 0;
  for (const gc::V3RoundMaterial& m : session.rounds)
    inputs += m.evaluator_pairs.size();
  if (claim.count != inputs)
    throw std::logic_error("send_v3_body: claim size mismatch");
  if (d.size() != inputs)
    throw std::logic_error("send_v3_body: d bits do not cover the claim");
  if (session.pool_lineage != delta_lineage(pool.delta()))
    throw std::logic_error(
        "send_v3_body: session garbled under a different delta than the "
        "pool correlation secret");

  // Each round's frame is written straight from its material into one
  // buffer reused for the whole session.
  std::vector<std::uint8_t> frame;
  std::uint64_t k = 0;
  for (const gc::V3RoundMaterial& m : session.rounds) {
    frame.clear();
    write_round_frame(frame, m.rows, m.output_map);
    ch.send_bytes(frame.data(), frame.size());
    for (const auto& labels : m.evaluator_pairs) {
      crypto::Block z = pool.pad(claim.start + k) ^ labels.first;
      if (d[k]) z ^= session.delta;
      ch.send_block(z);
      ++k;
    }
    ch.flush();
  }
}

std::vector<bool> eval_v3_rounds(
    Channel& ch, const circuit::Circuit& c, const gc::V3Analysis& an,
    const std::vector<std::vector<bool>>& evaluator_bits,
    ot::CorrelatedPoolReceiver& pool, std::uint64_t claim_start) {
  const std::size_t n_in = c.evaluator_inputs.size();
  send_dbits(ch, evaluator_bits, n_in, pool, claim_start);

  const SeedExpansionRecord seed = recv_seed_expansion(ch);
  gc::V3Evaluator evaluator(c, an, seed.label_seed);
  // Corrections from the seed record apply to every round's late-bound
  // garbler inputs; the demo flow ships none.
  const std::vector<std::pair<std::uint32_t, crypto::Block>>& corrections =
      seed.corrections;

  std::vector<crypto::Block> labels(n_in);
  std::vector<bool> decoded;
  std::vector<std::uint8_t> frame_bytes;
  V3RoundFrame frame;
  std::uint64_t idx = claim_start;
  for (const auto& bits : evaluator_bits) {
    recv_round_frame(ch, an.rows_per_round, c.outputs.size(), frame_bytes,
                     frame);
    for (std::size_t j = 0; j < n_in; ++j, ++idx)
      labels[j] = pool.pad(idx) ^ ch.recv_block();

    const auto& out =
        evaluator.eval_round(frame.rows, bits, labels, corrections);
    decoded = gc::decode_with_map(out, frame.output_map);
  }
  return decoded;
}

std::vector<std::uint8_t> serialize_session_v3(const PrecomputedSessionV3& s) {
  std::vector<std::uint8_t> buf;
  std::size_t estimate = 8 + 16 + 16 + 8 + 8;
  for (const auto& r : s.rounds)
    estimate += 16 * (r.rows.size() + r.evaluator_pairs.size() +
                      r.late_labels0.size()) +
                r.output_map.size() / 8 + 40;
  buf.reserve(estimate);
  ByteWriter w(buf);
  w.bytes(kSessionV3Magic, 8);
  w.block(s.delta);
  w.block(s.label_seed);
  w.u64(s.pool_lineage);
  w.u64(s.rounds.size());
  for (const auto& r : s.rounds) {
    w.blocks(r.rows);
    // The 1-labels are always l0 ^ delta, reconstructed on load.
    w.u64(r.evaluator_pairs.size());
    for (const auto& pair : r.evaluator_pairs) w.block(pair.first);
    w.counted_bits(r.output_map);
    w.blocks(r.late_labels0);
  }
  return buf;
}

PrecomputedSessionV3 parse_session_v3(const std::uint8_t* data,
                                      std::size_t n) {
  ByteReader<V3FormatError> rd(data, n, "parse_session_v3");
  rd.magic(kSessionV3Magic, "session");
  PrecomputedSessionV3 s;
  s.delta = rd.block("delta");
  if ((s.delta.lo & 1u) == 0) rd.fail("delta lsb is 0");
  s.label_seed = rd.block("label seed");
  s.pool_lineage = rd.u64("pool lineage");
  if (s.pool_lineage != delta_lineage(s.delta))
    rd.fail("pool lineage does not match delta");
  const std::uint64_t rounds =
      rd.count(kMaxV3SessionRounds, kMinRoundBytes, "round");
  s.rounds.reserve(rounds);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    gc::V3RoundMaterial m;
    m.rows = rd.blocks(kMaxV3Rows, "ciphertext row");
    const std::uint64_t pairs = rd.count(kMaxV3Rows, 16, "evaluator label");
    m.evaluator_pairs.reserve(pairs);
    for (std::uint64_t i = 0; i < pairs; ++i) {
      const crypto::Block l0 = rd.block("evaluator label");
      m.evaluator_pairs.emplace_back(l0, l0 ^ s.delta);
    }
    m.output_map = rd.counted_bits(kMaxV3Outputs, "output map");
    m.late_labels0 = rd.blocks(kMaxV3Rows, "late label");
    s.rounds.push_back(std::move(m));
  }
  rd.done("session");
  return s;
}

}  // namespace maxel::proto
