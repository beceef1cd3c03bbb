#include "proto/v3_session.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "crypto/gc_hash.hpp"

namespace maxel::proto {
namespace {

constexpr char kSessionV3Magic[8] = {'M', 'X', 'S', 'E', 'S', 'S', '3', '\0'};
constexpr std::uint64_t kMaxV3SessionRounds = 1u << 20;

[[noreturn]] void bad(const std::string& what) {
  throw V3FormatError("parse_session_v3: " + what);
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  const std::size_t off = buf.size();
  buf.resize(off + 8);
  std::memcpy(buf.data() + off, &v, 8);
}

void put_block(std::vector<std::uint8_t>& buf, const crypto::Block& b) {
  const std::size_t off = buf.size();
  buf.resize(off + 16);
  b.to_bytes(buf.data() + off);
}

void put_blocks(std::vector<std::uint8_t>& buf,
                const std::vector<crypto::Block>& v) {
  put_u64(buf, v.size());
  for (const auto& b : v) put_block(buf, b);
}

void put_bits(std::vector<std::uint8_t>& buf, const std::vector<bool>& bits) {
  put_u64(buf, bits.size());
  const std::size_t off = buf.size();
  buf.resize(off + (bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) buf[off + i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
}

struct Reader {
  const std::uint8_t* p;
  std::size_t left;

  void need(std::size_t n, const char* what) {
    if (left < n) bad(std::string("truncated ") + what);
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    left -= 8;
    return v;
  }
  crypto::Block block(const char* what) {
    need(16, what);
    const crypto::Block b = crypto::Block::from_bytes(p);
    p += 16;
    left -= 16;
    return b;
  }
  std::uint64_t count(std::uint64_t cap, std::size_t elem_bytes,
                      const char* what) {
    const std::uint64_t n = u64(what);
    if (n > cap)
      bad(std::string("implausible ") + what + " count " + std::to_string(n));
    if (elem_bytes != 0 && n > left / elem_bytes)
      bad(std::string(what) + " count exceeds remaining bytes");
    return n;
  }
  std::vector<crypto::Block> blocks(const char* what) {
    const std::uint64_t n = count(kMaxV3Rows, 16, what);
    std::vector<crypto::Block> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(block(what));
    return v;
  }
  std::vector<bool> bits(const char* what) {
    const std::uint64_t n = count(kMaxV3Outputs, 0, what);
    const std::size_t packed = static_cast<std::size_t>((n + 7) / 8);
    need(packed, what);
    std::vector<bool> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
      v.push_back((p[i / 8] >> (i % 8)) & 1u);
    p += packed;
    left -= packed;
    return v;
  }
};

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

void send_v3_round(Channel& ch, const PrecomputedSessionV3& session,
                   std::size_t r) {
  const gc::V3RoundMaterial& m = session.rounds[r];
  V3RoundFrame frame;
  frame.rows = m.rows;
  frame.output_map = m.output_map;
  send_round_frame(ch, frame);
  ch.flush();
}

void answer_v3_round(Channel& ch, const PrecomputedSessionV3& session,
                     std::size_t r, const ot::CorrelatedPoolSender& pool,
                     const ot::PoolClaim& claim) {
  const gc::V3RoundMaterial& m = session.rounds[r];
  const std::size_t n_in = m.evaluator_pairs.size();
  const std::uint64_t first = claim.start + r * n_in;
  if (first + n_in > claim.start + claim.count)
    throw std::logic_error("answer_v3_round: round overruns the claim");
  std::vector<std::uint8_t> d((n_in + 7) / 8);
  ch.recv_bytes(d.data(), d.size());
  for (std::size_t j = 0; j < n_in; ++j) {
    crypto::Block z = pool.pad(first + j) ^ m.evaluator_pairs[j].first;
    if ((d[j / 8] >> (j % 8)) & 1u) z ^= session.delta;
    ch.send_block(z);
  }
  ch.flush();
}

void serve_v3_rounds(Channel& ch, const circuit::Circuit& c,
                     const PrecomputedSessionV3& session,
                     ot::CorrelatedPoolSender& pool,
                     const ot::PoolClaim& claim) {
  const std::size_t n_in = c.evaluator_inputs.size();
  if (claim.count != session.round_count() * n_in)
    throw std::logic_error("serve_v3_rounds: claim size mismatch");
  if (session.pool_lineage != delta_lineage(pool.delta()))
    throw std::logic_error(
        "serve_v3_rounds: session garbled under a different delta than the "
        "pool correlation secret");

  SeedExpansionRecord seed;
  seed.label_seed = session.label_seed;
  send_seed_expansion(ch, seed);
  for (std::size_t r = 0; r < session.round_count(); ++r) {
    send_v3_round(ch, session, r);
    answer_v3_round(ch, session, r, pool, claim);
  }
}

std::vector<bool> eval_v3_rounds(
    Channel& ch, const circuit::Circuit& c, const gc::V3Analysis& an,
    const std::vector<std::vector<bool>>& evaluator_bits,
    ot::CorrelatedPoolReceiver& pool, std::uint64_t claim_start) {
  const std::size_t n_in = c.evaluator_inputs.size();
  const SeedExpansionRecord seed = recv_seed_expansion(ch);
  gc::V3Evaluator evaluator(c, an, seed.label_seed);
  // Corrections from the seed record apply to every round's late-bound
  // garbler inputs; the demo flow ships none.
  const std::vector<std::pair<std::uint32_t, crypto::Block>>& corrections =
      seed.corrections;

  const std::size_t d_bytes = (n_in + 7) / 8;
  std::vector<std::uint8_t> d(d_bytes);
  std::vector<crypto::Block> labels(n_in);
  std::vector<bool> decoded;
  std::uint64_t idx = claim_start;
  for (const auto& bits : evaluator_bits) {
    if (bits.size() != n_in)
      throw std::invalid_argument("eval_v3_rounds: evaluator bit count");
    const V3RoundFrame frame =
        recv_round_frame(ch, an.rows_per_round, c.outputs.size());

    std::fill(d.begin(), d.end(), 0);
    for (std::size_t j = 0; j < n_in; ++j)
      if (bits[j] != pool.choice(idx + j))
        d[j / 8] |= static_cast<std::uint8_t>(1u << (j % 8));
    ch.send_bytes(d.data(), d.size());
    ch.flush();

    for (std::size_t j = 0; j < n_in; ++j, ++idx)
      labels[j] = pool.pad(idx) ^ ch.recv_block();

    const auto out = evaluator.eval_round(frame.rows, bits, labels,
                                          corrections);
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
  buf.insert(buf.end(), kSessionV3Magic, kSessionV3Magic + 8);
  put_block(buf, s.delta);
  put_block(buf, s.label_seed);
  put_u64(buf, s.pool_lineage);
  put_u64(buf, s.rounds.size());
  for (const auto& r : s.rounds) {
    put_blocks(buf, r.rows);
    put_u64(buf, r.evaluator_pairs.size());
    for (const auto& [l0, l1] : r.evaluator_pairs) {
      (void)l1;  // always l0 ^ delta; reconstructed on load
      put_block(buf, l0);
    }
    put_bits(buf, r.output_map);
    put_blocks(buf, r.late_labels0);
  }
  return buf;
}

PrecomputedSessionV3 parse_session_v3(const std::uint8_t* data,
                                      std::size_t n) {
  Reader rd{data, n};
  rd.need(8, "session magic");
  if (std::memcmp(rd.p, kSessionV3Magic, 8) != 0) bad("bad session magic");
  rd.p += 8;
  rd.left -= 8;
  PrecomputedSessionV3 s;
  s.delta = rd.block("delta");
  if ((s.delta.lo & 1u) == 0) bad("delta lsb is 0");
  s.label_seed = rd.block("label seed");
  s.pool_lineage = rd.u64("pool lineage");
  if (s.pool_lineage != delta_lineage(s.delta))
    bad("pool lineage does not match delta");
  const std::uint64_t rounds = rd.count(kMaxV3SessionRounds, 1, "round");
  s.rounds.reserve(rounds);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    gc::V3RoundMaterial m;
    m.rows = rd.blocks("ciphertext row");
    const std::uint64_t pairs = rd.count(kMaxV3Rows, 16, "evaluator label");
    m.evaluator_pairs.reserve(pairs);
    for (std::uint64_t i = 0; i < pairs; ++i) {
      const crypto::Block l0 = rd.block("evaluator label");
      m.evaluator_pairs.emplace_back(l0, l0 ^ s.delta);
    }
    m.output_map = rd.bits("output map");
    m.late_labels0 = rd.blocks("late label");
    s.rounds.push_back(std::move(m));
  }
  if (rd.left != 0) bad("trailing bytes");
  return s;
}

}  // namespace maxel::proto
