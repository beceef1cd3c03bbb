#include "proto/session_io.hpp"

#include "proto/codec.hpp"

namespace maxel::proto {
namespace {

constexpr char kMagic[8] = {'M', 'X', 'S', 'E', 'S', 'S', '1', '\0'};
// Smallest encoding of one round: five u64 count prefixes.
constexpr std::size_t kMinRoundBytes = 5 * 8;

std::size_t blocks_size(const std::vector<crypto::Block>& v) {
  return 8 + 16 * v.size();
}

std::size_t encoded_size(const PrecomputedSession& s) {
  std::size_t n =
      sizeof(kMagic) + 1 + 16 + 8 + blocks_size(s.initial_state_labels);
  for (const auto& r : s.rounds)
    n += 8 + r.tables.byte_size(s.scheme) + blocks_size(r.garbler_labels0) +
         8 + 32 * r.evaluator_pairs.size() + blocks_size(r.fixed_labels) +
         8 + packed_bytes(r.output_map.size());
  return n;
}

}  // namespace

std::vector<std::uint8_t> serialize_session(const PrecomputedSession& s) {
  std::vector<std::uint8_t> buf;
  buf.reserve(encoded_size(s));
  ByteWriter w(buf);
  w.bytes(kMagic, sizeof(kMagic));
  w.u8(static_cast<std::uint8_t>(s.scheme));
  w.block(s.delta);
  w.u64(s.rounds.size());
  for (const auto& r : s.rounds) {
    w.u64(r.tables.tables.size());
    gc::tables_to_bytes(r.tables, s.scheme,
                        w.grow(r.tables.byte_size(s.scheme)));
    w.blocks(r.garbler_labels0);
    w.u64(r.evaluator_pairs.size());
    for (const auto& [l0, l1] : r.evaluator_pairs) {
      w.block(l0);
      w.block(l1);
    }
    w.blocks(r.fixed_labels);
    w.counted_bits(r.output_map);
  }
  w.blocks(s.initial_state_labels);
  return buf;
}

PrecomputedSession parse_session(const std::uint8_t* data, std::size_t n) {
  ByteReader<SessionFormatError> rd(data, n, "parse_session");
  rd.magic(kMagic, "session");
  const std::uint8_t scheme = rd.u8("scheme");
  if (scheme > 2) rd.fail("bad scheme");
  PrecomputedSession s;
  s.scheme = static_cast<gc::Scheme>(scheme);
  s.delta = rd.block("delta");
  const std::uint64_t n_rounds =
      rd.count(kMaxSessionRounds, kMinRoundBytes, "round");
  const std::size_t table_bytes = gc::bytes_per_and(s.scheme);
  s.rounds.reserve(n_rounds);
  for (std::uint64_t i = 0; i < n_rounds; ++i) {
    PrecomputedSession::Round r;
    const auto n_tables = static_cast<std::size_t>(
        rd.count(kMaxSessionCount, table_bytes, "table"));
    r.tables = gc::tables_from_bytes(
        rd.take(n_tables * table_bytes, "tables"), n_tables, s.scheme);
    r.garbler_labels0 = rd.blocks(kMaxSessionCount, "garbler label");
    const std::uint64_t n_pairs =
        rd.count(kMaxSessionCount, 32, "evaluator label pair");
    r.evaluator_pairs.reserve(n_pairs);
    for (std::uint64_t k = 0; k < n_pairs; ++k) {
      const crypto::Block l0 = rd.block("evaluator label pair");
      r.evaluator_pairs.emplace_back(l0, rd.block("evaluator label pair"));
    }
    r.fixed_labels = rd.blocks(kMaxSessionCount, "fixed label");
    r.output_map = rd.counted_bits(kMaxSessionCount, "output map bit");
    s.rounds.push_back(std::move(r));
  }
  s.initial_state_labels = rd.blocks(kMaxSessionCount, "state label");
  rd.done("session");
  return s;
}

}  // namespace maxel::proto
