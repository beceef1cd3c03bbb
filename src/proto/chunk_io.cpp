#include "proto/chunk_io.hpp"

#include <string>

#include "proto/codec.hpp"

namespace maxel::proto {
namespace {

constexpr char kMagic[8] = {'M', 'X', 'C', 'H', 'N', 'K', '1', '\0'};
// Smallest encoding of one round: four u64 count prefixes.
constexpr std::size_t kMinRoundBytes = 4 * 8;

}  // namespace

std::vector<std::uint8_t> serialize_chunk(const WireChunk& c) {
  std::vector<std::uint8_t> buf;
  std::size_t estimate = 8 + 1 + 16 + 16 * c.initial_state_labels.size();
  for (const auto& r : c.rounds)
    estimate += r.tables.byte_size(c.scheme) +
                16 * (r.garbler_labels.size() + r.fixed_labels.size()) + 64;
  buf.reserve(estimate);

  ByteWriter w(buf);
  w.bytes(kMagic, sizeof(kMagic));
  w.u8(static_cast<std::uint8_t>(c.scheme));
  w.u64(c.first_round);
  w.u64(c.rounds.size());
  for (const auto& r : c.rounds) {
    w.u64(r.tables.tables.size());
    gc::tables_to_bytes(r.tables, c.scheme,
                        w.grow(r.tables.byte_size(c.scheme)));
    w.blocks(r.garbler_labels);
    w.blocks(r.fixed_labels);
    w.counted_bits(r.output_map);
  }
  w.blocks(c.initial_state_labels);
  return buf;
}

WireChunk parse_chunk(const std::uint8_t* data, std::size_t n) {
  ByteReader<ChunkFormatError> rd(data, n, "parse_chunk");
  rd.magic(kMagic, "chunk");

  WireChunk c;
  const std::uint8_t scheme = rd.u8("scheme");
  if (scheme > 2) rd.fail("bad scheme");
  c.scheme = static_cast<gc::Scheme>(scheme);
  const std::size_t table_bytes = gc::bytes_per_and(c.scheme);

  c.first_round = rd.u64("first_round");
  const std::uint64_t n_rounds =
      rd.count(kMaxChunkRounds, kMinRoundBytes, "round");
  c.rounds.reserve(n_rounds);
  for (std::uint64_t r = 0; r < n_rounds; ++r) {
    WireChunk::Round round;
    const auto n_tables = static_cast<std::size_t>(
        rd.count(kMaxChunkCount, table_bytes, "table"));
    round.tables = gc::tables_from_bytes(
        rd.take(n_tables * table_bytes, "tables"), n_tables, c.scheme);
    round.garbler_labels = rd.blocks(kMaxChunkCount, "garbler label");
    round.fixed_labels = rd.blocks(kMaxChunkCount, "fixed label");
    round.output_map = rd.counted_bits(kMaxChunkCount, "output map bit");
    c.rounds.push_back(std::move(round));
  }
  c.initial_state_labels = rd.blocks(kMaxChunkCount, "state label");
  rd.done("chunk");
  return c;
}

void send_chunk(Channel& ch, const WireChunk& c) {
  const std::vector<std::uint8_t> bytes = serialize_chunk(c);
  ch.send_u64(bytes.size());
  ch.send_bytes(bytes.data(), bytes.size());
}

WireChunk recv_chunk(Channel& ch) {
  const std::uint64_t len = ch.recv_u64();
  if (len == 0 || len > kMaxChunkWireBytes)
    throw ChunkFormatError("recv_chunk: implausible chunk length " +
                           std::to_string(len));
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(len));
  ch.recv_bytes(buf.data(), buf.size());
  return parse_chunk(buf.data(), buf.size());
}

}  // namespace maxel::proto
