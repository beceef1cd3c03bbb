// Streamed-chunk codec: byte-exact round trips, channel framing, and
// malformed-stream rejection in the session_io mold — every truncation,
// bit flip and lying count prefix must surface as a typed error, never
// a crash, a hang, or an OOM-sized allocation. The chunk is what a
// streaming client parses straight off the socket, so its parser faces
// the most hostile bytes in the codebase.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "gc/garble.hpp"
#include "proto/channel.hpp"
#include "proto/chunk_io.hpp"
#include "sweep_env.hpp"

namespace maxel::proto {
namespace {

using circuit::MacOptions;
using crypto::Block;
using crypto::SystemRandom;

// Builds a chunk from genuinely garbled material (real table rows, real
// labels, the round-0 DFF state labels when first_round == 0), with the
// garbler input labels actively selected the way the server does it.
WireChunk make_chunk(const circuit::Circuit& c, std::size_t rounds,
                     std::uint64_t seed, std::uint64_t first_round = 0) {
  SystemRandom rng(Block{seed, 0x77});
  gc::CircuitGarbler g(c, gc::Scheme::kHalfGates, rng);
  WireChunk wc;
  wc.scheme = gc::Scheme::kHalfGates;
  wc.first_round = first_round;
  for (std::size_t r = 0; r < rounds; ++r) {
    gc::RoundMaterial rm = g.garble_round_material();
    WireChunk::Round wr;
    wr.tables = std::move(rm.tables);
    wr.garbler_labels = std::move(rm.garbler_labels0);
    for (std::size_t i = 0; i < wr.garbler_labels.size(); ++i)
      if ((i + r) % 2) wr.garbler_labels[i] ^= g.delta();
    wr.fixed_labels = std::move(rm.fixed_labels);
    wr.output_map = std::move(rm.output_map);
    if (r == 0 && first_round == 0)
      wc.initial_state_labels = g.initial_state_labels();
    wc.rounds.push_back(std::move(wr));
  }
  return wc;
}

void expect_chunks_equal(const WireChunk& a, const WireChunk& b) {
  EXPECT_EQ(a.first_round, b.first_round);
  EXPECT_EQ(a.scheme, b.scheme);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].tables.tables, b.rounds[r].tables.tables);
    EXPECT_EQ(a.rounds[r].garbler_labels, b.rounds[r].garbler_labels);
    EXPECT_EQ(a.rounds[r].fixed_labels, b.rounds[r].fixed_labels);
    EXPECT_EQ(a.rounds[r].output_map, b.rounds[r].output_map);
  }
  EXPECT_EQ(a.initial_state_labels, b.initial_state_labels);
}

TEST(ChunkIo, RoundTripIsExact) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const WireChunk wc = make_chunk(c, 3, 1);
  ASSERT_FALSE(wc.initial_state_labels.empty());  // MAC has DFF state

  const std::vector<std::uint8_t> bytes = serialize_chunk(wc);
  const WireChunk back = parse_chunk(bytes.data(), bytes.size());
  expect_chunks_equal(wc, back);
}

// The MXCHNK1 byte layout is pinned: a seeded chunk must encode to the
// exact bytes (length and SHA-256) below, and re-encode identically
// after a parse.
TEST(ChunkIo, SerializedFormatIsPinned) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const WireChunk wc = make_chunk(c, 3, 0xC4A1);
  const std::vector<std::uint8_t> bytes = serialize_chunk(wc);
  EXPECT_EQ(bytes.size(), 11588u);
  EXPECT_EQ(
      crypto::Sha256::hex(crypto::Sha256::hash(bytes.data(), bytes.size())),
      "daf5817311cc88a74d0b76fa8bf62677b70d3ccb081e93be4cc6281534387924");
  const WireChunk back = parse_chunk(bytes.data(), bytes.size());
  EXPECT_EQ(serialize_chunk(back), bytes);
}

TEST(ChunkIo, MidSessionChunkCarriesNoStateLabels) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(8);
  const WireChunk wc = make_chunk(c, 2, 2, /*first_round=*/16);
  EXPECT_TRUE(wc.initial_state_labels.empty());

  const std::vector<std::uint8_t> bytes = serialize_chunk(wc);
  const WireChunk back = parse_chunk(bytes.data(), bytes.size());
  EXPECT_EQ(back.first_round, 16u);
  expect_chunks_equal(wc, back);
}

// The output map's padding bits must be zero (proto/codec.hpp): the
// millionaires circuit has one output, so seven bits of its packed byte
// are padding.
TEST(ChunkIo, NonzeroOutputMapPaddingIsRejected) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(8);
  const WireChunk wc = make_chunk(c, 1, 4, /*first_round=*/16);
  ASSERT_EQ(wc.rounds[0].output_map.size(), 1u);
  ASSERT_TRUE(wc.initial_state_labels.empty());
  std::vector<std::uint8_t> bytes = serialize_chunk(wc);
  // The packed map byte sits right before the empty state-label count.
  bytes[bytes.size() - 8 - 1] |= 0x80;
  EXPECT_THROW((void)parse_chunk(bytes.data(), bytes.size()),
               ChunkFormatError);
}

TEST(ChunkIo, ChannelFramingMatchesByteCodec) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const WireChunk wc = make_chunk(c, 2, 3);

  auto [tx, rx] = MemoryChannel::create_pair();
  send_chunk(*tx, wc);
  const WireChunk back = recv_chunk(*rx);
  expect_chunks_equal(wc, back);

  // The frame is one length-prefixed record holding exactly the
  // serialize_chunk bytes — re-serializing the received chunk must
  // reproduce them bit for bit.
  EXPECT_EQ(serialize_chunk(back), serialize_chunk(wc));
}

TEST(ChunkIo, RecvRejectsOversizeLengthBeforeAllocating) {
  auto [tx, rx] = MemoryChannel::create_pair();
  tx->send_u64(kMaxChunkWireBytes + 1);  // lying length prefix
  EXPECT_THROW((void)recv_chunk(*rx), ChunkFormatError);
}

// ---------------------------------------------------------------------------
// Hostile-input hardening (mirrors session_io_test): anything but
// success or std::runtime_error — notably std::bad_alloc from an
// OOM-sized reserve — escapes and fails the test.

void parse_must_not_crash(const std::vector<std::uint8_t>& bytes,
                          const char* what) {
  try {
    (void)parse_chunk(bytes.data(), bytes.size());
  } catch (const std::runtime_error&) {
    // Typed rejection: the acceptable failure mode.
  }
  SUCCEED() << what;
}

TEST(ChunkIoFuzz, EveryTruncationFailsTyped) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(4);
  const std::vector<std::uint8_t> full = serialize_chunk(make_chunk(c, 1, 4));
  ASSERT_GT(full.size(), 32u);
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> cut(full.begin(),
                                  full.begin() + static_cast<long>(len));
    EXPECT_THROW((void)parse_chunk(cut.data(), cut.size()),
                 std::runtime_error)
        << "truncated to " << len << " bytes";
  }
}

TEST(ChunkIoFuzz, SingleByteMutationsNeverCrash) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(4);
  const std::vector<std::uint8_t> full = serialize_chunk(make_chunk(c, 2, 5));
  // Every offset, three mutation patterns: bit flip, zero, all-ones.
  // Magic, scheme, counts, table rows and the packed bit tail all get
  // hit; the parser must return a chunk or throw runtime_error.
  for (std::size_t off = 0; off < full.size(); ++off) {
    for (const std::uint8_t m :
         {static_cast<std::uint8_t>(full[off] ^ 0x80),
          static_cast<std::uint8_t>(0x00), static_cast<std::uint8_t>(0xFF)}) {
      std::vector<std::uint8_t> mut = full;
      mut[off] = m;
      parse_must_not_crash(mut, "mutated byte");
    }
  }
}

TEST(ChunkIoFuzz, RandomMultiByteMutationsNeverCrash) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const std::vector<std::uint8_t> full = serialize_chunk(make_chunk(c, 2, 6));
  const std::uint64_t fuzz_seed = test::sweep_seed(0xC4);
  SCOPED_TRACE("fuzz_seed=" + std::to_string(fuzz_seed));
  crypto::Prg prg(Block{fuzz_seed, 0x0E});
  const int n_trials = test::sweep_trials(400);
  for (int trial = 0; trial < n_trials; ++trial) {
    std::vector<std::uint8_t> mut = full;
    const int edits = 1 + static_cast<int>(prg.next_u64() % 8);
    for (int e = 0; e < edits; ++e) {
      const std::size_t off = prg.next_u64() % mut.size();
      mut[off] ^= static_cast<std::uint8_t>(prg.next_u64() | 1);
    }
    // Also sometimes truncate after mutating.
    if (trial % 3 == 0) mut.resize(prg.next_u64() % (mut.size() + 1));
    parse_must_not_crash(mut, "random mutation");
  }
}

TEST(ChunkIoFuzz, HostileCountPrefixesRejectedBeforeAllocation) {
  // Hand-built header: magic, scheme, first_round, then a lying round
  // count.
  const auto header_with_round_count = [](std::uint64_t n_rounds) {
    std::vector<std::uint8_t> b;
    const char magic[8] = {'M', 'X', 'C', 'H', 'N', 'K', '1', '\0'};
    b.insert(b.end(), magic, magic + 8);
    b.push_back(0);  // scheme = half-gates
    for (int i = 0; i < 8; ++i) b.push_back(0);  // first_round = 0
    for (int i = 0; i < 8; ++i)
      b.push_back(static_cast<std::uint8_t>(n_rounds >> (8 * i)));
    return b;
  };

  // Counts beyond the cap are rejected by value, before any allocation.
  for (const std::uint64_t lie : {~std::uint64_t{0}, ~std::uint64_t{0} / 2,
                                  std::uint64_t{kMaxChunkRounds + 1}}) {
    const auto b = header_with_round_count(lie);
    EXPECT_THROW((void)parse_chunk(b.data(), b.size()), ChunkFormatError)
        << "round count " << lie;
  }

  // A count at the cap passes validation but the bytes end immediately:
  // remaining-bytes checks mean this fails fast on EOF instead of
  // reserving cap-many rounds up front.
  const auto at_cap = header_with_round_count(kMaxChunkRounds);
  EXPECT_THROW((void)parse_chunk(at_cap.data(), at_cap.size()),
               ChunkFormatError);

  // Same discipline one level down: plausible round count, hostile
  // table count inside the round.
  auto nested = header_with_round_count(1);
  for (int i = 0; i < 8; ++i) nested.push_back(0xFF);  // table count ~0
  EXPECT_THROW((void)parse_chunk(nested.data(), nested.size()),
               ChunkFormatError);
}

}  // namespace
}  // namespace maxel::proto
