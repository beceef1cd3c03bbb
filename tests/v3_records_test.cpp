// Protocol-v3 compact wire records (proto/v3_records.hpp): byte-exact
// round trips, channel framing, and the chunk_io hostile-input drill —
// every truncation, every per-byte mutation, and every lying count
// prefix must surface as a typed error, never a crash, a hang, or an
// OOM-sized allocation. These are the first bytes a v3 peer parses off
// the socket, before any cryptographic check can help.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "proto/channel.hpp"
#include "proto/v3_records.hpp"
#include "sweep_env.hpp"

namespace maxel::proto {
namespace {

using crypto::Block;
using crypto::SystemRandom;

SeedExpansionRecord make_seed_record(std::uint64_t seed,
                                     std::size_t corrections) {
  SystemRandom rng(Block{seed, 0xEC});
  SeedExpansionRecord r;
  r.label_seed = rng.next_block();
  for (std::size_t i = 0; i < corrections; ++i)
    r.corrections.emplace_back(static_cast<std::uint32_t>(3 * i + 1),
                               rng.next_block());
  return r;
}

V3RoundFrame make_frame(std::uint64_t seed, std::size_t rows,
                        std::size_t outputs) {
  SystemRandom rng(Block{seed, 0xF0});
  V3RoundFrame f;
  for (std::size_t i = 0; i < rows; ++i) f.rows.push_back(rng.next_block());
  for (std::size_t i = 0; i < outputs; ++i)
    f.output_map.push_back(rng.next_bit());
  return f;
}

ResumptionTicket make_ticket(std::uint64_t seed) {
  SystemRandom rng(Block{seed, 0x71});
  ResumptionTicket t;
  t.pool_id = rng.next_u64();
  t.client_id = rng.next_block();
  t.cookie = rng.next_block();
  return t;
}

// ---- Round trips ---------------------------------------------------------

TEST(V3Records, SeedExpansionRoundTrip) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{17}}) {
    const SeedExpansionRecord r = make_seed_record(n + 1, n);
    const auto bytes = serialize_seed_expansion(r);
    const SeedExpansionRecord back =
        parse_seed_expansion(bytes.data(), bytes.size());
    EXPECT_EQ(back.label_seed, r.label_seed);
    EXPECT_EQ(back.corrections, r.corrections);
  }
}

TEST(V3Records, RoundFrameRoundTripAndPackedBits) {
  const V3RoundFrame f = make_frame(1, 141, 17);
  const auto bytes = serialize_round_frame(f);
  // Select bits ride 8-per-byte: 4 + rows*16 + 4 + ceil(17/8).
  EXPECT_EQ(bytes.size(), V3RoundFrame::wire_size(141, 17));
  EXPECT_EQ(bytes.size(), 4u + 141 * 16 + 4 + 3);
  const V3RoundFrame back = parse_round_frame(bytes.data(), bytes.size(),
                                              141, 17);
  EXPECT_EQ(back.rows, f.rows);
  EXPECT_EQ(back.output_map, f.output_map);
}

TEST(V3Records, TicketRoundTripIsFixedSize) {
  const ResumptionTicket t = make_ticket(5);
  const auto bytes = serialize_ticket(t);
  EXPECT_EQ(bytes.size(), ResumptionTicket::kWireSize);
  const ResumptionTicket back = parse_ticket(bytes.data(), bytes.size());
  EXPECT_EQ(back.pool_id, t.pool_id);
  EXPECT_EQ(back.client_id, t.client_id);
  EXPECT_EQ(back.cookie, t.cookie);
}

TEST(V3Records, ChannelFramingMatchesByteCodecs) {
  auto [tx, rx] = MemoryChannel::create_pair();

  const SeedExpansionRecord r = make_seed_record(2, 5);
  send_seed_expansion(*tx, r);
  const SeedExpansionRecord r2 = recv_seed_expansion(*rx);
  EXPECT_EQ(serialize_seed_expansion(r2), serialize_seed_expansion(r));

  const V3RoundFrame f = make_frame(3, 64, 24);
  send_round_frame(*tx, f);
  const V3RoundFrame f2 = recv_round_frame(*rx, 64, 24);
  EXPECT_EQ(serialize_round_frame(f2), serialize_round_frame(f));

  const ResumptionTicket t = make_ticket(4);
  send_ticket(*tx, t);
  const ResumptionTicket t2 = recv_ticket(*rx);
  EXPECT_EQ(serialize_ticket(t2), serialize_ticket(t));

  const V3ClientSetup cs{1000, 400};
  send_client_setup(*tx, cs);
  const V3ClientSetup cs2 = recv_client_setup(*rx);
  EXPECT_EQ(cs2.extended, cs.extended);
  EXPECT_EQ(cs2.watermark, cs.watermark);

  V3ServerSetup ss;
  ss.fresh = true;
  ss.pool_id = 9;
  ss.cookie = Block{7, 8};
  ss.start_index = 128;
  ss.claim_count = 64;
  ss.extend_count = 8192;
  send_server_setup(*tx, ss);
  const V3ServerSetup ss2 = recv_server_setup(*rx);
  EXPECT_EQ(ss2.fresh, ss.fresh);
  EXPECT_EQ(ss2.pool_id, ss.pool_id);
  EXPECT_EQ(ss2.cookie, ss.cookie);
  EXPECT_EQ(ss2.start_index, ss.start_index);
  EXPECT_EQ(ss2.claim_count, ss.claim_count);
  EXPECT_EQ(ss2.extend_count, ss.extend_count);
}

TEST(V3Records, RecvRejectsOversizeSeedRecordBeforeAllocating) {
  auto [tx, rx] = MemoryChannel::create_pair();
  tx->send_u64(~std::uint64_t{0});  // lying length prefix
  EXPECT_THROW((void)recv_seed_expansion(*rx), V3FormatError);
}

TEST(V3Records, FrameCountMismatchesAreTyped) {
  const V3RoundFrame f = make_frame(6, 10, 8);
  const auto bytes = serialize_round_frame(f);
  // Same bytes, wrong structural expectation: rejected by value.
  EXPECT_THROW((void)parse_round_frame(bytes.data(), bytes.size(), 11, 8),
               V3FormatError);
  EXPECT_THROW((void)parse_round_frame(bytes.data(), bytes.size(), 10, 9),
               V3FormatError);
  // Expectations beyond the caps are a caller bug surfaced as an error,
  // not an allocation.
  EXPECT_THROW(
      (void)parse_round_frame(bytes.data(), bytes.size(), kMaxV3Rows + 1, 8),
      V3FormatError);
}

TEST(V3Records, ServerSetupValidatesByValue) {
  auto [tx, rx] = MemoryChannel::create_pair();
  V3ServerSetup ss;
  ss.fresh = false;
  ss.extend_count = ot::kMaxPoolExtend + 1;  // hostile extension demand
  send_server_setup(*tx, ss);
  EXPECT_THROW((void)recv_server_setup(*rx), V3FormatError);
  ss.extend_count = 0;
  ss.claim_count = ot::kMaxPoolExtend + 1;  // hostile claim
  send_server_setup(*tx, ss);
  EXPECT_THROW((void)recv_server_setup(*rx), V3FormatError);

  V3ClientSetup cs{10, 11};  // watermark above extended: inconsistent
  send_client_setup(*tx, cs);
  EXPECT_THROW((void)recv_client_setup(*rx), V3FormatError);
}

// ---------------------------------------------------------------------------
// Hostile-input drill (same shape as chunk_io_test): anything but
// success or std::runtime_error — notably std::bad_alloc — escapes and
// fails the test.

template <typename Parse>
void must_not_crash(const std::vector<std::uint8_t>& bytes, Parse parse,
                    const char* what) {
  try {
    (void)parse(bytes.data(), bytes.size());
  } catch (const std::runtime_error&) {
    // Typed rejection: the acceptable failure mode.
  }
  SUCCEED() << what;
}

TEST(V3RecordsFuzz, EveryTruncationFailsTyped) {
  const auto seed_bytes = serialize_seed_expansion(make_seed_record(7, 6));
  for (std::size_t len = 0; len < seed_bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(seed_bytes.begin(),
                                  seed_bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)parse_seed_expansion(cut.data(), cut.size()),
                 std::runtime_error)
        << "seed record truncated to " << len;
  }
  const auto frame_bytes = serialize_round_frame(make_frame(8, 12, 9));
  for (std::size_t len = 0; len < frame_bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(
        frame_bytes.begin(), frame_bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)parse_round_frame(cut.data(), cut.size(), 12, 9),
                 std::runtime_error)
        << "round frame truncated to " << len;
  }
  const auto ticket_bytes = serialize_ticket(make_ticket(9));
  for (std::size_t len = 0; len < ticket_bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(
        ticket_bytes.begin(), ticket_bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)parse_ticket(cut.data(), cut.size()),
                 std::runtime_error)
        << "ticket truncated to " << len;
  }
}

TEST(V3RecordsFuzz, SingleByteMutationsNeverCrash) {
  const auto seed_bytes = serialize_seed_expansion(make_seed_record(10, 4));
  const auto frame_bytes = serialize_round_frame(make_frame(11, 8, 5));
  const auto ticket_bytes = serialize_ticket(make_ticket(12));
  const auto drill = [](const std::vector<std::uint8_t>& full, auto parse,
                        const char* what) {
    for (std::size_t off = 0; off < full.size(); ++off) {
      for (const std::uint8_t m : {static_cast<std::uint8_t>(full[off] ^ 0x80),
                                   static_cast<std::uint8_t>(0x00),
                                   static_cast<std::uint8_t>(0xFF)}) {
        std::vector<std::uint8_t> mut = full;
        mut[off] = m;
        must_not_crash(mut, parse, what);
      }
    }
  };
  drill(seed_bytes,
        [](const std::uint8_t* d, std::size_t n) {
          return parse_seed_expansion(d, n);
        },
        "seed record");
  drill(frame_bytes,
        [](const std::uint8_t* d, std::size_t n) {
          return parse_round_frame(d, n, 8, 5);
        },
        "round frame");
  drill(ticket_bytes,
        [](const std::uint8_t* d, std::size_t n) { return parse_ticket(d, n); },
        "ticket");
}

TEST(V3RecordsFuzz, RandomMultiByteMutationsNeverCrash) {
  const auto full = serialize_seed_expansion(make_seed_record(13, 12));
  const std::uint64_t fuzz_seed = test::sweep_seed(0xF3);
  SCOPED_TRACE("fuzz_seed=" + std::to_string(fuzz_seed));
  crypto::Prg prg(Block{fuzz_seed, 0x3D});
  const int n_trials = test::sweep_trials(400);
  for (int trial = 0; trial < n_trials; ++trial) {
    std::vector<std::uint8_t> mut = full;
    const int edits = 1 + static_cast<int>(prg.next_u64() % 8);
    for (int e = 0; e < edits; ++e) {
      const std::size_t off = prg.next_u64() % mut.size();
      mut[off] ^= static_cast<std::uint8_t>(prg.next_u64() | 1);
    }
    if (trial % 3 == 0) mut.resize(prg.next_u64() % (mut.size() + 1));
    must_not_crash(mut,
                   [](const std::uint8_t* d, std::size_t n) {
                     return parse_seed_expansion(d, n);
                   },
                   "random mutation");
  }
}

TEST(V3RecordsFuzz, HostileCountPrefixesRejectedBeforeAllocation) {
  // Hand-built seed record header with a lying correction count.
  const auto header_with_count = [](std::uint64_t n) {
    std::vector<std::uint8_t> b;
    const char magic[8] = {'M', 'X', 'S', 'E', 'E', 'D', '3', '\0'};
    b.insert(b.end(), magic, magic + 8);
    for (int i = 0; i < 16; ++i) b.push_back(0xAB);  // label seed
    for (int i = 0; i < 8; ++i)
      b.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
    return b;
  };
  // Beyond the cap: rejected by value before any allocation.
  for (const std::uint64_t lie : {~std::uint64_t{0}, ~std::uint64_t{0} / 2,
                                  std::uint64_t{kMaxV3Corrections + 1}}) {
    const auto b = header_with_count(lie);
    EXPECT_THROW((void)parse_seed_expansion(b.data(), b.size()),
                 V3FormatError)
        << "correction count " << lie;
  }
  // At the cap: passes value validation, fails on remaining-bytes — no
  // cap-sized reserve happens.
  const auto at_cap = header_with_count(kMaxV3Corrections);
  EXPECT_THROW((void)parse_seed_expansion(at_cap.data(), at_cap.size()),
               V3FormatError);

  // Round frame: a lying row count never survives against the structural
  // expectation, even when the buffer claims to be big enough.
  std::vector<std::uint8_t> frame(4 + 16, 0);
  frame[0] = 0xFF;
  frame[1] = 0xFF;
  frame[2] = 0xFF;
  frame[3] = 0xFF;
  EXPECT_THROW((void)parse_round_frame(frame.data(), frame.size(), 1, 1),
               V3FormatError);
}

}  // namespace
}  // namespace maxel::proto
