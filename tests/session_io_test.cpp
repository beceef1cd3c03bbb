// Session persistence: byte-exact round trips, a served-after-reload
// end-to-end run, and malformed-stream rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "proto/precompute.hpp"
#include "proto/protocol.hpp"
#include "proto/session_io.hpp"
#include "sweep_env.hpp"

namespace maxel::proto {
namespace {

using circuit::MacOptions;
using circuit::to_bits;
using crypto::Block;
using crypto::SystemRandom;

PrecomputedSession make_session(const circuit::Circuit& c, std::size_t rounds,
                                std::uint64_t seed) {
  GarblingBank bank(c, gc::Scheme::kHalfGates, rounds);
  SystemRandom rng(Block{seed, 0x10});
  bank.precompute(1, rng);
  return bank.take_session();
}

TEST(SessionIo, RoundTripIsExact) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const PrecomputedSession s = make_session(c, 4, 1);

  const std::vector<std::uint8_t> bytes = serialize_session(s);
  const PrecomputedSession t = parse_session(bytes.data(), bytes.size());

  EXPECT_EQ(t.scheme, s.scheme);
  EXPECT_EQ(t.delta, s.delta);
  ASSERT_EQ(t.rounds.size(), s.rounds.size());
  for (std::size_t r = 0; r < s.rounds.size(); ++r) {
    EXPECT_EQ(t.rounds[r].tables.tables, s.rounds[r].tables.tables);
    EXPECT_EQ(t.rounds[r].garbler_labels0, s.rounds[r].garbler_labels0);
    EXPECT_EQ(t.rounds[r].evaluator_pairs, s.rounds[r].evaluator_pairs);
    EXPECT_EQ(t.rounds[r].fixed_labels, s.rounds[r].fixed_labels);
    EXPECT_EQ(t.rounds[r].output_map, s.rounds[r].output_map);
  }
  EXPECT_EQ(t.initial_state_labels, s.initial_state_labels);
}

TEST(SessionIo, ReloadedSessionServesCorrectly) {
  const MacOptions mac{8, 8, true};
  const circuit::Circuit c = circuit::make_mac_circuit(mac);
  const std::vector<std::uint8_t> bytes =
      serialize_session(make_session(c, 5, 2));
  PrecomputedSession reloaded = parse_session(bytes.data(), bytes.size());

  auto [g_ch, e_ch] = MemoryChannel::create_pair();
  SystemRandom g_rng(Block{3, 1});
  SystemRandom e_rng(Block{3, 2});
  PrecomputedGarblerParty garbler(std::move(reloaded), *g_ch, g_rng);
  ProtocolOptions opt;
  opt.ot = OtMode::kBase;
  EvaluatorParty evaluator(c, opt, *e_ch, e_rng);

  crypto::Prg prg(Block{4, 4});
  std::uint64_t expect = 0;
  std::vector<bool> out;
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t a = prg.next_u64() & 0xFF;
    const std::uint64_t x = prg.next_u64() & 0xFF;
    expect = circuit::mac_reference(expect, a, x, mac);
    garbler.garble_and_send(to_bits(a, 8));
    evaluator.receive_and_choose(to_bits(x, 8));
    garbler.finish_ot();
    out = evaluator.evaluate_round();
  }
  EXPECT_EQ(circuit::from_bits(out), expect);
}

// The spool's path: the serialized bytes go to a file and come back.
TEST(SessionIo, FileRoundTrip) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(8);
  const PrecomputedSession s = make_session(c, 1, 5);
  const std::string path = ::testing::TempDir() + "maxel_session_test.bin";
  const std::vector<std::uint8_t> bytes = serialize_session(s);
  {
    std::ofstream os(path, std::ios::binary);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good());
  }
  std::ifstream is(path, std::ios::binary);
  const std::vector<std::uint8_t> read{std::istreambuf_iterator<char>(is),
                                       std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  const PrecomputedSession t = parse_session(read.data(), read.size());
  EXPECT_EQ(t.delta, s.delta);
  EXPECT_EQ(t.rounds.size(), 1u);
}

TEST(SessionIo, ReserializeIsByteIdentical) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const PrecomputedSession s = make_session(c, 3, 9);

  const std::vector<std::uint8_t> via_bytes = serialize_session(s);
  const PrecomputedSession t = parse_session(via_bytes.data(),
                                             via_bytes.size());
  EXPECT_EQ(t.delta, s.delta);
  EXPECT_EQ(t.rounds.size(), s.rounds.size());
  EXPECT_EQ(serialize_session(t), via_bytes);
}

// The byte layout is pinned: a seeded session must encode to the exact
// bytes (length and SHA-256) the MXSESS1 files on disk hold, and
// re-encode identically after a parse.
TEST(SessionIo, SerializedFormatIsPinned) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  SystemRandom rng(Block{0x5E55, 0x10});
  const PrecomputedSession s =
      garble_session(c, gc::Scheme::kHalfGates, 3, rng);
  const std::vector<std::uint8_t> bytes = serialize_session(s);
  EXPECT_EQ(bytes.size(), 12388u);
  EXPECT_EQ(
      crypto::Sha256::hex(crypto::Sha256::hash(bytes.data(), bytes.size())),
      "8fc7b9be50eb383339b3362053dd6b87bf26ecb09468b180fe63d4be4c80eddd");
  const PrecomputedSession t = parse_session(bytes.data(), bytes.size());
  EXPECT_EQ(serialize_session(t), bytes);
}

TEST(SessionIo, RejectsCorruptStreams) {
  const std::string bad_magic = "NOTASESSIONxxxxxxxxxxxxxxxxx";
  EXPECT_THROW((void)parse_session(
                   reinterpret_cast<const std::uint8_t*>(bad_magic.data()),
                   bad_magic.size()),
               std::runtime_error);

  const circuit::Circuit c = circuit::make_millionaires_circuit(4);
  const PrecomputedSession s = make_session(c, 1, 6);
  const std::vector<std::uint8_t> full = serialize_session(s);
  EXPECT_THROW((void)parse_session(full.data(), full.size() / 2),
               std::runtime_error);

  // Trailing bytes after the record are refused.
  std::vector<std::uint8_t> trailing = full;
  trailing.push_back(0);
  EXPECT_THROW((void)parse_session(trailing.data(), trailing.size()),
               SessionFormatError);

  // So is a set padding bit in the one-output map, whose packed byte
  // sits right before the state labels.
  ASSERT_EQ(s.rounds[0].output_map.size(), 1u);
  std::vector<std::uint8_t> padded = full;
  padded[full.size() - 8 - 16 * s.initial_state_labels.size() - 1] |= 0x80;
  EXPECT_THROW((void)parse_session(padded.data(), padded.size()),
               SessionFormatError);
}

// ---------------------------------------------------------------------------
// Hostile-input hardening: the spool reads session files off disk, so a
// loader facing mutated bytes must fail with a typed error — never
// crash, hang, or attempt a count-prefix-sized allocation.

// Parses arbitrary bytes; anything but success or std::runtime_error
// (SessionFormatError derives from it) escapes and fails the test —
// notably std::bad_alloc from an OOM-sized reserve.
void parse_must_not_crash(const std::vector<std::uint8_t>& bytes,
                          const char* what) {
  try {
    (void)parse_session(bytes.data(), bytes.size());
  } catch (const std::runtime_error&) {
    // Typed rejection: the acceptable failure mode.
  }
  SUCCEED() << what;
}

TEST(SessionIoFuzz, EveryTruncationFailsTyped) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(4);
  const std::vector<std::uint8_t> full =
      serialize_session(make_session(c, 1, 11));
  ASSERT_GT(full.size(), 64u);
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> cut(full.begin(),
                                  full.begin() + static_cast<long>(len));
    EXPECT_THROW((void)parse_session(cut.data(), cut.size()),
                 std::runtime_error)
        << "truncated to " << len << " bytes";
  }
}

TEST(SessionIoFuzz, SingleByteMutationsNeverCrash) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(4);
  const std::vector<std::uint8_t> full =
      serialize_session(make_session(c, 2, 12));
  // Every offset, three mutation patterns: bit flip, zero, all-ones.
  // Counts, magic, scheme, table rows and the packed bit tail all get
  // hit; the loader must return a session or throw runtime_error.
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

TEST(SessionIoFuzz, RandomMultiByteMutationsNeverCrash) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const std::vector<std::uint8_t> full =
      serialize_session(make_session(c, 2, 13));
  const std::uint64_t fuzz_seed = test::sweep_seed(0xF0);
  SCOPED_TRACE("fuzz_seed=" + std::to_string(fuzz_seed));
  crypto::Prg prg(Block{fuzz_seed, 0x0D});
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

TEST(SessionIoFuzz, HostileCountPrefixesRejectedBeforeAllocation) {
  // Hand-built header: magic, scheme, delta, then a lying round count.
  const auto header_with_round_count = [](std::uint64_t n_rounds) {
    std::vector<std::uint8_t> b;
    const char magic[8] = {'M', 'X', 'S', 'E', 'S', 'S', '1', '\0'};
    b.insert(b.end(), magic, magic + 8);
    b.push_back(0);                    // scheme = half-gates
    b.insert(b.end(), 16, 0x42);       // delta
    for (int i = 0; i < 8; ++i)
      b.push_back(static_cast<std::uint8_t>(n_rounds >> (8 * i)));
    return b;
  };

  // Counts beyond the cap are rejected by value, before any allocation.
  for (const std::uint64_t lie : {~std::uint64_t{0}, ~std::uint64_t{0} / 2,
                                  std::uint64_t{kMaxSessionRounds + 1}}) {
    const auto b = header_with_round_count(lie);
    EXPECT_THROW((void)parse_session(b.data(), b.size()), SessionFormatError)
        << "round count " << lie;
  }

  // A count at the cap passes validation but the stream ends
  // immediately: incremental growth means this fails fast on EOF
  // instead of reserving cap-many rounds up front.
  const auto at_cap = header_with_round_count(kMaxSessionRounds);
  EXPECT_THROW((void)parse_session(at_cap.data(), at_cap.size()),
               SessionFormatError);

  // Same discipline one level down: plausible round count, hostile
  // table count inside the round.
  auto nested = header_with_round_count(1);
  for (int i = 0; i < 8; ++i) nested.push_back(0xFF);  // table count ~0
  EXPECT_THROW((void)parse_session(nested.data(), nested.size()),
               SessionFormatError);
}

}  // namespace
}  // namespace maxel::proto
