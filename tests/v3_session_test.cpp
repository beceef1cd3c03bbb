// Session-layer tests for the v3 protocol core: full garble/serve/eval
// round trips fed by the correlated-OT pool, claim lifecycle across
// back-to-back sessions, lineage checks, and the spool byte codec.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/circuits.hpp"
#include "circuit/netlist.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"
#include "proto/threaded_channel.hpp"
#include "proto/v3_session.hpp"
#include "sweep_env.hpp"

namespace maxel {
namespace {

using circuit::MacOptions;
using crypto::Block;
using crypto::SystemRandom;

Block make_delta(SystemRandom& rng) {
  Block d = rng.next_block();
  d.lo |= 1u;
  return d;
}

std::vector<std::vector<bool>> random_bits(crypto::Prg& prg,
                                           std::size_t rounds,
                                           std::size_t width) {
  std::vector<std::vector<bool>> out(rounds);
  for (auto& row : out) row = prg.bits(width);
  return out;
}

std::vector<bool> plain_final(const circuit::Circuit& c,
                              const std::vector<std::vector<bool>>& g,
                              const std::vector<std::vector<bool>>& e) {
  std::vector<bool> state(c.dffs.size());
  for (std::size_t i = 0; i < c.dffs.size(); ++i) state[i] = c.dffs[i].init;
  std::vector<bool> out;
  for (std::size_t r = 0; r < g.size(); ++r)
    out = circuit::eval_plain(c, g[r], e[r], &state);
  return out;
}

// A server/client pool pair with the base OT already run (interleaved
// over a MemoryChannel pair) and one extension batch materialized.
struct PoolPair {
  ot::CorrelatedPoolSender server;
  ot::CorrelatedPoolReceiver client;
  Block delta;

  explicit PoolPair(std::uint64_t seed, std::size_t extend_n = 2048)
      : server(seeded_delta(seed), /*pool_id=*/seed), delta(server.delta()) {
    SystemRandom s_rng(Block{seed, 11});
    SystemRandom c_rng(Block{seed, 13});
    auto [s_ch, c_ch] = proto::MemoryChannel::create_pair();
    ot::pool_base_setup(server, client, *s_ch, *c_ch, s_rng, c_rng);
    extend(extend_n);
  }

  void extend(std::size_t n) {
    auto [s_ch, c_ch] = proto::MemoryChannel::create_pair();
    client.extend(*c_ch, n);
    server.extend(*s_ch, n);
  }

  static Block seeded_delta(std::uint64_t seed) {
    SystemRandom rng(Block{seed, 7});
    return make_delta(rng);
  }
};

// Garbler side of one session body, as evloop::EvSession runs it: the
// seed record, then the client's d bits for the whole claim, then every
// round in one stream.
void serve_session(proto::Channel& ch, const proto::PrecomputedSessionV3& s,
                   const ot::CorrelatedPoolSender& pool,
                   const ot::PoolClaim& claim) {
  proto::SeedExpansionRecord seed;
  seed.label_seed = s.label_seed;
  proto::send_seed_expansion(ch, seed);
  ch.flush();
  const std::vector<bool> d = ch.recv_bits(claim.count, "d bits");
  proto::send_v3_body(ch, s, pool, claim, d);
}

// Runs one full v3 session over a ThreadedChannel pair and checks the
// decoded final-round outputs against the plaintext reference.
void run_session(const circuit::Circuit& c, PoolPair& pp, std::size_t rounds,
                 std::uint64_t seed) {
  const gc::V3Analysis an = gc::analyze_v3(c);
  crypto::Prg in_prg(Block{seed, 0x5e55});
  const auto g_bits = random_bits(in_prg, rounds, c.garbler_inputs.size());
  const auto e_bits = random_bits(in_prg, rounds, c.evaluator_inputs.size());

  SystemRandom g_rng(Block{seed, 21});
  const Block label_seed = g_rng.next_block();
  const auto session =
      proto::garble_session_v3(c, an, g_bits, pp.delta, label_seed, g_rng);

  const auto claim = pp.server.claim(rounds * c.evaluator_inputs.size());
  pp.client.mark_consumed(claim.start, claim.count);

  auto [s_ch, c_ch] = proto::ThreadedChannel::create_pair();
  std::vector<bool> decoded;
  std::thread evaluator([&] {
    decoded = proto::eval_v3_rounds(*c_ch, c, an, e_bits, pp.client,
                                    claim.start);
  });
  serve_session(*s_ch, session, pp.server, claim);
  evaluator.join();
  pp.server.consume(claim);

  EXPECT_EQ(decoded, plain_final(c, g_bits, e_bits));
}

TEST(V3Session, MacSessionMatchesPlainReference) {
  const auto c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  PoolPair pp(1);
  run_session(c, pp, 16, 1);
}

TEST(V3Session, WideMacAndOtherShapes) {
  PoolPair pp(2);
  run_session(circuit::make_mac_circuit(MacOptions{16, 16, true}), pp, 8, 2);
  run_session(circuit::make_millionaires_circuit(8), pp, 4, 3);
  run_session(circuit::make_multiplier_circuit(MacOptions{6, 6, true}), pp, 5,
              4);
}

TEST(V3Session, ManySessionsShareOnePoolWithMonotoneClaims) {
  const auto c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  PoolPair pp(3);
  std::uint64_t prev_end = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    const std::uint64_t before = pp.server.stats().consumed;
    run_session(c, pp, 4, 100 + s);
    const auto st = pp.server.stats();
    EXPECT_EQ(st.consumed, before + 4 * c.evaluator_inputs.size());
    EXPECT_EQ(st.claimed, 0u);
    EXPECT_GE(pp.client.watermark(), prev_end);
    prev_end = pp.client.watermark();
  }
}

TEST(V3Session, DiscardedClaimBurnsIndicesButPoolRollsForward) {
  const auto c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  PoolPair pp(4);
  // Simulate a session dying before its rounds: claim then discard.
  const auto dead = pp.server.claim(64);
  pp.server.discard(dead);
  const auto st = pp.server.stats();
  EXPECT_EQ(st.discarded, 64u);
  EXPECT_EQ(st.claimed, 0u);
  // The next session claims a strictly later range and still verifies
  // (the client watermark jumps over the burned gap).
  run_session(c, pp, 4, 41);
  EXPECT_GE(pp.client.watermark(), dead.start + dead.count);
}

TEST(V3Session, LineageMismatchIsTyped) {
  const auto c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const gc::V3Analysis an = gc::analyze_v3(c);
  PoolPair pp(5);
  SystemRandom rng(Block{5, 99});
  const Block other_delta = make_delta(rng);
  ASSERT_NE(other_delta, pp.delta);
  crypto::Prg in_prg(Block{5, 0x5e55});
  const auto g_bits = random_bits(in_prg, 1, c.garbler_inputs.size());
  const auto session = proto::garble_session_v3(c, an, g_bits, other_delta,
                                                rng.next_block(), rng);
  const auto claim = pp.server.claim(c.evaluator_inputs.size());
  const std::vector<bool> d(claim.count);
  auto [s_ch, c_ch] = proto::MemoryChannel::create_pair();
  EXPECT_THROW(proto::send_v3_body(*s_ch, session, pp.server, claim, d),
               std::logic_error);
  EXPECT_EQ(s_ch->bytes_sent(), 0u);  // refused before any round left
  pp.server.discard(claim);
}

TEST(V3Session, ClaimSizeMismatchIsTyped) {
  const auto c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const gc::V3Analysis an = gc::analyze_v3(c);
  PoolPair pp(6);
  crypto::Prg in_prg(Block{6, 0x5e55});
  const auto g_bits = random_bits(in_prg, 2, c.garbler_inputs.size());
  SystemRandom rng(Block{6, 21});
  const auto session = proto::garble_session_v3(c, an, g_bits, pp.delta,
                                                rng.next_block(), rng);
  // Claim for one round, session has two.
  const auto claim = pp.server.claim(c.evaluator_inputs.size());
  const std::vector<bool> d(claim.count);
  auto [s_ch, c_ch] = proto::MemoryChannel::create_pair();
  EXPECT_THROW(proto::send_v3_body(*s_ch, session, pp.server, claim, d),
               std::logic_error);
  pp.server.discard(claim);

  // A claim that fits, but d bits that cover only half of it.
  const auto fits = pp.server.claim(2 * c.evaluator_inputs.size());
  const std::vector<bool> short_d(fits.count / 2);
  EXPECT_THROW(proto::send_v3_body(*s_ch, session, pp.server, fits, short_d),
               std::logic_error);
  EXPECT_EQ(s_ch->bytes_sent(), 0u);
  pp.server.discard(fits);
}

TEST(V3SessionCodec, RoundTripsAndServesIdentically) {
  const auto c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const gc::V3Analysis an = gc::analyze_v3(c);
  PoolPair pp(7);
  crypto::Prg in_prg(Block{7, 0x5e55});
  const std::size_t rounds = 6;
  const auto g_bits = random_bits(in_prg, rounds, c.garbler_inputs.size());
  const auto e_bits = random_bits(in_prg, rounds, c.evaluator_inputs.size());
  SystemRandom rng(Block{7, 21});
  const auto session = proto::garble_session_v3(c, an, g_bits, pp.delta,
                                                rng.next_block(), rng);

  const auto bytes = proto::serialize_session_v3(session);
  const auto loaded = proto::parse_session_v3(bytes.data(), bytes.size());
  ASSERT_EQ(loaded.round_count(), session.round_count());
  EXPECT_EQ(loaded.delta, session.delta);
  EXPECT_EQ(loaded.label_seed, session.label_seed);
  EXPECT_EQ(loaded.pool_lineage, session.pool_lineage);
  for (std::size_t r = 0; r < rounds; ++r) {
    EXPECT_EQ(loaded.rounds[r].rows, session.rounds[r].rows);
    EXPECT_EQ(loaded.rounds[r].evaluator_pairs,
              session.rounds[r].evaluator_pairs);
    EXPECT_EQ(loaded.rounds[r].output_map, session.rounds[r].output_map);
    EXPECT_EQ(loaded.rounds[r].late_labels0, session.rounds[r].late_labels0);
  }

  // The reloaded session must serve byte-for-byte like the original.
  const auto claim = pp.server.claim(rounds * c.evaluator_inputs.size());
  pp.client.mark_consumed(claim.start, claim.count);
  auto [s_ch, c_ch] = proto::ThreadedChannel::create_pair();
  std::vector<bool> decoded;
  std::thread evaluator([&] {
    decoded = proto::eval_v3_rounds(*c_ch, c, an, e_bits, pp.client,
                                    claim.start);
  });
  serve_session(*s_ch, loaded, pp.server, claim);
  evaluator.join();
  pp.server.consume(claim);
  EXPECT_EQ(decoded, plain_final(c, g_bits, e_bits));
}

// The MXSESS3 byte layout (the spool's v3 disk format) is pinned: a
// seeded session must encode to the exact bytes (length and SHA-256)
// below, and re-encode identically after a parse.
TEST(V3SessionCodec, SerializedFormatIsPinned) {
  const auto c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const gc::V3Analysis an = gc::analyze_v3(c);
  SystemRandom rng(Block{0x5E53, 3});
  const Block delta = make_delta(rng);
  crypto::Prg in_prg(Block{0x5E53, 0x5e55});
  const auto g_bits = random_bits(in_prg, 3, c.garbler_inputs.size());
  const auto session =
      proto::garble_session_v3(c, an, g_bits, delta, rng.next_block(), rng);
  const auto bytes = proto::serialize_session_v3(session);
  EXPECT_EQ(bytes.size(), 7307u);
  EXPECT_EQ(
      crypto::Sha256::hex(crypto::Sha256::hash(bytes.data(), bytes.size())),
      "9c705d57a8f346e612dc951586eabb3ca8896cf73256563f3f3c6312c56e0d5b");
  const auto back = proto::parse_session_v3(bytes.data(), bytes.size());
  EXPECT_EQ(proto::serialize_session_v3(back), bytes);
}

TEST(V3SessionCodec, EveryTruncationFailsTyped) {
  const auto c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const gc::V3Analysis an = gc::analyze_v3(c);
  SystemRandom rng(Block{8, 21});
  const Block delta = make_delta(rng);
  crypto::Prg in_prg(Block{8, 0x5e55});
  const auto g_bits = random_bits(in_prg, 2, c.garbler_inputs.size());
  const auto session =
      proto::garble_session_v3(c, an, g_bits, delta, rng.next_block(), rng);
  const auto bytes = proto::serialize_session_v3(session);
  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_THROW(proto::parse_session_v3(bytes.data(), n),
                 proto::V3FormatError)
        << "truncation at " << n;
  // Trailing garbage is also rejected.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(proto::parse_session_v3(padded.data(), padded.size()),
               proto::V3FormatError);
}

// A set padding bit in an output map is refused: the millionaires
// circuit has one output, so seven bits of its packed byte are padding.
TEST(V3SessionCodec, NonzeroOutputMapPaddingIsRejected) {
  const auto c = circuit::make_millionaires_circuit(8);
  const gc::V3Analysis an = gc::analyze_v3(c);
  SystemRandom rng(Block{12, 21});
  const Block delta = make_delta(rng);
  crypto::Prg in_prg(Block{12, 0x5e55});
  const auto g_bits = random_bits(in_prg, 1, c.garbler_inputs.size());
  const auto session =
      proto::garble_session_v3(c, an, g_bits, delta, rng.next_block(), rng);
  ASSERT_EQ(session.rounds[0].output_map.size(), 1u);
  auto bytes = proto::serialize_session_v3(session);
  ASSERT_NO_THROW((void)proto::parse_session_v3(bytes.data(), bytes.size()));
  // The packed map byte sits right before the late-label count.
  bytes[bytes.size() - 8 - 16 * session.rounds[0].late_labels0.size() - 1] |=
      0x80;
  EXPECT_THROW((void)proto::parse_session_v3(bytes.data(), bytes.size()),
               proto::V3FormatError);
}

TEST(V3SessionCodec, MutationsNeverCrashAndLineageIsChecked) {
  const auto c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const gc::V3Analysis an = gc::analyze_v3(c);
  SystemRandom rng(Block{9, 21});
  const Block delta = make_delta(rng);
  crypto::Prg in_prg(Block{9, 0x5e55});
  const auto g_bits = random_bits(in_prg, 2, c.garbler_inputs.size());
  const auto session =
      proto::garble_session_v3(c, an, g_bits, delta, rng.next_block(), rng);
  const auto bytes = proto::serialize_session_v3(session);

  // Flipping any delta or lineage byte must be caught by the lineage
  // binding (the codec refuses a session whose stored lineage does not
  // match its stored delta).
  for (std::size_t off = 8; off < 8 + 16; ++off) {
    auto m = bytes;
    m[off] ^= 0x40;
    EXPECT_THROW(proto::parse_session_v3(m.data(), m.size()),
                 proto::V3FormatError)
        << "delta byte " << off;
  }

  const std::uint64_t fuzz_seed = test::sweep_seed(10);
  SCOPED_TRACE("fuzz_seed=" + std::to_string(fuzz_seed));
  crypto::Prg prg(Block{fuzz_seed, 0xfa11});
  const int n_trials = test::sweep_trials(200);
  for (int trial = 0; trial < n_trials; ++trial) {
    auto m = bytes;
    const std::size_t hits = 1 + prg.next_below(4);
    for (std::size_t h = 0; h < hits; ++h)
      m[prg.next_below(m.size())] ^=
          static_cast<std::uint8_t>(1 + prg.next_below(255));
    try {
      (void)proto::parse_session_v3(m.data(), m.size());
    } catch (const proto::V3FormatError&) {
    }
  }
}

}  // namespace
}  // namespace maxel
