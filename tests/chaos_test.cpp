// Chaos tier: deterministic fault injection against the full network
// stack.
//
// Three layers of coverage, all driven by seeded FaultPlans
// (net/fault.hpp) so every failure reproduces exactly from the plan
// string logged via SCOPED_TRACE:
//
//   * unit: FaultPlan parsing round-trips and rejects nonsense;
//     FaultyChannel over MemoryChannel executes each fault kind with
//     bit-exact predictability (the flip position is computable from
//     the seed);
//   * recovery: net::Client's SessionRetryPolicy survives mid-handshake
//     closes, mid-transfer closes, connect refusals, corrupted
//     sessions, and stalled peers — always by re-running a *fresh*
//     session, never by resuming one (wire labels are single-use; the
//     no-reuse test compares captured wire bytes across attempts);
//   * recovery runs against the serving front (evloop::EvBroker),
//     including server-side faults injected through its fault_plan.
//
// The seeded scenario matrix (every plan x every session mode, injected
// on the client and on the server) lives in evloop_chaos_test.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/rng.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "net/fault.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"
#include "evloop/session.hpp"
#include "live_broker.hpp"

namespace maxel {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// FaultPlan: parsing, round-trip, validation.

TEST(FaultPlan, ParsesEveryKindAndRoundTrips) {
  const std::string spec =
      "seed=7;close@send:3;stall@recv:1:250;flip@recv:9;trunc@send:4;"
      "split@send:2;refuse@connect:0;close@recv:11";
  const net::FaultPlan plan = net::FaultPlan::parse(spec);
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.events.size(), 7u);
  EXPECT_EQ(plan.events[0].kind, net::FaultKind::kClose);
  EXPECT_EQ(plan.events[0].op, net::FaultOp::kSend);
  EXPECT_EQ(plan.events[0].index, 3u);
  EXPECT_EQ(plan.events[1].kind, net::FaultKind::kStall);
  EXPECT_EQ(plan.events[1].param, 250u);
  EXPECT_EQ(plan.events[5].kind, net::FaultKind::kRefuseConnect);
  EXPECT_EQ(plan.events[5].op, net::FaultOp::kConnect);

  // to_string emits the canonical grammar; reparsing is a fixed point.
  EXPECT_EQ(plan.to_string(), spec);
  EXPECT_EQ(net::FaultPlan::parse(plan.to_string()).to_string(), spec);
}

TEST(FaultPlan, AcceptsCommasAndSpacesAndEmptySpec) {
  const net::FaultPlan plan =
      net::FaultPlan::parse("seed=3, close@recv:2 ,\tstall@send:0:10");
  EXPECT_EQ(plan.seed, 3u);
  EXPECT_EQ(plan.events.size(), 2u);

  const net::FaultPlan empty = net::FaultPlan::parse("");
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.seed, 1u);  // default seed survives an empty spec
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const char* bad[] = {
      "boom@send:1",      // unknown kind
      "close@sideways:1", // unknown op
      "close@send",       // missing index
      "close@send:x",     // non-numeric index
      "trunc@recv:1",     // truncation is send-only
      "split@recv:1",     // so is splitting
      "stall@send:1",     // stall needs a duration
      "stall@send:1:0",   // ... a nonzero one
      "refuse@send:0",    // refuse goes with connect
      "close@connect:0",  // and only refuse does
      "flip@send:1:5",    // only stall takes a parameter
      "seed=",            // empty seed
  };
  for (const char* spec : bad) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(net::FaultPlan::parse(spec), std::invalid_argument);
  }
}

TEST(FaultInjector, EventsFireOnceAndDeterministically) {
  const net::FaultPlan plan = net::FaultPlan::parse("seed=9;flip@send:1");
  net::FaultInjector a(plan), b(plan);

  EXPECT_EQ(a.on_send().kind, net::FaultKind::kNone);  // op 0: clean
  const auto fired = a.on_send();                      // op 1: the flip
  EXPECT_EQ(fired.kind, net::FaultKind::kFlip);
  EXPECT_EQ(a.on_send().kind, net::FaultKind::kNone);  // fired once only
  EXPECT_EQ(a.faults_fired(), 1u);

  // A fresh injector with the same plan replays the same seeded value.
  (void)b.on_send();
  EXPECT_EQ(b.on_send().rand, fired.rand);
  EXPECT_EQ(fired.rand,
            net::fault_mix64(9 ^ net::fault_mix64(
                                     (static_cast<std::uint64_t>(
                                          net::FaultOp::kSend)
                                      << 56) ^
                                     1)));
}

// ---------------------------------------------------------------------------
// FaultyChannel semantics over MemoryChannel (no sockets, no threads).

TEST(FaultyChannelUnit, EmptyPlanIsByteIdenticalPassThrough) {
  auto [a, b] = proto::MemoryChannel::create_pair();
  auto inj = std::make_shared<net::FaultInjector>(net::FaultPlan{});
  net::FaultyChannel fa(std::move(a), inj);
  net::FaultyChannel fb(std::move(b), inj);

  std::vector<std::uint8_t> capture;
  fb.set_recv_capture(&capture);

  fa.send_u64(41);
  EXPECT_EQ(fb.recv_u64(), 41u);
  std::vector<crypto::Block> blocks;
  for (std::uint64_t i = 0; i < 50; ++i) blocks.push_back(crypto::Block{i, ~i});
  fa.send_blocks(blocks);
  EXPECT_EQ(fb.recv_blocks(), blocks);
  std::vector<bool> bits = {true, false, true, true, false};
  fa.send_bits(bits);
  EXPECT_EQ(fb.recv_bits(), bits);

  EXPECT_EQ(inj->faults_fired(), 0u);
  EXPECT_FALSE(fa.transport_dropped());
  // Payload accounting is preserved through the wrapper, and the capture
  // sink saw every delivered byte.
  EXPECT_EQ(fa.bytes_sent(), fb.bytes_received());
  EXPECT_EQ(capture.size(), fb.bytes_received());
}

TEST(FaultyChannelUnit, FlipHitsExactlyThePredictedBit) {
  auto [a, b] = proto::MemoryChannel::create_pair();
  auto inj = std::make_shared<net::FaultInjector>(
      net::FaultPlan::parse("seed=42;flip@send:0"));
  net::FaultyChannel fa(std::move(a), inj);

  std::vector<std::uint8_t> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 3 + 1);
  fa.send_bytes(payload.data(), payload.size());

  std::vector<std::uint8_t> got(payload.size());
  b->recv_bytes(got.data(), got.size());

  // The header documents the mixer precisely so plans are predictable.
  const std::uint64_t bit =
      net::fault_mix64(42 ^ net::fault_mix64(0)) % (payload.size() * 8);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    const std::uint8_t expect =
        i == bit / 8 ? payload[i] ^ static_cast<std::uint8_t>(1u << (bit % 8))
                     : payload[i];
    EXPECT_EQ(got[i], expect) << "byte " << i;
  }
  EXPECT_EQ(inj->faults_fired(), 1u);
}

TEST(FaultyChannelUnit, SplitDeliversIdenticalBytes) {
  auto [a, b] = proto::MemoryChannel::create_pair();
  auto inj = std::make_shared<net::FaultInjector>(
      net::FaultPlan::parse("seed=5;split@send:0"));
  net::FaultyChannel fa(std::move(a), inj);

  std::vector<std::uint8_t> payload(1'000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i ^ (i >> 3));
  fa.send_bytes(payload.data(), payload.size());

  std::vector<std::uint8_t> got(payload.size());
  b->recv_bytes(got.data(), got.size());
  EXPECT_EQ(got, payload);  // a split is benign: reassembly must hide it
  EXPECT_EQ(inj->faults_fired(), 1u);
}

TEST(FaultyChannelUnit, CloseAtSendDropsTransportForGood) {
  auto [a, b] = proto::MemoryChannel::create_pair();
  auto inj = std::make_shared<net::FaultInjector>(
      net::FaultPlan::parse("close@send:1"));
  net::FaultyChannel fa(std::move(a), inj);

  fa.send_u64(1);  // op 0: clean
  EXPECT_THROW(fa.send_u64(2), net::PeerClosedError);  // op 1: the close
  EXPECT_TRUE(fa.transport_dropped());

  // The link stays dead: every later op fails the same way, and flush
  // (called from destructors) is a harmless no-op.
  EXPECT_THROW(fa.send_u64(3), net::PeerClosedError);
  EXPECT_THROW((void)fa.recv_u64(), net::PeerClosedError);
  EXPECT_NO_THROW(fa.flush());
}

TEST(FaultyChannelUnit, CloseAtRecvFiresBeforeTouchingTheTransport) {
  auto [a, b] = proto::MemoryChannel::create_pair();
  auto inj = std::make_shared<net::FaultInjector>(
      net::FaultPlan::parse("close@recv:0"));
  net::FaultyChannel fa(std::move(a), inj);
  // Nothing was ever sent to us; the injected close must still be the
  // error we see (not MemoryChannel's empty-queue failure).
  EXPECT_THROW((void)fa.recv_u64(), net::PeerClosedError);
  EXPECT_TRUE(fa.transport_dropped());
}

TEST(FaultyChannelUnit, TruncateForwardsAStrictPrefixThenDies) {
  auto [a, b] = proto::MemoryChannel::create_pair();
  auto inj = std::make_shared<net::FaultInjector>(
      net::FaultPlan::parse("trunc@send:0"));
  net::FaultyChannel fa(std::move(a), inj);

  std::vector<std::uint8_t> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(200 - i);
  EXPECT_THROW(fa.send_bytes(payload.data(), payload.size()),
               net::PeerClosedError);
  EXPECT_TRUE(fa.transport_dropped());

  // Exactly the documented n/2 prefix made it out before the drop.
  std::vector<std::uint8_t> got(payload.size() / 2);
  b->recv_bytes(got.data(), got.size());
  EXPECT_EQ(0, std::memcmp(got.data(), payload.data(), got.size()));
}

TEST(FaultyChannelUnit, StallDelaysButDeliversIntact) {
  auto [a, b] = proto::MemoryChannel::create_pair();
  auto inj = std::make_shared<net::FaultInjector>(
      net::FaultPlan::parse("stall@send:0:60"));
  net::FaultyChannel fa(std::move(a), inj);

  const auto t0 = Clock::now();
  fa.send_u64(77);
  EXPECT_GE(seconds_since(t0), 0.055);
  EXPECT_EQ(b->recv_u64(), 77u);
  EXPECT_FALSE(fa.transport_dropped());
}

// ---------------------------------------------------------------------------
// Retry backoff schedule: pure, deterministic, capped.

TEST(RetryBackoff, DoublesAndCapsWithoutJitter) {
  net::SessionRetryPolicy p;
  p.backoff_ms = 100;
  p.backoff_max_ms = 350;
  p.jitter_pct = 0;
  EXPECT_EQ(net::retry_backoff_ms(p, 1), 100u);
  EXPECT_EQ(net::retry_backoff_ms(p, 2), 200u);
  EXPECT_EQ(net::retry_backoff_ms(p, 3), 350u);  // 400 hits the cap
  EXPECT_EQ(net::retry_backoff_ms(p, 9), 350u);
}

TEST(RetryBackoff, JitterIsBoundedAndSeedDeterministic) {
  net::SessionRetryPolicy p;
  p.backoff_ms = 1'000;
  p.backoff_max_ms = 10'000;
  p.jitter_pct = 20;
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const std::uint64_t base = 1'000ull << (attempt - 1);
    const std::uint64_t w = net::retry_backoff_ms(p, attempt);
    EXPECT_GE(w, base * 80 / 100) << "attempt " << attempt;
    EXPECT_LE(w, base * 120 / 100) << "attempt " << attempt;
    // Same seed, same attempt -> the exact same wait (replayable runs).
    EXPECT_EQ(w, net::retry_backoff_ms(p, attempt));
  }
  net::SessionRetryPolicy other = p;
  other.jitter_seed = 99;
  bool any_differs = false;
  for (int attempt = 1; attempt <= 4; ++attempt)
    any_differs |=
        net::retry_backoff_ms(other, attempt) != net::retry_backoff_ms(p, attempt);
  EXPECT_TRUE(any_differs);  // the seed actually feeds the jitter
}

// ---------------------------------------------------------------------------
// Recovery: client retry against a live server, one fault at a time.

constexpr std::size_t kBits = 8;
constexpr std::size_t kRounds = 12;

// Runs until stop(); one shard, so scenarios replay in a fixed order.
evloop::EvBrokerConfig chaos_server_config(const svc::TempSpoolDir& spool) {
  evloop::EvBrokerConfig cfg = test::broker_config(spool, kBits, kRounds);
  cfg.idle_timeout_ms = 5'000;  // generous; scenario overrides tighten it
  return cfg;
}

net::ClientConfig chaos_client_config(std::uint16_t port,
                                      const std::string& plan) {
  net::ClientConfig cfg;
  cfg.port = port;
  cfg.bits = kBits;
  cfg.verbose = false;
  cfg.fault_plan = plan;
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_ms = 10;
  cfg.retry.backoff_max_ms = 50;
  cfg.tcp.recv_timeout_ms = 2'000;
  cfg.tcp.send_timeout_ms = 2'000;
  cfg.tcp.connect_attempts = 3;
  cfg.tcp.connect_backoff_ms = 20;
  return cfg;
}

struct ChaosOutcome {
  bool verified = false;
  bool threw = false;
  std::string error;
  std::uint32_t attempts = 0;
  std::uint64_t output = 0;
  double elapsed = 0;
};

// Every chaos run must end inside this bound — a hang is a failure even
// when CTest's own TIMEOUT would eventually kill the binary.
constexpr double kWatchdogSeconds = 25.0;

ChaosOutcome run_chaos_client(const net::ClientConfig& cfg) {
  ChaosOutcome out;
  const auto t0 = Clock::now();
  try {
    const net::ClientStats cs = net::run_client(cfg);
    out.verified = cs.verified;
    out.attempts = cs.attempts;
    out.output = cs.output_value;
  } catch (const net::NetError& e) {
    out.threw = true;
    out.error = e.what();
  }
  out.elapsed = seconds_since(t0);
  return out;
}

TEST(ChaosRecovery, MidHandshakeCloseRetriesToSuccess) {
  svc::TempSpoolDir spool;
  test::LiveBroker server(chaos_server_config(spool));

  // Send op 0 is the client hello: the very first bytes of the session
  // die on the floor, and the retry must start over from connect.
  const ChaosOutcome out =
      run_chaos_client(chaos_client_config(server.port(), "close@send:0"));
  server.stop();

  EXPECT_TRUE(out.verified) << out.error;
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.output, net::demo_mac_reference(7, kBits, kRounds));
  EXPECT_EQ(server->stats().server.sessions_served, 1u);
}

TEST(ChaosRecovery, MidTransferCloseRetriesToSuccess) {
  svc::TempSpoolDir spool;
  test::LiveBroker server(chaos_server_config(spool));

  // Recv op 8 lands mid-session, after OT setup has produced garbled
  // material — the attempt that dies has real tables in flight.
  const ChaosOutcome out =
      run_chaos_client(chaos_client_config(server.port(), "close@recv:8"));
  server.stop();

  EXPECT_TRUE(out.verified) << out.error;
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.output, net::demo_mac_reference(7, kBits, kRounds));
}

TEST(ChaosRecovery, ConnectRefusalRetriesToSuccess) {
  svc::TempSpoolDir spool;
  test::LiveBroker server(chaos_server_config(spool));

  const ChaosOutcome out =
      run_chaos_client(chaos_client_config(server.port(), "refuse@connect:0"));
  server.stop();

  EXPECT_TRUE(out.verified) << out.error;
  EXPECT_EQ(out.attempts, 2u);
  // The refused attempt never reached the server at all.
  EXPECT_EQ(server->stats().server.sessions_served, 1u);
  EXPECT_EQ(server->stats().server.connection_errors, 0u);
}

TEST(ChaosRecovery, ServerSideCloseIsSurvivedByBothSides) {
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg = chaos_server_config(spool);
  scfg.fault_plan = "close@send:3";  // the server's own link dies once
  test::LiveBroker server(scfg);

  net::ClientConfig ccfg = chaos_client_config(server.port(), "");
  const ChaosOutcome out = run_chaos_client(ccfg);
  server.stop();

  EXPECT_TRUE(out.verified) << out.error;
  EXPECT_EQ(out.attempts, 2u);
  // The aborted connection is accounted as a connection error, not a
  // served session; the retry is the one served session.
  EXPECT_EQ(server->stats().server.sessions_served, 1u);
  EXPECT_GE(server->stats().server.connection_errors, 1u);
}

TEST(ChaosRecovery, StalledClientIsEvictedAndRecovers) {
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg = chaos_server_config(spool);
  scfg.idle_timeout_ms = 250;  // evict a silent peer fast
  test::LiveBroker server(scfg);

  // The client goes quiet for 1.5 s mid-session — far past the server's
  // idle deadline. The server must evict it (freeing the accept loop),
  // and the client's retry must complete against the recovered server.
  net::ClientConfig ccfg =
      chaos_client_config(server.port(), "stall@send:2:1500");
  const ChaosOutcome out = run_chaos_client(ccfg);
  server.stop();

  EXPECT_TRUE(out.verified) << out.error;
  EXPECT_GE(out.attempts, 2u);
  EXPECT_GE(server->stats().server.idle_timeouts, 1u);
  EXPECT_GE(server->stats().server.connection_errors,
            server->stats().server.idle_timeouts);  // idle is a subset
  EXPECT_EQ(server->stats().server.sessions_served, 1u);
}

// The heart of the retry contract: a retried session shares *nothing*
// with the attempt it replaces. Wire labels are single-use, so the
// garbled material of attempt 2 must be freshly generated — byte-for-
// byte different from what attempt 1 received before its link died.
TEST(ChaosRecovery, RetryNeverReusesGarbledMaterial) {
  svc::TempSpoolDir spool;
  test::LiveBroker server(chaos_server_config(spool));

  auto injector = std::make_shared<net::FaultInjector>(
      net::FaultPlan::parse("close@recv:8"));
  std::deque<std::vector<std::uint8_t>> captures;  // one stream per attempt

  net::ClientConfig cfg = chaos_client_config(server.port(), "");
  cfg.retry.max_attempts = 2;
  const std::uint16_t port = server.port();
  cfg.channel_factory = [&]() -> std::unique_ptr<proto::Channel> {
    auto tcp = net::TcpChannel::connect("127.0.0.1", port, cfg.tcp);
    auto faulty =
        std::make_unique<net::FaultyChannel>(std::move(tcp), injector);
    captures.emplace_back();
    faulty->set_recv_capture(&captures.back());
    return faulty;
  };

  const ChaosOutcome out = run_chaos_client(cfg);
  server.stop();

  EXPECT_TRUE(out.verified) << out.error;
  EXPECT_EQ(out.attempts, 2u);
  ASSERT_EQ(captures.size(), 2u);

  // Attempt 1 died mid-stream; attempt 2 ran to completion.
  const std::vector<std::uint8_t>& first = captures[0];
  const std::vector<std::uint8_t>& second = captures[1];
  ASSERT_LT(first.size(), second.size());

  // Compare what both attempts received over their common prefix. The
  // deterministic handshake reply may coincide, but the session payload
  // (OT setup, garbled tables, labels) is keyed by per-session
  // randomness: if the overlapping streams were identical, the server
  // would have replayed garbled material across sessions.
  const std::size_t overlap = std::min(first.size(), second.size());
  ASSERT_GT(overlap, 64u);
  EXPECT_NE(0, std::memcmp(first.data(), second.data(), overlap))
      << "retry attempt received byte-identical garbled material";
}

// The same contract extended to the v3 OT pool: a retried session must
// consume *fresh* pool indices — never the ones the dead attempt
// claimed — and must do so by resuming the pool, not by redoing the
// base OT. The dead attempt's claim is burned (discarded), and the wire
// bytes of the two attempts differ over their overlap.
TEST(ChaosRecovery, RetryResumesOtPoolAndNeverReusesIndices) {
  svc::TempSpoolDir spool;
  test::LiveBroker server(chaos_server_config(spool));

  crypto::SystemRandom id_rng(crypto::Block{91, 3});
  auto state = net::make_v3_client_state(id_rng);

  // Session 1: clean. Pays the base OT and the one extension batch, so
  // the faulted session below resumes with a ~10-op setup and the fault
  // lands squarely in the round material.
  net::ClientConfig clean = chaos_client_config(server.port(), "");
  clean.protocol = net::kProtocolVersionV3;
  clean.v3_state = state;
  const ChaosOutcome warm = run_chaos_client(clean);
  ASSERT_TRUE(warm.verified) << warm.error;

  // Session 2: recv op 25 dies mid-rounds, after the resumed setup
  // claimed and announced an index range.
  auto injector = std::make_shared<net::FaultInjector>(
      net::FaultPlan::parse("close@recv:25"));
  std::deque<std::vector<std::uint8_t>> captures;  // one stream per attempt

  net::ClientConfig cfg = chaos_client_config(server.port(), "");
  cfg.protocol = net::kProtocolVersionV3;
  cfg.v3_state = state;
  cfg.retry.max_attempts = 2;
  const std::uint16_t port = server.port();
  cfg.channel_factory = [&]() -> std::unique_ptr<proto::Channel> {
    auto tcp = net::TcpChannel::connect("127.0.0.1", port, cfg.tcp);
    auto faulty =
        std::make_unique<net::FaultyChannel>(std::move(tcp), injector);
    captures.emplace_back();
    faulty->set_recv_capture(&captures.back());
    return faulty;
  };

  const ChaosOutcome out = run_chaos_client(cfg);
  server.stop();

  EXPECT_TRUE(out.verified) << out.error;
  EXPECT_EQ(out.attempts, 2u);
  ASSERT_EQ(captures.size(), 2u);

  const net::ServerStats ss = server->stats().server;
  EXPECT_EQ(ss.v3_sessions_served, 2u);
  // Every attempt after session 1 resumed its pool: exactly one base OT
  // and one extension batch ever ran, dead attempt included.
  EXPECT_EQ(ss.v3_fresh_pools, 1u);
  EXPECT_EQ(ss.v3_ot_extended,
            static_cast<std::uint64_t>(ot::kPoolExtendBatch));
  EXPECT_EQ(state->pool.extended(),
            static_cast<std::uint64_t>(ot::kPoolExtendBatch));
  // The dead attempt's claim was discarded, not left outstanding, and
  // the client's watermark is past two disjoint per-session ranges.
  EXPECT_EQ(server->v3_outstanding_claims(), 0u);
  EXPECT_GE(state->pool.watermark(), 2u * kRounds * kBits);
  EXPECT_GE(ss.connection_errors, 1u);

  // Byte-level no-reuse: over the prefix both attempts received, the
  // streams must differ — the retry was served fresh garbled material
  // bound to a fresh OT index range.
  const std::vector<std::uint8_t>& first = captures[0];
  const std::vector<std::uint8_t>& second = captures[1];
  const std::size_t overlap = std::min(first.size(), second.size());
  ASSERT_GT(overlap, 64u);
  EXPECT_NE(0, std::memcmp(first.data(), second.data(), overlap))
      << "retried v3 session received byte-identical material";
}

// A connection killed during the resumption setup itself (before any
// round material moves): the pool must roll forward — the next attempt
// resumes it, any half-made claim is discarded cleanly, and no second
// base OT or extension is paid.
TEST(ChaosRecovery, KilledResumptionRollsThePoolForward) {
  svc::TempSpoolDir spool;
  test::LiveBroker server(chaos_server_config(spool));

  crypto::SystemRandom id_rng(crypto::Block{17, 29});
  auto state = net::make_v3_client_state(id_rng);

  // Session 1: clean; pays the base OT and one extension batch.
  net::ClientConfig clean = chaos_client_config(server.port(), "");
  clean.protocol = net::kProtocolVersionV3;
  clean.v3_state = state;
  const ChaosOutcome s1 = run_chaos_client(clean);

  // Session 2: the link dies on an early recv — inside the resumption
  // handshake/setup exchange, before the rounds.
  net::ClientConfig faulty = chaos_client_config(server.port(), "close@recv:3");
  faulty.protocol = net::kProtocolVersionV3;
  faulty.v3_state = state;
  const ChaosOutcome s2 = run_chaos_client(faulty);

  server.stop();

  EXPECT_TRUE(s1.verified) << s1.error;
  EXPECT_EQ(s1.attempts, 1u);
  EXPECT_TRUE(s2.verified) << s2.error;
  EXPECT_EQ(s2.attempts, 2u);

  const net::ServerStats ss = server->stats().server;
  EXPECT_EQ(ss.v3_sessions_served, 2u);
  EXPECT_EQ(ss.v3_fresh_pools, 1u);  // only session 1 paid a base OT
  EXPECT_EQ(state->pool.extended(),
            static_cast<std::uint64_t>(ot::kPoolExtendBatch));
  EXPECT_EQ(server->v3_outstanding_claims(), 0u);  // nothing stuck claimed
  // Two sessions consumed; the dead attempt may have burned a range.
  EXPECT_GE(state->pool.watermark(), 2u * kRounds * kBits);
}

// A bit the server flips inside the pool's base OT desyncs the
// correlation both sides would resume from. With retries off the
// corrupted call has no retry to clean up after it, so the client must
// still forget its ticket: the next call sharing the identity pays a
// fresh base OT and verifies instead of resuming the poisoned pool.
TEST(ChaosRecovery, CorruptedPoolIsNotResumedByTheNextCall) {
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg = chaos_server_config(spool);
  scfg.fault_plan = "seed=3;flip@send:2";  // fires once per broker
  test::LiveBroker server(scfg);

  crypto::SystemRandom id_rng(crypto::Block{0xBA, 0xD});
  auto state = net::make_v3_client_state(id_rng);
  net::ClientConfig cfg = chaos_client_config(server.port(), "");
  cfg.protocol = net::kProtocolVersionV3;
  cfg.v3_state = state;
  cfg.retry.max_attempts = 1;

  const ChaosOutcome first = run_chaos_client(cfg);
  const ChaosOutcome second = run_chaos_client(cfg);
  server.stop();

  EXPECT_FALSE(first.verified);  // the flip reached the client
  EXPECT_TRUE(second.verified) << second.error;
  EXPECT_EQ(second.attempts, 1u);
  EXPECT_EQ(server->stats().server.v3_fresh_pools, 2u);
  EXPECT_EQ(server->v3_outstanding_claims(), 0u);
}

TEST(ChaosRecovery, NonRetryableHandshakeRejectFailsFastDespiteRetries) {
  svc::TempSpoolDir spool;
  test::LiveBroker server(chaos_server_config(spool));

  net::ClientConfig cfg = chaos_client_config(server.port(), "");
  cfg.bits = kBits * 2;  // bit-width mismatch: a config error, not luck
  const auto t0 = Clock::now();
  try {
    net::run_client(cfg);
    FAIL() << "mismatched client was accepted";
  } catch (const net::HandshakeError& e) {
    EXPECT_EQ(e.code(), net::RejectCode::kBitWidthMismatch);
    EXPECT_FALSE(net::net_error_is_retryable(e));
  }
  // No backoff was burned on a failure retry cannot fix.
  EXPECT_LT(seconds_since(t0), 5.0);

  server.stop();
  EXPECT_EQ(server->stats().server.sessions_served, 0u);
}

TEST(ChaosRecovery, ExhaustedRetriesSurfaceTheTypedError) {
  // Refuse every connect the policy is willing to make: the final error
  // must be the typed ConnectError of the last attempt, not a generic
  // failure, and attempts must stop at the policy bound.
  net::ClientConfig cfg = chaos_client_config(1 /* nobody listens */, "");
  cfg.retry.max_attempts = 2;
  cfg.tcp.connect_attempts = 1;
  cfg.tcp.connect_timeout_ms = 200;
  cfg.tcp.connect_backoff_ms = 5;
  EXPECT_THROW(net::run_client(cfg), net::ConnectError);
}

// The corrupt-artifact verdict, deterministically: serve off a context
// whose view bytes were flipped after hashing (exactly what an in-flight
// corruption looks like to the client). The client must die to its
// SHA-256 check with a typed CorruptionError — never evaluate off the
// poisoned tables — and the server's pool claim must be discarded.
TEST(ChaosRecovery, CorruptReusableArtifactDiesTypedWithNoStuckClaim) {
  const circuit::Circuit circ =
      circuit::make_mac_circuit(circuit::MacOptions{kBits, kBits, true});
  crypto::SystemRandom garble_rng(crypto::Block{0xC0, 0xDE});
  net::ReusableServeContext ctx = net::make_reusable_context(
      circ, net::garble_reusable(circ, kBits, garble_rng), kRounds, 7);
  ctx.view_bytes[ctx.view_bytes.size() / 2] ^= 0x20;  // sha is now stale

  net::ServerExpectation ex;
  ex.scheme = gc::Scheme::kHalfGates;
  ex.bit_width = kBits;
  ex.circuit_hash = net::circuit_fingerprint(circ);
  ex.rounds_per_session = kRounds;
  ex.allow_v3 = true;
  ex.allow_reusable = true;

  // A lone EvSession serves the connection off the poisoned context.
  net::V3PoolRegistry reg(crypto::SystemRandom().next_block());
  evloop::EvServeContext sctx;
  sctx.circ = &circ;
  sctx.expect = ex;
  sctx.reg = &reg;
  sctx.reusable = &ctx;
  sctx.bits = kBits;
  sctx.rounds = kRounds;
  sctx.demo_seed = 7;
  net::TcpListener lis(0, "127.0.0.1");
  test::ShuttleResult served;
  std::thread server(
      [&] { served = test::shuttle_serve_one(lis, sctx, /*feed=*/4096); });
  net::TcpOptions topt;
  topt.recv_timeout_ms = 5'000;
  auto client_ch = net::TcpChannel::connect("127.0.0.1", lis.port(), topt);

  net::ClientHello hello;
  hello.scheme = static_cast<std::uint8_t>(ex.scheme);
  hello.ot = static_cast<std::uint8_t>(net::OtChoice::kIknp);
  hello.mode = static_cast<std::uint8_t>(net::SessionMode::kReusable);
  hello.bit_width = ex.bit_width;
  hello.circuit_hash = ex.circuit_hash;
  crypto::SystemRandom id_rng(crypto::Block{0xFA, 0x11});
  auto state = net::make_v3_client_state(id_rng);
  net::HelloExtV3 hext;
  hext.client_id = state->client_id;
  (void)net::client_handshake_v3(*client_ch, hello, hext);

  net::DemoInputStream x_inputs(7, net::kEvaluatorStream, kBits);
  std::vector<std::vector<bool>> e_bits(kRounds);
  for (auto& row : e_bits) row = x_inputs.next_bits();
  crypto::SystemRandom rng;
  EXPECT_THROW(
      net::eval_reusable_session(*client_ch, circ, e_bits, *state, rng),
      net::CorruptionError);
  client_ch.reset();  // hang up; the server session dies typed
  server.join();
  EXPECT_TRUE(served.failed);
  EXPECT_EQ(served.error, evloop::EvError::kPeerClosed);
  EXPECT_EQ(reg.outstanding_claims(), 0u);
  // The poisoned view never entered the client's cache.
  EXPECT_FALSE(state->reusable_view.has_value());
}

}  // namespace
}  // namespace maxel
