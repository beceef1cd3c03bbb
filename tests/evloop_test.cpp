// Event-loop serving tier tests.
//
//   * state machine: every session mode (precomputed, stream, v3,
//     reusable) driven through an EvSession fed ONE BYTE AT A TIME by a
//     shuttle server — the harshest readiness schedule an event loop
//     can deliver — against the real net::run_client, every MAC checked
//     against the plaintext reference;
//   * pool gate: a second v3 session through the shuttle resumes the
//     first one's OT pool and leaves zero outstanding claims;
//   * EvBroker: all four modes over loopback TCP against the sharded
//     front, with stats and metrics cross-checked, and every stats()
//     field found under its name in the one JSON export;
//   * idle eviction: a silent peer is evicted by the timer wheel and
//     counted as idle_timeouts + connection_errors;
//   * SpareFd: the EMFILE reserve releases and reacquires;
//   * loadgen smoke: 2000 canned reusable sessions through a windowed
//     single-threaded client sweep, zero failures, zero stuck claims.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/rng.hpp"
#include "evloop/ev_broker.hpp"
#include "evloop/loadgen.hpp"
#include "evloop/session.hpp"
#include "gc/v3.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "proto/precompute.hpp"
#include "live_broker.hpp"

namespace maxel::evloop {
namespace {

using Clock = std::chrono::steady_clock;

using test::shuttle_serve_one;
using test::ShuttleResult;

// ---------------------------------------------------------------------------
// Shuttle: a lone EvSession fed one byte at a time over one connection
// (test::shuttle_serve_one in live_broker.hpp).

// Standalone EvServeContext (no broker, no spool): sessions are garbled
// on demand by the take callbacks, exactly what the machine consumes.
class EvSessionShuttleTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kBits = 8;
  static constexpr std::size_t kRounds = 6;

  void SetUp() override {
    circ_ = circuit::make_mac_circuit(circuit::MacOptions{kBits, kBits, true});
    an_ = gc::analyze_v3(circ_);
    reg_ = std::make_unique<net::V3PoolRegistry>(
        crypto::SystemRandom().next_block());
    net::DemoInputStream a_inputs(7, net::kGarblerStream, kBits);
    g_bits_.resize(kRounds);
    for (auto& row : g_bits_) row = a_inputs.next_bits();

    ctx_.circ = &circ_;
    ctx_.expect.scheme = gc::Scheme::kHalfGates;
    ctx_.expect.bit_width = kBits;
    ctx_.expect.circuit_hash = net::circuit_fingerprint(circ_);
    ctx_.expect.rounds_per_session = kRounds;
    ctx_.expect.allow_stream = true;
    ctx_.expect.allow_v3 = true;
    ctx_.expect.allow_reusable = true;
    ctx_.reg = reg_.get();
    ctx_.bits = kBits;
    ctx_.rounds = kRounds;
    ctx_.demo_seed = 7;
    ctx_.scheme = gc::Scheme::kHalfGates;
    ctx_.stream_chunk_rounds = 2;  // several chunks even at kRounds = 6
    ctx_.take_session = [this] {
      crypto::SystemRandom rng;
      return proto::garble_session(circ_, gc::Scheme::kHalfGates, kRounds,
                                   rng);
    };
    ctx_.take_v3 = [this] {
      crypto::SystemRandom rng;
      return proto::garble_session_v3(circ_, an_, g_bits_, reg_->delta(),
                                      rng.next_block(), rng);
    };
    crypto::SystemRandom garble_rng;
    rctx_ = net::make_reusable_context(
        circ_, net::garble_reusable(circ_, kBits, garble_rng), kRounds, 7);
    ctx_.reusable = &*rctx_;
  }

  net::ClientConfig shuttle_client(std::uint16_t port) {
    net::ClientConfig ccfg;
    ccfg.port = port;
    ccfg.bits = kBits;
    ccfg.verbose = false;
    ccfg.tcp.recv_timeout_ms = 10'000;
    ccfg.tcp.connect_attempts = 5;
    ccfg.tcp.connect_backoff_ms = 20;
    return ccfg;
  }

  circuit::Circuit circ_;
  gc::V3Analysis an_;
  std::unique_ptr<net::V3PoolRegistry> reg_;
  std::vector<std::vector<bool>> g_bits_;
  std::optional<net::ReusableServeContext> rctx_;
  EvServeContext ctx_;
};

TEST_F(EvSessionShuttleTest, PrecomputedByteAtATime) {
  net::TcpListener lst(0, "127.0.0.1", net::ListenOptions{});
  ShuttleResult res;
  std::thread serve([&] { res = shuttle_serve_one(lst, ctx_); });
  const net::ClientStats cs = net::run_client(shuttle_client(lst.port()));
  serve.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(cs.output_value, net::demo_mac_reference(7, kBits, kRounds));
  EXPECT_TRUE(res.done) << res.err;
  EXPECT_EQ(res.mode, "precomputed");
  EXPECT_EQ(res.stats.sessions_served, 1u);
  EXPECT_EQ(res.stats.rounds_served, kRounds);
  EXPECT_EQ(res.stats.bytes_sent, cs.bytes_received);
  EXPECT_EQ(res.stats.bytes_received, cs.bytes_sent);
}

TEST_F(EvSessionShuttleTest, StreamByteAtATime) {
  net::TcpListener lst(0, "127.0.0.1", net::ListenOptions{});
  ShuttleResult res;
  std::thread serve([&] { res = shuttle_serve_one(lst, ctx_); });
  net::ClientConfig ccfg = shuttle_client(lst.port());
  ccfg.mode = net::SessionMode::kStream;
  const net::ClientStats cs = net::run_client(ccfg);
  serve.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(cs.output_value, net::demo_mac_reference(7, kBits, kRounds));
  EXPECT_GT(cs.chunks_received, 1u);
  EXPECT_TRUE(res.done) << res.err;
  EXPECT_EQ(res.mode, "stream");
  EXPECT_EQ(res.stats.stream_sessions_served, 1u);
  EXPECT_GT(res.stats.peak_resident_tables, 0u);
}

TEST_F(EvSessionShuttleTest, V3ByteAtATimeResumesPoolAcrossSessions) {
  net::TcpListener lst(0, "127.0.0.1", net::ListenOptions{});
  crypto::SystemRandom id_rng;
  auto state = net::make_v3_client_state(id_rng);

  std::vector<net::ClientStats> rs;
  for (int i = 0; i < 2; ++i) {
    ShuttleResult res;
    std::thread serve([&] { res = shuttle_serve_one(lst, ctx_); });
    net::ClientConfig ccfg = shuttle_client(lst.port());
    ccfg.protocol = net::kProtocolVersionV3;
    ccfg.v3_state = state;
    rs.push_back(net::run_client(ccfg));
    serve.join();
    EXPECT_TRUE(res.done) << "session " << i << ": " << res.err;
    EXPECT_EQ(res.mode, "v3");
    EXPECT_EQ(res.stats.v3_sessions_served, 1u);
  }

  const std::uint64_t want = net::demo_mac_reference(7, kBits, kRounds);
  EXPECT_TRUE(rs[0].verified);
  EXPECT_TRUE(rs[1].verified);
  EXPECT_EQ(rs[0].output_value, want);
  EXPECT_EQ(rs[1].output_value, want);
  EXPECT_FALSE(rs[0].pool_resumed);
  EXPECT_TRUE(rs[1].pool_resumed);
  EXPECT_LE(rs[1].setup_bytes * 10, rs[0].setup_bytes);
  EXPECT_EQ(reg_->outstanding_claims(), 0u);
}

TEST_F(EvSessionShuttleTest, ReusableByteAtATime) {
  net::TcpListener lst(0, "127.0.0.1", net::ListenOptions{});
  ShuttleResult res;
  std::thread serve([&] { res = shuttle_serve_one(lst, ctx_); });
  net::ClientConfig ccfg = shuttle_client(lst.port());
  ccfg.mode = net::SessionMode::kReusable;
  crypto::SystemRandom id_rng;
  ccfg.v3_state = net::make_v3_client_state(id_rng);
  const net::ClientStats cs = net::run_client(ccfg);
  serve.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(cs.output_value, net::demo_mac_reference(7, kBits, kRounds));
  EXPECT_TRUE(res.done) << res.err;
  EXPECT_EQ(res.mode, "reusable");
  EXPECT_EQ(res.stats.reusable_sessions_served, 1u);
  EXPECT_EQ(res.stats.reusable_artifacts_sent, 1u);
  EXPECT_EQ(reg_->outstanding_claims(), 0u);
}

// Every mode's first session pays a fresh OT setup (IKNP base OTs, or a
// fresh pool's base OT) and pushes garbled material, and the session
// block times both: at least 1 us of OT, the resolution of the broker's
// ot_seconds histogram, and a nonzero transfer time.
TEST_F(EvSessionShuttleTest, EveryModeTimesItsOtAndTransferSteps) {
  struct Case {
    const char* mode;
    net::SessionMode session_mode;
    std::uint32_t protocol;
  };
  const Case cases[] = {
      {"precomputed", net::SessionMode::kPrecomputed, net::kProtocolVersion},
      {"stream", net::SessionMode::kStream, net::kProtocolVersion},
      {"v3", net::SessionMode::kPrecomputed, net::kProtocolVersionV3},
      {"reusable", net::SessionMode::kReusable, net::kProtocolVersionV3},
  };
  crypto::SystemRandom id_rng;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.mode);
    net::TcpListener lst(0, "127.0.0.1", net::ListenOptions{});
    ShuttleResult res;
    std::thread serve([&] { res = shuttle_serve_one(lst, ctx_, 1 << 16); });
    net::ClientConfig ccfg = shuttle_client(lst.port());
    ccfg.mode = c.session_mode;
    ccfg.protocol = c.protocol;
    ccfg.v3_state = net::make_v3_client_state(id_rng);  // a fresh pool
    const net::ClientStats cs = net::run_client(ccfg);
    serve.join();

    EXPECT_TRUE(cs.verified);
    ASSERT_TRUE(res.done) << res.err;
    EXPECT_EQ(res.mode, c.mode);
    EXPECT_GE(res.stats.ot_seconds, 1e-6);
    EXPECT_GT(res.stats.transfer_seconds, 0.0);
  }
}

// A peer that hangs up mid-handshake must park the machine in the
// failed state with the peer-closed taxonomy, not crash or complete.
TEST_F(EvSessionShuttleTest, EofMidHelloFailsAsPeerClosed) {
  EvSession s(ctx_);
  // A well-formed frame header and the first 8 payload bytes (the
  // magic), then silence: a valid prefix of a real hello.
  std::uint8_t half_hello[12];
  const std::uint32_t frame_len = net::kHelloWireSize;
  const std::uint64_t magic = net::kHelloMagic;
  std::memcpy(half_hello, &frame_len, sizeof frame_len);
  std::memcpy(half_hello + 4, &magic, sizeof magic);
  s.on_bytes(half_hello, sizeof half_hello);
  EXPECT_FALSE(s.done());
  EXPECT_FALSE(s.failed());
  s.on_peer_eof();
  EXPECT_TRUE(s.failed());
  EXPECT_EQ(s.error(), EvError::kPeerClosed);
}

// ---------------------------------------------------------------------------
// SpareFd: the EMFILE reserve.

TEST(SpareFd, ReleasesAndReacquires) {
  SpareFd spare;
  ASSERT_TRUE(spare.held());
  spare.release();
  EXPECT_FALSE(spare.held());
  spare.reacquire();
  EXPECT_TRUE(spare.held());
  // Idempotent in both directions.
  spare.reacquire();
  EXPECT_TRUE(spare.held());
  spare.release();
  spare.release();
  EXPECT_FALSE(spare.held());
}

// ---------------------------------------------------------------------------
// EvBroker over loopback TCP.

class EvBrokerTest : public ::testing::Test {
 protected:
  EvBrokerConfig quiet_config(std::size_t bits, std::size_t rounds) {
    EvBrokerConfig cfg;
    cfg.bind_addr = "127.0.0.1";
    cfg.port = 0;
    cfg.bits = bits;
    cfg.rounds_per_session = rounds;
    cfg.spool_dir = spool_.path();
    cfg.verbose = false;
    cfg.tcp.recv_timeout_ms = 10'000;
    return cfg;
  }

  net::ClientConfig quiet_client(std::uint16_t port, std::size_t bits) {
    return test::quiet_client(port, bits);
  }

  svc::TempSpoolDir spool_;
};

// All four modes through the sharded front, every MAC bit-identical to
// the plaintext reference, stats and metrics agreeing, and no OT-pool
// claim left outstanding.
TEST_F(EvBrokerTest, ServesAllFourModesAcrossShards) {
  const std::size_t bits = 8, rounds = 6;
  EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.shards = 2;
  cfg.spool_low_watermark = 1;
  cfg.spool_high_watermark = 4;
  cfg.max_sessions = 4;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });

  const net::ClientStats pre =
      net::run_client(quiet_client(broker.port(), bits));

  net::ClientConfig scfg = quiet_client(broker.port(), bits);
  scfg.mode = net::SessionMode::kStream;
  const net::ClientStats str = net::run_client(scfg);

  crypto::SystemRandom id_rng;
  net::ClientConfig vcfg = quiet_client(broker.port(), bits);
  vcfg.protocol = net::kProtocolVersionV3;
  vcfg.v3_state = net::make_v3_client_state(id_rng);
  const net::ClientStats v3 = net::run_client(vcfg);

  net::ClientConfig rcfg = quiet_client(broker.port(), bits);
  rcfg.mode = net::SessionMode::kReusable;
  rcfg.v3_state = net::make_v3_client_state(id_rng);
  const net::ClientStats reu = net::run_client(rcfg);
  run.join();  // max_sessions reached -> graceful drain

  const std::uint64_t want = net::demo_mac_reference(cfg.demo_seed, bits,
                                                     rounds);
  for (const auto* cs : {&pre, &str, &v3, &reu}) {
    EXPECT_TRUE(cs->verified);
    EXPECT_EQ(cs->output_value, want);
    EXPECT_EQ(cs->rounds, rounds);
  }

  const svc::BrokerStats st = broker.stats();
  EXPECT_EQ(st.server.sessions_served, 4u);
  EXPECT_EQ(st.server.stream_sessions_served, 1u);
  EXPECT_EQ(st.server.v3_sessions_served, 1u);
  EXPECT_EQ(st.server.reusable_sessions_served, 1u);
  EXPECT_EQ(st.server.connection_errors, 0u);
  EXPECT_EQ(test::sessions_taken(broker), 1u);  // precomputed only
  EXPECT_EQ(test::v3_sessions_taken(broker), 1u);
  EXPECT_EQ(st.admission_rejects, 0u);
  EXPECT_EQ(broker.v3_outstanding_claims(), 0u);

  svc::MetricsRegistry& m = broker.metrics();
  EXPECT_EQ(m.counter("sessions_served").value(), 4);
  EXPECT_EQ(m.counter("rounds_served").value(),
            static_cast<std::int64_t>(4 * rounds));
  EXPECT_EQ(m.histogram("session_seconds").snapshot().count, 4u);
  EXPECT_GT(m.counter("net_tx_bytes_precomputed").value(), 0);
  EXPECT_GT(m.counter("net_tx_bytes_reusable").value(), 0);
  // Event-loop-specific gauges exist (idle again at snapshot time).
  EXPECT_EQ(m.gauge("ev_shard0_sessions").value(), 0);
  EXPECT_EQ(m.gauge("ev_shard1_sessions").value(), 0);
  EXPECT_NE(m.to_json().find("ev_open_fds"), std::string::npos);
}

// The value of top-level member `name` in the broker's JSON export: a
// number, or a histogram's sum_seconds. NaN when absent or not unique.
double exported(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos || json.rfind(key) != at)
    return std::numeric_limits<double>::quiet_NaN();
  std::size_t v = at + key.size();
  if (json[v] == '{') {
    const std::string sum = "\"sum_seconds\":";
    v = json.find(sum, v);
    if (v == std::string::npos)
      return std::numeric_limits<double>::quiet_NaN();
    v += sum.size();
  }
  return std::strtod(json.c_str() + v, nullptr);
}

// One schema: every stats() field is the exported metric of the same
// name (timers as histogram sums, at us resolution), and every server
// field tests/net_e2e.sh reads is present, next to the nested spool
// ledger.
TEST_F(EvBrokerTest, ExportCarriesEveryServerStatsField) {
  const std::size_t bits = 8, rounds = 6;
  EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.shards = 2;
  cfg.spool_low_watermark = 1;
  cfg.spool_high_watermark = 4;
  cfg.max_sessions = 4;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });

  crypto::SystemRandom id_rng;
  net::ClientConfig pre = quiet_client(broker.port(), bits);
  net::ClientConfig str = pre;
  str.mode = net::SessionMode::kStream;
  net::ClientConfig v3 = pre;
  v3.protocol = net::kProtocolVersionV3;
  v3.v3_state = net::make_v3_client_state(id_rng);
  net::ClientConfig reu = pre;
  reu.mode = net::SessionMode::kReusable;
  reu.v3_state = net::make_v3_client_state(id_rng);
  for (const auto* ccfg : {&pre, &str, &v3, &reu})
    EXPECT_TRUE(net::run_client(*ccfg).verified);
  run.join();

  const svc::BrokerStats st = broker.stats();
  const net::ServerStats& s = st.server;
  const std::string json = broker.to_json();
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"sessions_served", s.sessions_served},
      {"rounds_served", s.rounds_served},
      {"handshakes_rejected", s.handshakes_rejected},
      {"connection_errors", s.connection_errors},
      {"idle_timeouts", s.idle_timeouts},
      {"bytes_sent", s.bytes_sent},
      {"bytes_received", s.bytes_received},
      {"sessions_precomputed", s.sessions_precomputed},
      {"stream_sessions_served", s.stream_sessions_served},
      {"v3_sessions_served", s.v3_sessions_served},
      {"reusable_sessions_served", s.reusable_sessions_served},
      {"reusable_artifacts_sent", s.reusable_artifacts_sent},
      {"reusable_garbles", s.reusable_garbles},
      {"v3_fresh_pools", s.v3_fresh_pools},
      {"v3_ot_extended", s.v3_ot_extended},
      {"peak_resident_tables", s.peak_resident_tables},
      {"admission_rejects", st.admission_rejects},
  };
  for (const auto& [name, value] : counts)
    EXPECT_EQ(exported(json, name), static_cast<double>(value)) << name;
  const std::pair<const char*, double> sums[] = {
      {"handshake_seconds", s.handshake_seconds},
      {"transfer_seconds", s.transfer_seconds},
      {"ot_seconds", s.ot_seconds},
      {"first_table_seconds", s.first_table_seconds},
      {"total_seconds", s.total_seconds},
  };
  for (const auto& [name, value] : sums)
    EXPECT_NEAR(exported(json, name), value, 1e-6) << name;

  EXPECT_EQ(s.sessions_served, 4u);
  EXPECT_EQ(s.v3_fresh_pools, 2u);  // the v3 and the reusable client
  EXPECT_GT(s.bytes_sent, 0u);
  EXPECT_GT(s.sessions_precomputed, 0u);
  EXPECT_GT(s.ot_seconds, 0.0);
  EXPECT_GT(s.transfer_seconds, 0.0);
  EXPECT_GT(s.total_seconds, 0.0);
  EXPECT_NE(json.find("\"spool\":{\"ready\":"), std::string::npos);
  EXPECT_EQ(json.find("spool_ready"), std::string::npos);  // no mirrors
}

// A silent peer is evicted by the timer wheel with idle_timeouts +
// connection_errors accounting.
TEST_F(EvBrokerTest, IdlePeerEvictedByTimerWheel) {
  EvBrokerConfig cfg = quiet_config(8, 4);
  cfg.shards = 1;
  cfg.idle_timeout_ms = 250;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });

  auto idle = net::TcpChannel::connect("127.0.0.1", broker.port(), cfg.tcp);
  const auto t0 = Clock::now();
  while (broker.metrics().counter("idle_timeouts").value() < 1 &&
         std::chrono::duration<double>(Clock::now() - t0).count() < 10.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

  broker.request_stop();
  run.join();
  idle.reset();

  const svc::BrokerStats st = broker.stats();
  EXPECT_EQ(st.server.idle_timeouts, 1u);
  EXPECT_EQ(st.server.connection_errors, 1u);  // eviction counts as one
  EXPECT_EQ(st.server.sessions_served, 0u);
  EXPECT_EQ(broker.metrics().counter("idle_timeouts").value(), 1);
}

// request_stop() on an idle evloop broker drains promptly: no blocking
// accept, no lingering timers.
TEST_F(EvBrokerTest, ShutdownLatencyBounded) {
  EvBrokerConfig cfg = quiet_config(8, 4);
  cfg.shards = 2;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = Clock::now();
  broker.request_stop();
  run.join();
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - t0).count(), 2.0);
}

// ---------------------------------------------------------------------------
// Loadgen smoke: the CI gate's 2k-client sweep in miniature (same code
// path as bench/fig_broker_scaling, small enough for the test tier).

TEST_F(EvBrokerTest, LoadgenTwoThousandReusableSessionsZeroFailures) {
  EvBrokerConfig cfg = quiet_config(8, 2);
  cfg.shards = 2;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });

  ASSERT_NE(broker.reusable_context(), nullptr);
  ReusableLoadgen lg(broker.v3_registry(), *broker.reusable_context(),
                     broker.expectation());
  LoadgenConfig lcfg;
  lcfg.port = broker.port();
  lcfg.total_sessions = 2000;
  lcfg.window = 256;
  lcfg.clients = 8;
  const LoadgenResult res = lg.run(lcfg);

  broker.request_stop();
  run.join();

  EXPECT_EQ(res.ok, 2000u);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_LE(res.peak_inflight, lcfg.window);
  EXPECT_GT(res.sessions_per_sec(), 0.0);

  const svc::BrokerStats st = broker.stats();
  EXPECT_EQ(st.server.reusable_sessions_served, 2000u);
  EXPECT_EQ(st.server.reusable_artifacts_sent, 0u);  // hash-confirmed cache
  EXPECT_EQ(broker.v3_outstanding_claims(), 0u);
}

}  // namespace
}  // namespace maxel::evloop
