// Broker integration tests: N parallel clients against one serving
// front (evloop::EvBroker) served from a disk spool, with every decoded
// MAC checked against the plaintext reference and a single-shard
// (sequential) run; spool restarts without reuse; the v2/v3 lanes kept
// apart under mixed traffic.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "crypto/rng.hpp"
#include "live_broker.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "net/v3_service.hpp"
#include "ot/pool.hpp"

namespace maxel::svc {
namespace {

class BrokerTest : public ::testing::Test {
 protected:
  evloop::EvBrokerConfig quiet_config(std::size_t bits, std::size_t rounds) {
    evloop::EvBrokerConfig cfg = test::broker_config(spool_, bits, rounds);
    cfg.tcp.recv_timeout_ms = 5'000;
    return cfg;
  }

  net::ClientConfig quiet_client(std::uint16_t port, std::size_t bits) {
    return test::quiet_client(port, bits);
  }

  svc::TempSpoolDir spool_;
};

// The acceptance bar of this subsystem: >=4 concurrent loopback clients
// served from the disk spool by a two-shard front, every decoded MAC
// bit-identical to a single-shard (sequential) run on the same demo
// inputs, and no session double-served (claims == sessions == clients).
TEST_F(BrokerTest, ConcurrentClientsMatchSequentialPathNoDoubleServe) {
  const std::size_t bits = 8, rounds = 6, clients = 6;

  // Sequential reference first: one session through a single-shard
  // front on its own spool.
  std::uint64_t sequential_mac = 0;
  {
    svc::TempSpoolDir seq_spool;
    evloop::EvBrokerConfig scfg = test::broker_config(seq_spool, bits, rounds);
    scfg.max_sessions = 1;
    test::LiveBroker server(scfg);
    const net::ClientStats cs =
        net::run_client(quiet_client(server.port(), bits));
    server.join();
    ASSERT_TRUE(cs.verified);
    sequential_mac = cs.output_value;
  }

  evloop::EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.shards = 2;
  cfg.spool_low_watermark = 2;
  cfg.spool_high_watermark = clients;
  cfg.max_sessions = clients;
  test::LiveBroker broker(cfg);

  std::vector<net::ClientStats> results(clients);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients; ++i)
    threads.emplace_back([&, i] {
      results[i] = net::run_client(quiet_client(broker.port(), bits));
    });
  for (auto& t : threads) t.join();
  broker.join();  // max_sessions reached -> graceful drain

  const std::uint64_t want =
      net::demo_mac_reference(cfg.demo_seed, bits, rounds);
  EXPECT_EQ(sequential_mac, want);
  for (std::size_t i = 0; i < clients; ++i) {
    EXPECT_TRUE(results[i].verified) << "client " << i;
    EXPECT_EQ(results[i].output_value, sequential_mac) << "client " << i;
    EXPECT_EQ(results[i].rounds, rounds) << "client " << i;
  }

  const BrokerStats st = broker->stats();
  EXPECT_EQ(st.server.sessions_served, clients);
  EXPECT_EQ(st.server.rounds_served, clients * rounds);
  // Exactly one spool claim or producer hand-off per served session:
  // no double-serve.
  EXPECT_EQ(test::sessions_taken(*broker), clients);
  EXPECT_EQ(st.spool.cache_hits + st.spool.cache_misses,
            st.spool.sessions_claimed);
  EXPECT_EQ(st.server.connection_errors, 0u);
  EXPECT_EQ(st.admission_rejects, 0u);
  // Client-side byte counters must mirror the broker's, summed.
  std::uint64_t client_rx = 0, client_tx = 0;
  for (const auto& r : results) {
    client_rx += r.bytes_received;
    client_tx += r.bytes_sent;
  }
  EXPECT_EQ(client_rx, st.server.bytes_sent);
  EXPECT_EQ(client_tx, st.server.bytes_received);
}

// Sessions survive a broker restart in the same spool directory: what
// the first broker spooled but never served is served by the second,
// and nothing is served twice across the lives.
TEST_F(BrokerTest, RestartServesLeftoverSpoolWithoutReuse) {
  const std::size_t bits = 8, rounds = 4;
  std::uint64_t first_spooled = 0, first_claimed = 0;
  {
    evloop::EvBrokerConfig cfg = quiet_config(bits, rounds);
    cfg.shards = 2;
    cfg.spool_low_watermark = 2;
    cfg.spool_high_watermark = 4;
    cfg.max_sessions = 1;
    test::LiveBroker broker(cfg);
    const net::ClientStats cs =
        net::run_client(quiet_client(broker.port(), bits));
    broker.join();
    EXPECT_TRUE(cs.verified);
    const BrokerStats st = broker->stats();
    first_spooled = st.spool.sessions_spooled;
    first_claimed = st.spool.sessions_claimed;
    ASSERT_GT(first_spooled, first_claimed) << "need leftovers to restart on";
  }
  // Second life, same directory: the leftover ready/ files are the
  // inventory; claimed/ leftovers (none here) would have been purged.
  {
    evloop::EvBrokerConfig cfg = quiet_config(bits, rounds);
    cfg.shards = 2;
    cfg.spool_low_watermark = 0;  // no refill: serve inherited stock only
    cfg.spool_high_watermark = 0;
    cfg.max_sessions = 1;
    test::LiveBroker broker(cfg);
    EXPECT_EQ(broker->stats().spool.sessions_ready,
              first_spooled - first_claimed);
    const net::ClientStats cs =
        net::run_client(quiet_client(broker.port(), bits));
    broker.join();
    EXPECT_TRUE(cs.verified);
    EXPECT_EQ(broker->stats().spool.sessions_spooled, 0u);  // inherited only
    EXPECT_EQ(broker->stats().spool.sessions_claimed, 1u);
  }
}

// Cold start: the client is already waiting when the producer's first
// session is garbled, so that session goes straight to it — never
// written to the spool, never claimed from it.
TEST_F(BrokerTest, ColdStartHandsFreshSessionToTheWaitingClient) {
  const std::size_t bits = 16, rounds = 128;
  evloop::EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.allow_v3 = false;
  cfg.spool_low_watermark = 1;
  cfg.spool_high_watermark = 1;
  cfg.max_sessions = 1;
  evloop::EvBroker broker(cfg);

  // The hello lands in the listener's backlog before the shard and the
  // producer start, so the shard blocks on the empty lane within a
  // millisecond while the garble takes several.
  net::ClientStats cs;
  std::thread client(
      [&] { cs = net::run_client(quiet_client(broker.port(), bits)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  broker.run();  // max_sessions reached -> graceful drain
  client.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(broker.metrics().counter("spool_handoffs").value(), 1);
  EXPECT_EQ(broker.stats().spool.sessions_claimed, 0u);
  EXPECT_EQ(test::sessions_taken(broker), 1u);
}

// Stream-mode clients bypass the spool entirely (garble-while-transfer
// serves them live) while precomputed clients keep drawing from it —
// mixed traffic against one broker, every MAC bit-identical.
TEST_F(BrokerTest, StreamSessionsBypassSpoolAndMatchPrecomputed) {
  const std::size_t bits = 8, rounds = 6;
  evloop::EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.shards = 2;
  cfg.max_sessions = 2;
  cfg.spool_low_watermark = 1;
  cfg.spool_high_watermark = 2;
  test::LiveBroker broker(cfg);

  net::ClientConfig pre = quiet_client(broker.port(), bits);
  const net::ClientStats ps = net::run_client(pre);

  net::ClientConfig str = quiet_client(broker.port(), bits);
  str.mode = net::SessionMode::kStream;
  const net::ClientStats ss = net::run_client(str);
  broker.join();

  EXPECT_TRUE(ps.verified);
  EXPECT_TRUE(ss.verified);
  EXPECT_EQ(ss.output_value, ps.output_value);
  EXPECT_EQ(ss.output_value,
            net::demo_mac_reference(cfg.demo_seed, bits, rounds));
  EXPECT_GT(ss.chunks_received, 0u);

  const BrokerStats st = broker->stats();
  EXPECT_EQ(st.server.sessions_served, 2u);
  EXPECT_EQ(st.server.stream_sessions_served, 1u);
  // Only the precomputed session took spool inventory.
  EXPECT_EQ(test::sessions_taken(*broker), 1u);

  MetricsRegistry& m = broker->metrics();
  EXPECT_EQ(m.counter("stream_sessions_served").value(), 1u);
  EXPECT_EQ(m.histogram("first_table_seconds").snapshot().count, 1u);
  EXPECT_GT(m.gauge("peak_resident_tables").value(), 0);
}

// A broker started with streaming disabled refuses the mode with the
// typed reject and keeps serving precomputed traffic.
TEST_F(BrokerTest, NoStreamBrokerRefusesStreamClients) {
  const std::size_t bits = 8, rounds = 4;
  evloop::EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.max_sessions = 1;
  cfg.allow_stream = false;
  test::LiveBroker broker(cfg);

  net::ClientConfig str = quiet_client(broker.port(), bits);
  str.mode = net::SessionMode::kStream;
  try {
    (void)net::run_client(str);
    FAIL() << "stream client accepted by a --mode precomputed broker";
  } catch (const net::HandshakeError& e) {
    EXPECT_EQ(e.code(), net::RejectCode::kBadMode);
  }

  const net::ClientStats cs =
      net::run_client(quiet_client(broker.port(), bits));
  broker.join();
  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(broker->stats().server.stream_sessions_served, 0u);
}

// Broker metrics reflect the traffic that actually flowed.
TEST_F(BrokerTest, MetricsTrackServedSessions) {
  const std::size_t bits = 8, rounds = 4, clients = 2;
  evloop::EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.shards = 2;
  cfg.max_sessions = clients;
  test::LiveBroker broker(cfg);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients; ++i)
    threads.emplace_back(
        [&] { (void)net::run_client(quiet_client(broker.port(), bits)); });
  for (auto& t : threads) t.join();
  broker.join();

  MetricsRegistry& m = broker->metrics();
  EXPECT_EQ(m.counter("sessions_served").value(), clients);
  EXPECT_EQ(m.counter("rounds_served").value(), clients * rounds);
  EXPECT_EQ(m.histogram("session_seconds").snapshot().count, clients);
  EXPECT_EQ(m.histogram("handshake_seconds").snapshot().count, clients);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"sessions_served\":2"), std::string::npos);
  EXPECT_NE(json.find("\"session_seconds\":{"), std::string::npos);
}

// --- Protocol v3 against the broker --------------------------------------

// One v3 client reconnecting three times: the first session pays the
// base OT and one extension batch, the rest resume the pool — setup
// bytes collapse by >=10x, every MAC still matches the reference, and
// all sessions drain from the spool's v3 lane (the v2 lane is never
// touched).
TEST_F(BrokerTest, V3ClientsAmortizeBaseOtAcrossBrokerSessions) {
  const std::size_t bits = 8, rounds = 6, sessions = 3;
  evloop::EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.shards = 2;
  cfg.max_sessions = sessions;
  cfg.spool_low_watermark = 1;
  cfg.spool_high_watermark = 4;
  test::LiveBroker broker(cfg);

  crypto::SystemRandom id_rng;
  auto state = net::make_v3_client_state(id_rng);
  std::vector<net::ClientStats> rs;
  for (std::size_t i = 0; i < sessions; ++i) {
    net::ClientConfig ccfg = quiet_client(broker.port(), bits);
    ccfg.protocol = net::kProtocolVersionV3;
    ccfg.v3_state = state;
    rs.push_back(net::run_client(ccfg));
  }
  broker.join();

  const std::uint64_t want =
      net::demo_mac_reference(cfg.demo_seed, bits, rounds);
  for (std::size_t i = 0; i < sessions; ++i) {
    EXPECT_TRUE(rs[i].verified) << "session " << i;
    EXPECT_EQ(rs[i].output_value, want) << "session " << i;
    EXPECT_EQ(rs[i].protocol_used, net::kProtocolVersionV3) << "session " << i;
  }
  EXPECT_FALSE(rs[0].pool_resumed);
  EXPECT_TRUE(rs[1].pool_resumed);
  EXPECT_TRUE(rs[2].pool_resumed);
  EXPECT_LE(rs[1].setup_bytes * 10, rs[0].setup_bytes);
  EXPECT_LE(rs[2].setup_bytes * 10, rs[0].setup_bytes);

  const BrokerStats st = broker->stats();
  EXPECT_EQ(st.server.sessions_served, sessions);
  EXPECT_EQ(st.server.v3_sessions_served, sessions);
  EXPECT_EQ(st.server.v3_fresh_pools, 1u);
  EXPECT_EQ(st.server.v3_ot_extended, ot::kPoolExtendBatch);
  EXPECT_EQ(test::v3_sessions_taken(*broker), sessions);
  EXPECT_EQ(test::sessions_taken(*broker), 0u);
  EXPECT_EQ(st.spool.v3_lineage_discarded, 0u);
  EXPECT_EQ(broker->v3_outstanding_claims(), 0u);

  MetricsRegistry& m = broker->metrics();
  EXPECT_EQ(m.counter("v3_sessions_served").value(),
            static_cast<std::int64_t>(sessions));
  EXPECT_GT(m.counter("net_tx_bytes_v3").value(), 0);
  EXPECT_GT(m.counter("net_rx_bytes_v3").value(), 0);
  EXPECT_NE(m.to_json().find("net_tx_bytes_v3"), std::string::npos);
}

// Mixed concurrent traffic: v3 clients (each with its own identity and
// pool) interleaved with v2 clients on a multi-shard broker. Every MAC
// matches, each lane's claims match its session count, and no OT-pool
// claim is left outstanding.
TEST_F(BrokerTest, MixedV2V3ConcurrentClientsKeepLanesSeparate) {
  const std::size_t bits = 8, rounds = 4, v3_clients = 3, v2_clients = 2;
  const std::size_t clients = v3_clients + v2_clients;
  evloop::EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.shards = 2;
  cfg.max_sessions = clients;
  cfg.spool_low_watermark = 1;
  cfg.spool_high_watermark = clients;
  test::LiveBroker broker(cfg);

  std::vector<net::ClientStats> results(clients);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients; ++i)
    threads.emplace_back([&, i] {
      net::ClientConfig ccfg = quiet_client(broker.port(), bits);
      if (i < v3_clients) {
        crypto::SystemRandom id_rng;
        ccfg.protocol = net::kProtocolVersionV3;
        ccfg.v3_state = net::make_v3_client_state(id_rng);
      }
      results[i] = net::run_client(ccfg);
    });
  for (auto& t : threads) t.join();
  broker.join();

  const std::uint64_t want =
      net::demo_mac_reference(cfg.demo_seed, bits, rounds);
  for (std::size_t i = 0; i < clients; ++i) {
    EXPECT_TRUE(results[i].verified) << "client " << i;
    EXPECT_EQ(results[i].output_value, want) << "client " << i;
    EXPECT_EQ(results[i].protocol_used,
              i < v3_clients ? net::kProtocolVersionV3 : net::kProtocolVersion)
        << "client " << i;
  }

  const BrokerStats st = broker->stats();
  EXPECT_EQ(st.server.sessions_served, clients);
  EXPECT_EQ(st.server.v3_sessions_served, v3_clients);
  EXPECT_EQ(st.server.v3_fresh_pools, v3_clients);  // distinct identities
  EXPECT_EQ(test::v3_sessions_taken(*broker), v3_clients);
  EXPECT_EQ(test::sessions_taken(*broker), v2_clients);
  EXPECT_EQ(st.server.connection_errors, 0u);
  EXPECT_EQ(broker->v3_outstanding_claims(), 0u);

  MetricsRegistry& m = broker->metrics();
  EXPECT_GT(m.counter("net_tx_bytes_v3").value(), 0);
  EXPECT_GT(m.counter("net_tx_bytes_precomputed").value(), 0);
}

// A v3 session is only servable under the garbling delta it was spooled
// with, and that delta dies with the broker process. On restart in the
// same spool directory, the inherited v3 inventory's recorded lineage
// no longer matches the new registry: take_v3 must burn it (claim and
// destroy, never serve) and fresh sessions must take over.
TEST_F(BrokerTest, RestartBurnsForeignLineageV3SessionsInsteadOfServing) {
  const std::size_t bits = 8, rounds = 4;
  std::uint64_t first_v3_leftover = 0;
  {
    evloop::EvBrokerConfig cfg = quiet_config(bits, rounds);
    cfg.shards = 2;
    cfg.spool_low_watermark = 1;
    cfg.spool_high_watermark = 4;
    cfg.max_sessions = 1;
    test::LiveBroker broker(cfg);
    net::ClientConfig ccfg = quiet_client(broker.port(), bits);
    ccfg.protocol = net::kProtocolVersionV3;
    const net::ClientStats cs = net::run_client(ccfg);
    broker.join();
    EXPECT_TRUE(cs.verified);
    const BrokerStats st = broker->stats();
    EXPECT_EQ(test::v3_sessions_taken(*broker), 1u);
    first_v3_leftover = st.spool.v3_spooled - st.spool.v3_claimed;
    ASSERT_GT(first_v3_leftover, 0u) << "need stale v3 stock to restart on";
  }
  {
    evloop::EvBrokerConfig cfg = quiet_config(bits, rounds);
    cfg.shards = 2;
    cfg.spool_low_watermark = 1;
    cfg.spool_high_watermark = 2;
    cfg.max_sessions = 1;
    // Fresh delta: the inherited v3 lineage is foreign.
    test::LiveBroker broker(cfg);
    EXPECT_EQ(broker->stats().spool.sessions_ready_v3, first_v3_leftover);
    net::ClientConfig ccfg = quiet_client(broker.port(), bits);
    ccfg.protocol = net::kProtocolVersionV3;
    const net::ClientStats cs = net::run_client(ccfg);
    broker.join();
    EXPECT_TRUE(cs.verified);
    const BrokerStats st = broker->stats();
    // Every inherited session was burned, none served; the session that
    // did flow came from freshly garbled same-lineage stock.
    EXPECT_EQ(st.spool.v3_lineage_discarded, first_v3_leftover);
    EXPECT_EQ(test::v3_sessions_taken(*broker), 1u);
    EXPECT_EQ(st.server.v3_sessions_served, 1u);
    EXPECT_EQ(broker->v3_outstanding_claims(), 0u);
  }
}

}  // namespace
}  // namespace maxel::svc
