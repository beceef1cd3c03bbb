// Chaos tier: the seeded FaultPlan matrix (net/fault.hpp) against the
// serving front (evloop::EvBroker), in all four session modes, with the
// faults injected on either end of the wire:
//
//   * client side (EvBrokerChaosTest): the plan drives the client's
//     FaultyChannel; one broker per mode serves every plan in turn;
//   * server side (ChaosMatrix): the plan is the broker's own
//     fault_plan, applied to its sessions' channels; one fresh broker
//     per plan, so each event fires exactly once;
//   * concurrent (BrokerChaosTest): every plan's client at once against
//     one two-shard broker that injects server-side faults of its own,
//     and a metered server-side fault.
//
// The contract for every scenario: within a watchdog, either a
// bit-correct verified MAC or a typed NetError — never a hang, never a
// silent mismatch — the broker keeps serving clean clients afterwards,
// no scenario leaves an OT-pool claim outstanding, and reusable
// sessions run off exactly one garbling. Plan indices are raw-op
// counts, so every schedule reproduces from the string alone.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "crypto/rng.hpp"
#include "evloop/ev_broker.hpp"
#include "live_broker.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "net/v3_service.hpp"

namespace maxel::evloop {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBits = 8;
constexpr std::size_t kRounds = 12;
// Every chaos run must end inside this bound — a hang is a failure even
// when CTest's own TIMEOUT would eventually kill the binary.
constexpr double kWatchdogSeconds = 25.0;

// The one plan list, run from both ends of the wire.
const char* const kMatrixPlans[] = {
    "close@send:0",            // hello / accept dies
    "close@send:2",            // OT setup dies
    "close@recv:1",            // handshake exchange dies
    "close@recv:6",            // session material dies
    "trunc@send:1",            // peer sees a mid-message EOF
    "trunc@send:3",
    "seed=4;split@send:2",     // benign short write: must verify first try
    "refuse@connect:0",        // first connect refused (client side only)
    "seed=3;flip@send:2",      // corrupted payload on the wire
    "seed=11;stall@recv:1:300" // a short stall inside every deadline
};

struct Mode {
  const char* name;
  net::SessionMode mode;
  std::uint32_t protocol;
  [[nodiscard]] bool pooled() const {
    return protocol == net::kProtocolVersionV3;
  }
};

constexpr Mode kPrecomputed{"precomputed", net::SessionMode::kPrecomputed,
                            net::kProtocolVersion};
constexpr Mode kStream{"stream", net::SessionMode::kStream,
                       net::kProtocolVersion};
constexpr Mode kV3{"v3", net::SessionMode::kPrecomputed,
                   net::kProtocolVersionV3};
constexpr Mode kReusable{"reusable", net::SessionMode::kReusable,
                         net::kProtocolVersionV3};

struct Outcome {
  bool verified = false;
  bool threw = false;
  std::string error;
  std::uint32_t attempts = 0;
  std::uint64_t output = 0;
  double elapsed = 0;
};

// A retrying client in mode `m`; pooled modes get a fresh identity.
net::ClientConfig chaos_client(std::uint16_t port, const std::string& plan,
                               const Mode& m) {
  net::ClientConfig cfg;
  cfg.port = port;
  cfg.bits = kBits;
  cfg.verbose = false;
  cfg.fault_plan = plan;
  cfg.mode = m.mode;
  cfg.protocol = m.protocol;
  if (m.pooled()) {
    crypto::SystemRandom id_rng;
    cfg.v3_state = net::make_v3_client_state(id_rng);
  }
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_ms = 10;
  cfg.retry.backoff_max_ms = 50;
  cfg.tcp.recv_timeout_ms = 2'000;
  cfg.tcp.send_timeout_ms = 2'000;
  cfg.tcp.connect_attempts = 3;
  cfg.tcp.connect_backoff_ms = 20;
  return cfg;
}

Outcome run_chaos_client(const net::ClientConfig& cfg) {
  Outcome out;
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
  out.elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

const std::uint64_t kExpectedMac = net::demo_mac_reference(7, kBits, kRounds);

// Bounded time, then either a bit-correct MAC or a typed NetError.
void check_outcome(const Outcome& out) {
  EXPECT_LT(out.elapsed, kWatchdogSeconds);
  if (out.threw) {
    EXPECT_FALSE(out.error.empty());
  } else {
    EXPECT_TRUE(out.verified) << "completed without verifying";
    EXPECT_EQ(out.output, kExpectedMac);
  }
}

// Whatever a plan did, the broker must still serve a clean client.
void expect_serves_clean_client(std::uint16_t port, const Mode& m) {
  const Outcome clean = run_chaos_client(chaos_client(port, "", m));
  EXPECT_TRUE(clean.verified) << clean.error;
}

evloop::EvBrokerConfig chaos_config(const svc::TempSpoolDir& spool) {
  evloop::EvBrokerConfig cfg = test::broker_config(spool, kBits, kRounds);
  cfg.shards = 2;
  cfg.spool_high_watermark = 4;
  cfg.idle_timeout_ms = 5'000;  // bounds stalled/half-dead peers
  return cfg;
}

// Checked once the loops are fully down: every claim ended in consume
// or discard whatever the schedule did, the stats and metrics agree,
// and the reusable artifact was garbled exactly once and survived.
void expect_clean_shutdown(EvBroker& broker) {
  EXPECT_EQ(broker.v3_outstanding_claims(), 0u);
  const svc::BrokerStats st = broker.stats();
  EXPECT_EQ(static_cast<std::int64_t>(st.server.sessions_served),
            broker.metrics().counter("sessions_served").value());
  EXPECT_EQ(st.server.reusable_garbles, 1u);
  EXPECT_EQ(st.spool.reusable_ready, 1u);
}

// Client-side injection: one broker per mode, every plan in sequence.
void run_client_side_matrix(const Mode& m) {
  svc::TempSpoolDir spool;
  test::LiveBroker broker(chaos_config(spool));
  int recovered = 0;
  for (const char* plan : kMatrixPlans) {
    SCOPED_TRACE(std::string("client-side plan=") + plan + " mode=" + m.name);
    const Outcome out = run_chaos_client(chaos_client(broker.port(), plan, m));
    check_outcome(out);
    if (out.verified && out.attempts >= 2) ++recovered;
    if (out.threw) expect_serves_clean_client(broker.port(), m);
  }
  broker.stop();
  expect_clean_shutdown(*broker);
  // Most plans are transient faults: retry must actually be recovering,
  // not every scenario dying with a typed error.
  EXPECT_GE(recovered, 5);
}

// Server-side injection: a fresh broker per plan (the injector spans a
// broker's lifetime), a clean client against it.
void run_server_side_matrix(const Mode& m) {
  int recovered = 0;
  for (const char* plan : kMatrixPlans) {
    SCOPED_TRACE(std::string("server-side plan=") + plan + " mode=" + m.name);
    svc::TempSpoolDir spool;
    evloop::EvBrokerConfig cfg = chaos_config(spool);
    cfg.fault_plan = plan;
    test::LiveBroker broker(cfg);
    const Outcome out = run_chaos_client(chaos_client(broker.port(), "", m));
    check_outcome(out);
    if (out.verified && out.attempts >= 2) ++recovered;
    if (out.threw) expect_serves_clean_client(broker.port(), m);
    broker.stop();
    expect_clean_shutdown(*broker);
    EXPECT_LE(broker->metrics().gauge("faults_injected").value(), 1);
  }
  EXPECT_GE(recovered, 5);
}

// Every plan's client at once against one two-shard broker that is
// faulting too: its one injector is shared by both shards, so which
// sessions the server-side events hit depends on the interleaving.
void run_concurrent_matrix(const Mode& m) {
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig cfg = chaos_config(spool);
  cfg.fault_plan = "seed=5;close@send:4;stall@recv:2:100;flip@send:9";
  test::LiveBroker broker(cfg);
  std::vector<Outcome> outs(std::size(kMatrixPlans));
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < outs.size(); ++i)
    clients.emplace_back([&, i] {
      outs[i] = run_chaos_client(
          chaos_client(broker.port(), kMatrixPlans[i], m));
    });
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    SCOPED_TRACE(std::string("concurrent plan=") + kMatrixPlans[i] +
                 " mode=" + m.name);
    check_outcome(outs[i]);
  }
  expect_serves_clean_client(broker.port(), m);
  broker.stop();
  expect_clean_shutdown(*broker);
}

TEST(EvBrokerChaosTest, PrecomputedSurvivesEveryPlan) {
  run_client_side_matrix(kPrecomputed);
}

TEST(EvBrokerChaosTest, StreamSurvivesEveryPlan) {
  run_client_side_matrix(kStream);
}

TEST(EvBrokerChaosTest, V3SurvivesEveryPlanWithNoStuckClaims) {
  run_client_side_matrix(kV3);
}

TEST(EvBrokerChaosTest, ReusableSurvivesEveryPlanWithNoStuckClaims) {
  run_client_side_matrix(kReusable);
}

TEST(ChaosMatrix, PrecomputedServerSurvivesEveryPlan) {
  run_server_side_matrix(kPrecomputed);
}

TEST(ChaosMatrix, StreamServerSurvivesEveryPlan) {
  run_server_side_matrix(kStream);
}

TEST(ChaosMatrix, V3ServerSurvivesEveryPlanWithNoStuckClaims) {
  run_server_side_matrix(kV3);
}

TEST(ChaosMatrix, ReusableServerSurvivesEveryPlanWithNoStuckClaims) {
  run_server_side_matrix(kReusable);
}

TEST(BrokerChaosTest, BrokerSurvivesEveryPlan) {
  run_concurrent_matrix(kPrecomputed);
}

TEST(BrokerChaosTest, ReusableBrokerSurvivesEveryPlanOffOneGarbling) {
  run_concurrent_matrix(kReusable);
}

// A server-side fault fires inside a shard, is metered, and the client's
// retry is the one session served.
TEST(BrokerChaosTest, BrokerSideFaultIsMeteredAndSurvived) {
  svc::TempSpoolDir spool;
  evloop::EvBrokerConfig cfg = chaos_config(spool);
  cfg.fault_plan = "close@send:5";
  test::LiveBroker broker(cfg);
  const Outcome out =
      run_chaos_client(chaos_client(broker.port(), "", kPrecomputed));
  broker.stop();

  EXPECT_TRUE(out.verified) << out.error;
  EXPECT_EQ(out.attempts, 2u);
  svc::MetricsRegistry& m = broker->metrics();
  EXPECT_EQ(m.gauge("faults_injected").value(), 1);
  EXPECT_EQ(m.counter("peer_disconnects").value(), 1);
  EXPECT_EQ(m.counter("connection_errors").value(), 1);
  EXPECT_EQ(broker->stats().server.sessions_served, 1u);
}

}  // namespace
}  // namespace maxel::evloop
