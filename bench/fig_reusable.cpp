// fig_reusable — what does garble-once buy at scale?
//
// The reusable scheme (src/gc/reusable.hpp) garbles the MAC circuit a
// single time and serves every later session off the cached artifact:
// a session is one d/z masked-bit exchange over the shared v3 OT pool
// and a purely local plaintext evaluation. The win is amortization, so
// this bench measures it as amortization: for each delivery mode the
// SAME client identity reconnects for 1000 short sessions against one
// server, and we report cumulative (amortized) MAC/s and bytes/MAC at
// the 1 / 10 / 100 / 1000 session marks. At one session reusable pays
// the full artifact transfer and looks poor; by 1000 the artifact has
// been paid for 1000 times over and both curves flatten onto the
// per-session floor. bench_compare.py gates the 1000-session point:
// reusable must land at <= 0.25x the v3 wire bytes per MAC and >= 2x
// the v3 throughput.
//
// All three modes decode the same demo inputs, so every session's MAC
// is checked bit-for-bit against the plaintext reference
// (verified=false poisons the CI gate whatever the speed).
//
// Two more rows time one kPoolExtendBatch-OT pool extension (client and
// server halves, in process): on a fresh pool, and on a pool already
// holding 2^20 pads. Long-lived identities are the point of the pool,
// so bench_compare.py gates extension cost as independent of pool size
// (the 2^20-pad row at <= 1.1x the fresh row, same run).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "crypto/rng.hpp"
#include "evloop/ev_broker.hpp"
#include "net/client.hpp"
#include "net/v3_service.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"
#include "svc/session_spool.hpp"

namespace {

using namespace maxel;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::size_t kBits = 16;
constexpr std::size_t kRoundsPerSession = 8;
constexpr std::size_t kCheckpoints[] = {1, 10, 100, 1000};
constexpr std::size_t kSessions = 1000;

struct Checkpoint {
  std::size_t sessions = 0;
  double cum_seconds = 0;
  std::uint64_t cum_bytes = 0;   // both directions, all sessions so far
  std::uint64_t setup_bytes = 0; // the latest session's setup cost
  bool verified = true;
};

struct ModeSpec {
  const char* name;            // row key in BENCH_reusable.json
  net::SessionMode mode;
  std::uint32_t protocol;
  std::size_t sessions;        // how far to run this mode's curve
};

// One server, `spec.sessions` sequential reconnects from one client
// identity (v3/reusable share pool + artifact state across sessions,
// exactly like a real long-lived client). Cumulative time and bytes
// are sampled at each checkpoint.
std::vector<Checkpoint> run_mode(const ModeSpec& spec) {
  const svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg;
  scfg.bind_addr = "127.0.0.1";
  scfg.port = 0;
  scfg.bits = kBits;
  scfg.rounds_per_session = kRoundsPerSession;
  scfg.spool_dir = spool.path();
  scfg.shards = 1;
  scfg.max_sessions = spec.sessions;
  evloop::EvBroker server(scfg);
  std::thread serve([&] { server.run(); });

  crypto::SystemRandom id_rng(crypto::Block{0xAB, 0xCD});
  auto state = net::make_v3_client_state(id_rng);

  std::vector<Checkpoint> out;
  double cum_seconds = 0;
  std::uint64_t cum_bytes = 0;
  std::uint64_t last_setup = 0;
  bool verified = true;
  std::size_t next_cp = 0;
  for (std::size_t i = 1; i <= spec.sessions; ++i) {
    net::ClientConfig ccfg;
    ccfg.port = server.port();
    ccfg.bits = kBits;
    ccfg.verbose = false;
    ccfg.mode = spec.mode;
    ccfg.protocol = spec.protocol;
    if (spec.protocol >= net::kProtocolVersionV3) ccfg.v3_state = state;

    const auto t0 = Clock::now();
    const net::ClientStats cs = net::run_client(ccfg);
    cum_seconds += seconds_since(t0);
    cum_bytes += cs.bytes_sent + cs.bytes_received;
    last_setup = cs.setup_bytes;
    verified = verified && cs.verified;

    if (next_cp < std::size(kCheckpoints) && i == kCheckpoints[next_cp]) {
      Checkpoint cp;
      cp.sessions = i;
      cp.cum_seconds = cum_seconds;
      cp.cum_bytes = cum_bytes;
      cp.setup_bytes = last_setup;
      cp.verified = verified;
      out.push_back(cp);
      ++next_cp;
    }
  }
  serve.join();
  return out;
}

// A client/server pool pair joined by an in-process channel.
struct PoolPair {
  std::unique_ptr<proto::MemoryChannel> s_ch, c_ch;
  crypto::Block delta;
  std::unique_ptr<ot::CorrelatedPoolSender> server;
  ot::CorrelatedPoolReceiver client;

  explicit PoolPair(crypto::RandomSource& rng) {
    std::tie(s_ch, c_ch) = proto::MemoryChannel::create_pair();
    delta = crypto::random_delta(rng);
    server = std::make_unique<ot::CorrelatedPoolSender>(delta, 1);
    ot::pool_base_setup(*server, client, *s_ch, *c_ch, rng, rng);
  }

  // One extension; returns its wall seconds.
  double extend() {
    const auto t0 = Clock::now();
    client.extend(*c_ch, ot::kPoolExtendBatch);
    server->extend(*s_ch, ot::kPoolExtendBatch);
    return seconds_since(t0);
  }

  // Spot-checks the correlation t = q ^ r*delta across the pool.
  [[nodiscard]] bool correlated() const {
    const std::uint64_t n = server->extended();
    for (std::uint64_t j = 0; j < n; j += 997) {
      const crypto::Block q = server->pad(j);
      if (!(client.pad(j) == (client.choice(j) ? q ^ delta : q))) return false;
    }
    return true;
  }
};

struct ExtendRow {
  const char* point;
  double ms;
  std::uint64_t pool_pads;  // pool size before the first timed extension
  bool verified;
};

// Median extension time on fresh pools vs on one pool grown to 2^20
// pads, the two timed alternately so drift hits both rows alike. The
// fresh pools stay alive to the end, so both rows extend into newly
// touched memory rather than the fresh row reusing freed pages.
std::vector<ExtendRow> extension_rows() {
  constexpr int kReps = 15;
  constexpr std::uint64_t kBigPool = std::uint64_t{1} << 20;
  crypto::SystemRandom rng(crypto::Block{0xE7, 0x1D});
  PoolPair big(rng);
  while (big.server->extended() < kBigPool) big.extend();
  std::vector<std::unique_ptr<PoolPair>> fresh;
  std::vector<double> fresh_s, big_s;
  bool fresh_ok = true;
  for (int i = 0; i < kReps; ++i) {
    fresh.push_back(std::make_unique<PoolPair>(rng));
    fresh_s.push_back(fresh.back()->extend());
    fresh_ok = fresh_ok && fresh.back()->correlated();
    big_s.push_back(big.extend());
  }
  return {{"extend-fresh", bench::median(fresh_s) * 1e3, 0, fresh_ok},
          {"extend-at-1m", bench::median(big_s) * 1e3, kBigPool,
           big.correlated()}};
}

}  // namespace

int main(int argc, char** argv) {
  // argv[1] trims the curve for smoke runs (CI uses the full 1000).
  const std::size_t sessions =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : kSessions;

  bench::header("Reusable garbling: amortization across sessions");
  std::printf("b=%zu, %zu-round sessions, one client identity per mode\n\n",
              kBits, kRoundsPerSession);
  std::printf("%-18s %10s %14s %14s %12s\n", "mode@sessions", "sessions",
              "MAC/s (amort)", "bytes/MAC", "verified");
  bench::rule(72);

  const ModeSpec specs[] = {
      // v2 precomputed pays base OT + IKNP per reconnect: nothing
      // amortizes, so its curve is flat — and it dominates this bench's
      // wall time. That flatness IS the result.
      {"precomputed", net::SessionMode::kPrecomputed, net::kProtocolVersion,
       sessions},
      {"v3", net::SessionMode::kPrecomputed, net::kProtocolVersionV3,
       sessions},
      {"reusable", net::SessionMode::kReusable, net::kProtocolVersionV3,
       sessions},
  };

  bench::JsonReporter rep("reusable");
  for (const ModeSpec& spec : specs) {
    const std::vector<Checkpoint> curve = run_mode(spec);
    for (const Checkpoint& cp : curve) {
      const double macs =
          static_cast<double>(cp.sessions * kRoundsPerSession);
      const double mac_per_sec = macs / cp.cum_seconds;
      const double bytes_per_mac = static_cast<double>(cp.cum_bytes) / macs;
      char key[48];
      std::snprintf(key, sizeof(key), "%s-%zu", spec.name, cp.sessions);
      std::printf("%-18s %10zu %14.0f %14.1f %12s\n", key, cp.sessions,
                  mac_per_sec, bytes_per_mac, cp.verified ? "yes" : "NO");
      rep.row()
          .str("point", key)
          .num("sessions", static_cast<double>(cp.sessions))
          .num("mac_per_sec", mac_per_sec)
          .num("bytes_per_mac", bytes_per_mac)
          .num("setup_bytes", static_cast<double>(cp.setup_bytes))
          .boolean("verified", cp.verified);
    }
    bench::rule(72);
  }

  std::printf("\namortized = cumulative rounds / cumulative wall seconds "
              "(artifact + pool setup included)\n\n");

  std::printf("%-18s %10s %14s %12s\n", "pool extension", "pool pads",
              "ms/extension", "verified");
  bench::rule(72);
  for (const ExtendRow& r : extension_rows()) {
    std::printf("%-18s %10llu %14.3f %12s\n", r.point,
                static_cast<unsigned long long>(r.pool_pads), r.ms,
                r.verified ? "yes" : "NO");
    rep.row()
        .str("point", r.point)
        .num("pool_pads", r.pool_pads)
        .num("extend_ms", r.ms)
        .boolean("verified", r.verified);
  }
  std::printf("wrote %s\n", rep.write().c_str());
  return 0;
}
