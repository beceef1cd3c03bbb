// fig_broker_scaling — the evloop concurrency sweep: how many live
// sessions can one serving process carry, and at what latency?
//
// Three tiers, all driving canned reusable-mode sessions through real
// loopback TCP from the single-threaded evloop::ReusableLoadgen (one
// mock client = one connect + one full reusable session) into the
// sharded EvBroker:
//
//   evloop-100      100 concurrent
//   evloop-1000     1000 concurrent — past any sane thread-pool size
//   evloop-10000    10k mock clients through a 4096-connection window;
//                   client AND server ends share this one process's fd
//                   budget (2 fds/session), so the window, not the
//                   client count, caps concurrency
//
// Sessions are tiny (b=8, 2 MAC rounds) on purpose: the sweep measures
// the concurrency machinery — accept drain, readiness scheduling, the
// timer wheel, pool-gate serialization — not garbled-table crypto,
// which the other benches already cover. Every tier requires zero
// failed sessions; the JSON rows carry sessions/s, p50/p99 latency,
// peak in-flight, peak open fds and peak RSS for the baseline gate.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "evloop/ev_broker.hpp"
#include "evloop/loadgen.hpp"

namespace {

using namespace maxel;
namespace fs = std::filesystem;

constexpr std::size_t kBits = 8;
constexpr std::size_t kRounds = 2;  // MAC rounds per session
constexpr std::size_t kShards = 2;

struct Tier {
  const char* point;
  std::size_t sessions;    // total mock clients driven through the tier
  std::size_t window;      // max concurrently open connections
  std::size_t identities;  // distinct client OT-pool identities
};

constexpr Tier kTiers[] = {
    {"evloop-100", 2000, 100, 16},
    {"evloop-1000", 4000, 1000, 32},
    {"evloop-10000", 10000, 4096, 64},
};

struct TierRun {
  evloop::LoadgenResult res;
  std::uint64_t served = 0;  // broker-side reusable_sessions_served
  bool claims_clean = false;
};

evloop::LoadgenConfig loadgen_config(const Tier& t, std::uint16_t port) {
  evloop::LoadgenConfig lcfg;
  lcfg.port = port;
  lcfg.total_sessions = t.sessions;
  lcfg.window = t.window;
  lcfg.clients = t.identities;
  return lcfg;
}

TierRun run_tier(const Tier& t, const fs::path& spool_dir) {
  fs::remove_all(spool_dir);
  evloop::EvBrokerConfig cfg;
  cfg.bind_addr = "127.0.0.1";
  cfg.port = 0;
  cfg.bits = kBits;
  cfg.rounds_per_session = kRounds;
  cfg.spool_dir = spool_dir.string();
  cfg.shards = kShards;
  cfg.spool_low_watermark = 0;  // reusable sessions never touch the
  cfg.spool_high_watermark = 0;  // precomputed spool: producer stays idle
  cfg.ram_cache_sessions = 0;
  cfg.verbose = false;
  evloop::EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });

  TierRun out;
  evloop::ReusableLoadgen lg(broker.v3_registry(), *broker.reusable_context(),
                             broker.expectation());
  out.res = lg.run(loadgen_config(t, broker.port()));
  broker.request_stop();
  run.join();
  out.served = broker.stats().server.reusable_sessions_served;
  out.claims_clean = broker.v3_outstanding_claims() == 0;
  fs::remove_all(spool_dir);
  return out;
}

}  // namespace

int main() {
  const std::uint64_t nofile = evloop::raise_nofile_limit();
  bench::header("Broker scaling: evloop shard front under concurrency");
  std::printf("b=%zu, %zu MAC rounds/session, reusable-mode canned sessions, "
              "%zu evloop shards, RLIMIT_NOFILE %llu\n",
              kBits, kRounds, kShards,
              static_cast<unsigned long long>(nofile));
  std::printf("one mock client = one connect + one full reusable session; "
              "client and server fds share this process\n\n");
  std::printf("%16s %9s %8s %10s %12s %9s %9s %9s %8s %9s\n", "tier",
              "sessions", "window", "wall s", "sessions/s", "p50 ms", "p99 ms",
              "peak fds", "rss MB", "failed");
  bench::rule(108);

  const fs::path spool_dir =
      fs::temp_directory_path() / "maxel_bench_broker_spool";
  bench::JsonReporter rep("broker_scaling");
  bool all_ok = true;
  for (const Tier& t : kTiers) {
    const TierRun r = run_tier(t, spool_dir);
    const bool verified = r.res.ok == t.sessions && r.res.failed == 0 &&
                          r.served == t.sessions && r.claims_clean;
    all_ok = all_ok && verified;
    std::printf("%16s %9zu %8zu %10.3f %12.1f %9.2f %9.2f %8zu %8.1f %9zu%s\n",
                t.point, t.sessions, t.window, r.res.wall_seconds,
                r.res.sessions_per_sec(), r.res.p50_ms, r.res.p99_ms,
                r.res.peak_open_fds,
                static_cast<double>(r.res.peak_rss_kb) / 1024.0, r.res.failed,
                verified ? "" : "  FAILED");
    rep.row()
        .str("point", t.point)
        .str("front", "evloop")
        .num("sessions", static_cast<std::uint64_t>(t.sessions))
        .num("window", static_cast<std::uint64_t>(t.window))
        .num("identities", static_cast<std::uint64_t>(t.identities))
        .num("rounds_per_session", static_cast<std::uint64_t>(kRounds))
        .num("bits", static_cast<std::uint64_t>(kBits))
        .num("wall_seconds", r.res.wall_seconds)
        .num("sessions_per_sec", r.res.sessions_per_sec())
        .num("p50_ms", r.res.p50_ms)
        .num("p99_ms", r.res.p99_ms)
        .num("failed", static_cast<std::uint64_t>(r.res.failed))
        .num("retries", static_cast<std::uint64_t>(r.res.retries))
        .num("peak_inflight", static_cast<std::uint64_t>(r.res.peak_inflight))
        .num("peak_open_fds", static_cast<std::uint64_t>(r.res.peak_open_fds))
        .num("peak_rss_kb", r.res.peak_rss_kb)
        .boolean("verified", verified);
  }

  std::printf("\nevery tier requires zero failed sessions and zero stuck "
              "OT-pool claims (tools/bench_compare.py).\n");
  std::printf("wrote %s\n", rep.write().c_str());
  return all_ok ? 0 : 1;
}
