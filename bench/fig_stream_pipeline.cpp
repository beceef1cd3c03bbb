// fig_stream_pipeline — what does garble-while-transfer buy over
// precompute-then-serve?
//
// Runs the same remote secure-MAC session twice against a cold
// single-shard EvBroker on loopback: once in precomputed mode (the
// client's first table waits behind a full-session garble by the spool
// producer) and once in stream mode (the server ships fixed-size chunks
// as it garbles them, so the client starts evaluating after one
// chunk). Three things are measured per mode: end-to-end wall time, time-to-first-table at the
// client, and the server's peak resident garbled tables — the stream
// pipeline should be strictly better on the latter two, with wall time
// approaching max(garble, transfer, eval) instead of their sum.
//
//   fig_stream_pipeline [rounds] [bits] [chunk_rounds]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.hpp"
#include "evloop/ev_broker.hpp"
#include "net/client.hpp"
#include "svc/session_spool.hpp"

namespace {

using namespace maxel;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ModeResult {
  double wall_seconds = 0;
  double first_table_seconds = 0;
  std::uint64_t peak_resident_tables = 0;
  double mac_per_sec = 0;
  double bytes_per_mac = 0;
  bool verified = false;
};

ModeResult run_mode(net::SessionMode mode, std::size_t rounds,
                    std::size_t bits, std::size_t chunk_rounds) {
  const svc::TempSpoolDir spool;
  evloop::EvBrokerConfig scfg;
  scfg.bind_addr = "127.0.0.1";
  scfg.port = 0;
  scfg.bits = bits;
  scfg.rounds_per_session = rounds;
  scfg.spool_dir = spool.path();
  scfg.shards = 1;
  scfg.max_sessions = 1;
  scfg.stream_chunk_rounds = chunk_rounds;
  // v2 only: no v3 lane or reusable artifact competing for the cores.
  scfg.allow_v3 = false;
  // Cold start either way: in precomputed mode the spool begins empty,
  // so the client's first table waits behind one full-session garble;
  // in stream mode watermarks of 0 keep the producer idle so it cannot
  // steal cores from the inline garbling.
  const std::size_t stock = mode == net::SessionMode::kStream ? 0 : 1;
  scfg.spool_low_watermark = stock;
  scfg.spool_high_watermark = stock;

  evloop::EvBroker server(scfg);
  std::thread serve_thread([&] { server.run(); });

  net::ClientConfig ccfg;
  ccfg.port = server.port();
  ccfg.bits = bits;
  ccfg.mode = mode;
  ccfg.verbose = false;
  const auto t0 = Clock::now();
  const net::ClientStats cst = net::run_client(ccfg);
  ModeResult res;
  res.wall_seconds = seconds_since(t0);
  serve_thread.join();

  res.first_table_seconds = cst.first_table_seconds;
  res.peak_resident_tables = server.stats().server.peak_resident_tables;
  res.mac_per_sec = static_cast<double>(cst.rounds) / res.wall_seconds;
  res.bytes_per_mac =
      static_cast<double>(cst.bytes_received + cst.bytes_sent) /
      static_cast<double>(cst.rounds);
  res.verified = cst.verified;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rounds = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                      : 400;
  const std::size_t bits = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 16;
  const std::size_t chunk_rounds =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 16;
  if (argc > 4 || rounds == 0 || bits == 0 || chunk_rounds == 0) {
    std::fprintf(stderr,
                 "usage: fig_stream_pipeline [rounds] [bits] "
                 "[chunk_rounds]\n");
    return 2;
  }

  bench::header("Garble-while-transfer streaming vs precomputed serving");
  std::printf("cold server, TCP loopback, IKNP OT, b=%zu, %zu rounds "
              "(stream: %zu rounds/chunk)\n\n",
              bits, rounds, chunk_rounds);
  std::printf("%-12s %12s %16s %16s %12s %12s %9s\n", "mode", "wall s",
              "first-table s", "peak res tables", "MAC/s", "bytes/MAC",
              "verified");
  bench::rule(94);

  bench::JsonReporter rep("stream_pipeline");
  ModeResult results[2];
  const net::SessionMode modes[2] = {net::SessionMode::kPrecomputed,
                                     net::SessionMode::kStream};
  const char* names[2] = {"precomputed", "stream"};
  for (int m = 0; m < 2; ++m) {
    results[m] = run_mode(modes[m], rounds, bits, chunk_rounds);
    const ModeResult& r = results[m];
    std::printf("%-12s %12.3f %16.4f %16llu %12.0f %12.0f %9s\n", names[m],
                r.wall_seconds, r.first_table_seconds,
                static_cast<unsigned long long>(r.peak_resident_tables),
                r.mac_per_sec, r.bytes_per_mac, r.verified ? "yes" : "NO");
    rep.row()
        .str("mode", names[m])
        .num("rounds", static_cast<std::uint64_t>(rounds))
        .num("bits", static_cast<std::uint64_t>(bits))
        .num("wall_seconds", r.wall_seconds)
        .num("first_table_seconds", r.first_table_seconds)
        .num("peak_resident_tables", r.peak_resident_tables)
        .num("mac_per_sec", r.mac_per_sec)
        .num("bytes_per_mac", r.bytes_per_mac)
        .boolean("verified", r.verified);
  }

  const bool faster_first =
      results[1].first_table_seconds < results[0].first_table_seconds;
  const bool smaller_peak =
      results[1].peak_resident_tables < results[0].peak_resident_tables;
  std::printf("\nstream vs precomputed: first table %.1fx sooner, peak "
              "resident tables %.1fx smaller%s\n",
              results[0].first_table_seconds /
                  results[1].first_table_seconds,
              static_cast<double>(results[0].peak_resident_tables) /
                  static_cast<double>(results[1].peak_resident_tables),
              faster_first && smaller_peak ? "" : "  ** REGRESSION **");
  std::printf("wrote %s\n", rep.write().c_str());
  return results[0].verified && results[1].verified && faster_first &&
                 smaller_peak
             ? 0
             : 1;
}
