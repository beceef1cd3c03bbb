#include "evloop/ev_service.hpp"

#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "evloop/ev_broker.hpp"
#include "net/cli.hpp"

namespace maxel::evloop {

namespace {

// Serves until the broker drains by itself (--sessions) or SIGINT /
// SIGTERM arrives. The signals are blocked in every thread (the mask is
// inherited from the caller, set before the broker spawns any) and
// collected here, so the stop request runs on an ordinary thread rather
// than inside a handler.
void run_until_signal(EvBroker& broker, const sigset_t& stop_signals) {
  std::atomic<bool> finished{false};
  std::exception_ptr failure;
  std::thread runner([&] {
    try {
      broker.run();
    } catch (...) {
      failure = std::current_exception();
    }
    finished.store(true);
  });
  while (!finished.load()) {
    const timespec poll{0, 100'000'000};
    if (::sigtimedwait(&stop_signals, nullptr, &poll) > 0)
      broker.request_stop();
  }
  runner.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace

int evloop_command(int argc, char** argv) {
  EvBrokerConfig cfg;
  cfg.verbose = true;
  if (const char* env = std::getenv("MAXEL_FAULT_PLAN")) cfg.fault_plan = env;
  std::string json_path;
  net::FlagParser p("maxel_server", argc, argv);
  std::string flag;
  while (p.next(flag)) {
    if (flag == "--port") p.num(cfg.port);
    else if (flag == "--bind") p.str(cfg.bind_addr);
    else if (flag == "--bits") p.num(cfg.bits);
    else if (flag == "--rounds") p.num(cfg.rounds_per_session);
    else if (flag == "--scheme") p.scheme(cfg.scheme);
    else if (flag == "--sessions") p.num(cfg.max_sessions);
    else if (flag == "--cores") p.num(cfg.precompute_cores);
    else if (flag == "--seed") p.num(cfg.demo_seed);
    else if (flag == "--shards") p.num(cfg.shards);
    else if (flag == "--backlog") p.num(cfg.listen_backlog);
    else if (flag == "--spool") p.str(cfg.spool_dir);
    else if (flag == "--low") p.num(cfg.spool_low_watermark);
    else if (flag == "--high") p.num(cfg.spool_high_watermark);
    else if (flag == "--cache") p.num(cfg.ram_cache_sessions);
    else if (flag == "--chunk-rounds") p.num(cfg.stream_chunk_rounds);
    else if (flag == "--idle-timeout") p.num(cfg.idle_timeout_ms);
    else if (flag == "--fault-plan") p.str(cfg.fault_plan);
    else if (flag == "--json") p.str(json_path);
    else if (flag == "--quiet") cfg.verbose = false;
    else if (flag == "--mode") {
      net::ModeChoice mc;
      p.mode(mc);
      cfg.allow_stream = mc.stream;
      cfg.allow_v3 = mc.v3;
      cfg.allow_reusable = mc.reusable;
    }
    else if (flag == "--help" || flag == "-h") {
      std::printf(
          "maxelctl serve [flags]  (also: maxel_server [flags])\n"
          "  --port N --bind ADDR --bits N --rounds N --sessions N\n"
          "  --scheme {halfgates|grr3|classic4} --cores N --seed N\n"
          "  --shards N --backlog N --chunk-rounds N --idle-timeout MS\n"
          "  --spool DIR --low N --high N --cache N  (default: a private\n"
          "        temporary spool, removed on exit)\n"
          "  --fault-plan SPEC --json PATH --quiet\n"
          "  --mode {precomputed|stream|v3|reusable}  serve only this mode\n"
          "        family (default: all four):\n%s",
          net::kModeHelp);
      return 0;
    }
    else p.unknown();
  }
  if (p.ok() && (cfg.bits == 0 || cfg.rounds_per_session == 0 ||
                 cfg.shards == 0 || cfg.stream_chunk_rounds == 0))
    p.fail("--bits, --rounds, --shards and --chunk-rounds must be >= 1");
  if (!p.ok() || !net::check_fault_plan("maxel_server", cfg.fault_plan))
    return 2;

  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  ::pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  try {
    std::optional<svc::TempSpoolDir> temp_spool;
    if (cfg.spool_dir.empty()) {
      temp_spool.emplace();
      cfg.spool_dir = temp_spool->path();
    }
    EvBroker broker(cfg);
    std::printf("maxel_server listening on %s:%u (b=%zu, %zu rounds/session, "
                "%s, %zu shards, spool %s [%zu..%zu])\n",
                cfg.bind_addr.c_str(), broker.port(), cfg.bits,
                cfg.rounds_per_session, gc::scheme_name(cfg.scheme),
                cfg.shards, cfg.spool_dir.c_str(), cfg.spool_low_watermark,
                cfg.spool_high_watermark);
    std::fflush(stdout);
    run_until_signal(broker, stop_signals);

    const svc::BrokerStats st = broker.stats();
    std::printf("served %llu sessions (%llu rounds) over %zu shards: "
                "%llu B out, %llu B in, %llu rejected busy, wall %.3fs\n",
                static_cast<unsigned long long>(st.server.sessions_served),
                static_cast<unsigned long long>(st.server.rounds_served),
                cfg.shards,
                static_cast<unsigned long long>(st.server.bytes_sent),
                static_cast<unsigned long long>(st.server.bytes_received),
                static_cast<unsigned long long>(st.admission_rejects),
                st.server.total_seconds);
    net::dump_stats(broker.to_json(), json_path);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxel_server: %s\n", e.what());
    return 1;
  }
}

}  // namespace maxel::evloop
