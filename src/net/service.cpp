#include "net/service.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/cli.hpp"
#include "net/client.hpp"

namespace maxel::net {

int connect_command(int argc, char** argv) {
  ClientConfig cfg;
  if (const char* env = std::getenv("MAXEL_FAULT_PLAN")) cfg.fault_plan = env;
  std::string json_path, ot;
  FlagParser p("maxel_client", argc, argv);
  std::string flag;
  while (p.next(flag)) {
    if (flag == "--host") p.str(cfg.host);
    else if (flag == "--port") p.num(cfg.port);
    else if (flag == "--bits") p.num(cfg.bits);
    else if (flag == "--rounds") p.num(cfg.rounds_hint);
    else if (flag == "--seed") p.num(cfg.demo_seed);
    else if (flag == "--no-check") cfg.check = false;
    else if (flag == "--quiet") cfg.verbose = false;
    else if (flag == "--mode") {
      ModeChoice mc;
      p.mode(mc);
      cfg.mode = mc.reusable ? SessionMode::kReusable
                 : mc.stream ? SessionMode::kStream
                             : SessionMode::kPrecomputed;
      cfg.protocol = mc.v3 ? kProtocolVersionV3 : kProtocolVersion;
    }
    // Deprecated aliases of --mode, kept so existing scripts work.
    else if (flag == "--stream") cfg.mode = SessionMode::kStream;
    else if (flag == "--v3") cfg.protocol = kProtocolVersionV3;
    else if (flag == "--help" || flag == "-h") {
      std::printf(
          "maxel_client connect [flags]\n"
          "  --host H --port N --bits N --rounds N --seed N\n"
          "  --ot {base|iknp} --scheme {halfgates|grr3|classic4}\n"
          "  --retries N --retry-backoff MS --retry-backoff-max MS\n"
          "  --retry-seed N --net-timeout MS --fault-plan SPEC\n"
          "  --json PATH --no-check --quiet\n"
          "  --mode {precomputed|stream|v3|reusable}  session mode to\n"
          "        request (default: precomputed):\n%s"
          "  --stream/--v3  deprecated aliases of --mode stream / --mode v3\n",
          kModeHelp);
      return 0;
    }
    else if (flag == "--json") p.str(json_path);
    else if (flag == "--retries") p.num(cfg.retry.max_attempts);
    else if (flag == "--retry-backoff") p.num(cfg.retry.backoff_ms);
    else if (flag == "--retry-backoff-max") p.num(cfg.retry.backoff_max_ms);
    else if (flag == "--retry-seed") p.num(cfg.retry.jitter_seed);
    else if (flag == "--fault-plan") p.str(cfg.fault_plan);
    else if (flag == "--net-timeout") {
      p.num(cfg.tcp.recv_timeout_ms);
      cfg.tcp.send_timeout_ms = cfg.tcp.recv_timeout_ms;
    }
    else if (flag == "--ot") {
      p.str(ot);
      if (ot == "base") cfg.ot = OtChoice::kBase;
      else if (ot == "iknp") cfg.ot = OtChoice::kIknp;
      else if (p.ok()) p.fail("bad --ot (base|iknp)");
    }
    else if (flag == "--scheme") p.scheme(cfg.scheme);
    else p.unknown();
  }
  if (p.ok() && (cfg.bits == 0 || cfg.retry.max_attempts < 1))
    p.fail("--bits and --retries must be at least 1");
  if (!p.ok() || !check_fault_plan("maxel_client", cfg.fault_plan)) return 2;

  try {
    const ClientStats st = run_client(cfg);
    std::printf("evaluated %u rounds: MAC = %llu%s, %llu B in, %llu B out, "
                "attempts %u, handshake %.3fs, transfer %.3fs, ot %.3fs, "
                "eval %.3fs\n",
                st.rounds, static_cast<unsigned long long>(st.output_value),
                st.checked ? (st.verified ? " (VERIFIED)" : " (MISMATCH)") : "",
                static_cast<unsigned long long>(st.bytes_received),
                static_cast<unsigned long long>(st.bytes_sent), st.attempts,
                st.handshake_seconds, st.transfer_seconds, st.ot_seconds,
                st.eval_seconds);
    dump_stats(st.to_json(), json_path);
    return st.checked && !st.verified ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxel_client: %s\n", e.what());
    return 1;
  }
}

}  // namespace maxel::net
