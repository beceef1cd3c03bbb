// maxelctl — command-line front end for the MAXelerator library.
//
//   maxelctl circuit <mac|dot|mult|millionaires|div|sqrt> [--bits N]
//            [--length L] [--serial] [--optimize] [--out FILE]
//       Build a netlist, print its statistics, optionally export it in
//       Bristol Fashion.
//   maxelctl stats --in FILE [--optimize]
//       Read a Bristol circuit and report gate counts / depth.
//   maxelctl simulate [--bits N] [--rounds M]
//       Run the cycle-accurate accelerator, verify against the software
//       evaluator, print the architecture statistics.
//   maxelctl bank [--bits N] [--rounds M] [--sessions K] [--out PREFIX]
//       Precompute garbling sessions and store them on disk (Fig. 1's
//       host-side store).
//   maxelctl bench-mac [--bits N] [--rounds M]
//       Measure software garbling throughput on this machine.
//   maxelctl serve / maxelctl connect
//       The network service (garbler server / evaluator client); same
//       flags as the standalone maxel_server / maxel_client binaries —
//       see src/evloop/ev_service.hpp, src/net/service.hpp and
//       docs/OPERATIONS.md. `serve` runs the sharded event-loop broker
//       (--shards N; 1 is a sequential server) over a disk session
//       spool (--spool DIR, or a private temporary one). Both take the
//       session-mode selector --mode {precomputed|stream|v3|reusable}:
//       on `serve` it restricts what is accepted, on `connect` it picks
//       what is asked for. `reusable` trades garbler privacy for
//       garble-once throughput — see docs/SECURITY_MODELS.md.
//       `connect` retries failed sessions from scratch with
//       --retries/--retry-backoff; both sides take --fault-plan SPEC
//       (or the MAXEL_FAULT_PLAN env var) to inject a deterministic
//       schedule of link faults for chaos testing, and `serve` bounds
//       stalled clients with --idle-timeout MS — see src/net/fault.hpp
//       and docs/TESTING.md.
//   maxelctl spool --dir DIR [--fill K --bits N --rounds M]
//       Inspect or pre-fill a disk session spool; lists resident
//       reusable artifacts (key, size, evaluations served, lineage).
//   maxelctl spool purge --lane reusable --dir DIR
//       Retire the spool's reusable artifacts (forces a re-garble).
//   maxelctl stats --metrics FILE
//       Pretty-print the metrics export `serve --json FILE` writes.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baseline/tinygarble.hpp"
#include "circuit/arith_ext.hpp"
#include "circuit/bristol.hpp"
#include "circuit/circuits.hpp"
#include "circuit/optimize.hpp"
#include "core/maxelerator.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "evloop/ev_service.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"
#include "net/cli.hpp"
#include "net/service.hpp"
#include "proto/precompute.hpp"
#include "proto/session_io.hpp"
#include "svc/service.hpp"

namespace {

using namespace maxel;

struct Args {
  std::string command;
  std::string kind;
  std::size_t bits = 32;
  std::size_t length = 4;
  std::size_t rounds = 16;
  std::size_t sessions = 1;
  bool serial = false;
  bool optimize = false;
  std::string in;
  std::string out;
};

int usage() {
  std::fprintf(stderr,
               "usage: maxelctl "
               "<circuit|stats|simulate|bank|bench-mac|serve|connect|spool> "
               "[options]\n"
               "  serve: sharded event-loop broker (--shards N, --spool DIR);"
               "\n"
               "  session modes via --mode "
               "{precomputed|stream|v3|reusable} on serve and connect\n"
               "  spool purge --lane reusable --dir DIR retires cached "
               "reusable artifacts\n"
               "  stats --metrics FILE pretty-prints the JSON export "
               "`serve --json FILE` writes\n"
               "  see the header of tools/maxelctl.cpp\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.command = argv[1];
  int first = 2;
  if (a.command == "circuit") {
    if (argc < 3) return false;
    a.kind = argv[2];
    first = 3;
  }
  net::FlagParser p("maxelctl", argc - first, argv + first);
  std::string flag;
  while (p.next(flag)) {
    if (flag == "--bits") p.num(a.bits);
    else if (flag == "--length") p.num(a.length);
    else if (flag == "--rounds") p.num(a.rounds);
    else if (flag == "--sessions") p.num(a.sessions);
    else if (flag == "--serial") a.serial = true;
    else if (flag == "--optimize") a.optimize = true;
    else if (flag == "--in") p.str(a.in);
    else if (flag == "--out") p.str(a.out);
    else p.unknown();
  }
  return p.ok();
}

void print_stats(const circuit::Circuit& c) {
  const auto h = circuit::histogram(c);
  std::printf("circuit %s\n", c.name.empty() ? "(unnamed)" : c.name.c_str());
  std::printf("  inputs: %zu garbler + %zu evaluator, outputs: %zu, dffs: %zu\n",
              c.garbler_inputs.size(), c.evaluator_inputs.size(),
              c.outputs.size(), c.dffs.size());
  std::printf("  gates: %zu total, %zu non-XOR (AND %zu, NAND %zu, OR %zu, "
              "NOR %zu), %zu free (XOR %zu, XNOR %zu)\n",
              c.gates.size(), c.and_count(), h.and_gates, h.nand_gates,
              h.or_gates, h.nor_gates, c.xor_count(), h.xor_gates,
              h.xnor_gates);
  std::printf("  multiplicative depth: %zu\n", circuit::and_depth(c));
  std::printf("  garbled size: %zu bytes/round (half gates)\n",
              c.and_count() * gc::bytes_per_and(gc::Scheme::kHalfGates));
}

circuit::Circuit build_circuit(const Args& a) {
  circuit::MacOptions mac{a.bits, a.bits, true,
                          a.serial ? circuit::Builder::MulStructure::kSerial
                                   : circuit::Builder::MulStructure::kTree};
  if (a.kind == "mac") return circuit::make_mac_circuit(mac);
  if (a.kind == "dot") return circuit::make_dot_product_circuit(a.length, mac);
  if (a.kind == "mult") return circuit::make_multiplier_circuit(mac);
  if (a.kind == "millionaires")
    return circuit::make_millionaires_circuit(a.bits);
  if (a.kind == "div") return circuit::make_divider_circuit(a.bits);
  if (a.kind == "sqrt") return circuit::make_sqrt_circuit(a.bits);
  throw std::runtime_error("unknown circuit kind: " + a.kind);
}

int cmd_circuit(const Args& a) {
  circuit::Circuit c = build_circuit(a);
  if (a.optimize) {
    circuit::OptimizeStats st;
    c = circuit::optimize(c, &st);
    std::printf("optimize: %zu -> %zu gates\n", st.gates_before,
                st.gates_after);
  }
  print_stats(c);
  if (!a.out.empty()) {
    if (c.is_sequential()) {
      std::fprintf(stderr,
                   "note: %s is sequential; Bristol export unsupported\n",
                   a.kind.c_str());
      return 1;
    }
    std::ofstream os(a.out);
    circuit::write_bristol(c, os);
    std::printf("wrote Bristol netlist to %s\n", a.out.c_str());
  }
  return 0;
}

int cmd_stats(const Args& a) {
  if (a.in.empty()) return usage();
  std::ifstream is(a.in);
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", a.in.c_str());
    return 1;
  }
  circuit::Circuit c = circuit::read_bristol(is);
  if (a.optimize) c = circuit::optimize(c);
  print_stats(c);
  return 0;
}

int cmd_simulate(const Args& a) {
  core::MaxeleratorConfig cfg;
  cfg.bit_width = a.bits;
  crypto::SystemRandom rng;
  core::MaxeleratorSim sim(cfg, rng);
  gc::StreamingEvaluator evaluator(sim.netlist(), gc::Scheme::kHalfGates);

  crypto::Prg data(crypto::Block{42, 42});
  const circuit::MacOptions ref{a.bits, a.bits, true};
  const std::uint64_t mask =
      a.bits >= 64 ? ~0ull : ((1ull << a.bits) - 1);
  std::uint64_t expect = 0;
  std::vector<crypto::Block> out_labels;
  std::vector<bool> out_map;

  sim.run(a.rounds, [&](core::RoundOutput&& ro) {
    if (ro.round == 0)
      evaluator.set_initial_state_labels(ro.initial_state_active);
    const std::uint64_t av = data.next_u64() & mask;
    const std::uint64_t xv = data.next_u64() & mask;
    expect = circuit::mac_reference(expect, av, xv, ref);
    std::vector<crypto::Block> g(a.bits), e(a.bits);
    for (std::size_t i = 0; i < a.bits; ++i) {
      g[i] = ((av >> i) & 1u) ? ro.garbler_labels0[i] ^ sim.delta()
                              : ro.garbler_labels0[i];
      e[i] = ((xv >> i) & 1u) ? ro.evaluator_labels0[i] ^ sim.delta()
                              : ro.evaluator_labels0[i];
    }
    out_labels = evaluator.eval_round(
        ro.tables, g, e,
        {ro.fixed_labels0[0], ro.fixed_labels0[1] ^ sim.delta()});
    out_map.resize(ro.output_labels0.size());
    for (std::size_t i = 0; i < out_map.size(); ++i)
      out_map[i] = ro.output_labels0[i].lsb();
  });

  const std::uint64_t decoded =
      circuit::from_bits(gc::decode_with_map(out_labels, out_map));
  const auto& st = sim.stats();
  std::printf("simulated %zu MAC rounds at b=%zu: %s\n", a.rounds, a.bits,
              decoded == expect ? "VERIFIED" : "MISMATCH");
  std::printf("  cores %zu | cycles/MAC %.0f | time/MAC %.2f us | "
              "util %.1f%% | idle %zu/stage | latency %zu stages\n",
              st.cores, st.cycles_per_mac, st.time_per_mac_us(),
              100.0 * st.utilization(), st.steady_idle_per_stage,
              st.pipeline_latency_stages);
  std::printf("  tables %llu (%.2f MB) | rng gated %.1f%% | pcie %.3f ms\n",
              static_cast<unsigned long long>(st.tables),
              static_cast<double>(st.table_bytes) / 1e6,
              100.0 * st.rng_gated_fraction, st.pcie_seconds * 1e3);
  return decoded == expect ? 0 : 1;
}

int cmd_bank(const Args& a) {
  const circuit::MacOptions mac{a.bits, a.bits, true};
  const circuit::Circuit c = circuit::make_mac_circuit(mac);
  proto::GarblingBank bank(c, gc::Scheme::kHalfGates, a.rounds);
  crypto::SystemRandom rng;
  bank.precompute(a.sessions, rng);
  const std::string prefix = a.out.empty() ? "maxel_session" : a.out;
  for (std::size_t i = 0; i < a.sessions; ++i) {
    const std::string path = prefix + "_" + std::to_string(i) + ".bin";
    const std::vector<std::uint8_t> bytes =
        proto::serialize_session(bank.take_session());
    std::ofstream os(path, std::ios::binary);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  std::printf("%zu sessions x %zu rounds (b=%zu), %.1f KB total stored\n",
              a.sessions, a.rounds, a.bits,
              static_cast<double>(bank.stats().stored_bytes) / 1024.0);
  return 0;
}

int cmd_bench_mac(const Args& a) {
  const auto r = baseline::measure_software_mac(a.bits, a.rounds);
  std::printf("software garbling, b=%zu: %.2f us/MAC, %.0f MAC/s "
              "(%zu ANDs/MAC)\n",
              a.bits, r.time_per_mac_us(), r.macs_per_sec(), r.ands_per_mac);
  return 0;
}

}  // namespace

namespace {

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  // The network/service subcommands own their flag parsing (shared with
  // the standalone maxel_server / maxel_client binaries).
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0)
    return maxel::evloop::evloop_command(argc - 2, argv + 2);
  if (argc >= 2 && std::strcmp(argv[1], "connect") == 0)
    return maxel::net::connect_command(argc - 2, argv + 2);
  if (argc >= 2 && std::strcmp(argv[1], "spool") == 0)
    return maxel::svc::spool_command(argc - 2, argv + 2);
  if (argc >= 2 && std::strcmp(argv[1], "stats") == 0 &&
      has_flag(argc - 2, argv + 2, "--metrics"))
    return maxel::svc::stats_command(argc - 2, argv + 2);

  Args a;
  if (!parse(argc, argv, a)) return usage();
  try {
    if (a.command == "circuit") return cmd_circuit(a);
    if (a.command == "stats") return cmd_stats(a);
    if (a.command == "simulate") return cmd_simulate(a);
    if (a.command == "bank") return cmd_bank(a);
    if (a.command == "bench-mac") return cmd_bench_mac(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxelctl: %s\n", e.what());
    return 1;
  }
  return usage();
}
