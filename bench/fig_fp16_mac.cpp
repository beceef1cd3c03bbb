// fig_fp16_mac — the FP16 workload family on the MAC engine: gate
// inventory of the binary16 add/mul/MAC netlists next to the b=16
// integer MAC, measured garble+evaluate round throughput on the real
// protocol path, and hwsim gate-program cycles at the paper's
// 24/48/96-cycle design points (CoreConfig::for_mac_width for
// b = 8/16/32).
//
// Every timed MAC round is also checked against the softfloat golden
// reference chain (fp16_ref.hpp), so the throughput rows double as a
// correctness smoke; the `verified` flag gates the JSON. The CI gate
// (tools/bench_compare.py) requires the fp16 rows to be present with
// nonzero AND counts and throughput.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "circuit/circuits.hpp"
#include "circuit/fp16.hpp"
#include "circuit/fp16_ref.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"
#include "hwsim/schedule.hpp"

namespace {

using namespace maxel;
using Clock = std::chrono::steady_clock;

struct MacRun {
  double rounds_per_sec = 0.0;
  bool verified = false;
};

// Full per-round protocol path minus the socket: fresh labels each
// round, evaluator decodes through the published color map, decoded
// accumulator compared against the reference chain every round.
MacRun run_fp16_mac(const circuit::Circuit& c, std::size_t rounds) {
  crypto::SystemRandom rng(crypto::Block{0xF9, 0x16AC});
  gc::CircuitGarbler garbler(c, gc::Scheme::kHalfGates, rng);
  gc::StreamingEvaluator evaluator(c, gc::Scheme::kHalfGates);
  crypto::Prg prg(crypto::Block{0xBE, 0x16});

  MacRun out;
  out.verified = true;
  std::uint16_t ref_acc = 0;  // +0, matching the DFF init
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    // Finite operands keep the accumulator out of the NaN/inf absorbing
    // states so every round exercises the full datapath.
    const auto finite = [&] {
      std::uint16_t v;
      do {
        v = static_cast<std::uint16_t>(prg.next_u64());
      } while ((v & 0x7C00u) == 0x7C00u);
      return v;
    };
    const std::uint16_t a = finite(), x = finite();

    const gc::RoundMaterial m = garbler.garble_round_material();
    if (garbler.rounds_garbled() == 1)
      evaluator.set_initial_state_labels(garbler.initial_state_labels());
    std::vector<gc::Block> ga(16), ex(16);
    for (std::size_t i = 0; i < 16; ++i) {
      ga[i] = garbler.garbler_input_label(i, ((a >> i) & 1u) != 0);
      ex[i] = ((x >> i) & 1u) != 0 ? m.evaluator_pairs[i].second
                                   : m.evaluator_pairs[i].first;
    }
    const auto active = evaluator.eval_round(m.tables, ga, ex, m.fixed_labels);
    const auto dec = static_cast<std::uint16_t>(
        circuit::from_bits(gc::decode_with_map(active, m.output_map)));
    ref_acc = circuit::fp16_mac_reference(ref_acc, a, x);
    out.verified = out.verified && dec == ref_acc;
  }
  const double sec =
      std::chrono::duration<double>(Clock::now() - t0).count();
  out.rounds_per_sec = static_cast<double>(rounds) / sec;
  return out;
}

}  // namespace

int main() {
  using namespace maxel::bench;

  const circuit::Circuit add_c = circuit::make_fp16_add_circuit();
  const circuit::Circuit mul_c = circuit::make_fp16_mul_circuit();
  const circuit::Circuit mac_c = circuit::make_fp16_mac_circuit();
  const circuit::MacOptions int_opt{16, 16, true,
                                    circuit::Builder::MulStructure::kTree};
  const circuit::Circuit int_c = circuit::make_mac_circuit(int_opt);

  header("FP16 workload family: netlists, garbled throughput, hwsim cycles");
  JsonReporter rep("fp16_mac");

  const struct {
    const char* point;
    const circuit::Circuit* c;
  } kCircuits[] = {{"fp16_add", &add_c},
                   {"fp16_mul", &mul_c},
                   {"fp16_mac", &mac_c},
                   {"int16_mac", &int_c}};

  std::printf("%-10s %8s %8s %12s\n", "netlist", "ANDs", "XORs",
              "bytes/round");
  rule(44);
  for (const auto& e : kCircuits) {
    const std::size_t bytes =
        e.c->and_count() * gc::bytes_per_and(gc::Scheme::kHalfGates);
    std::printf("%-10s %8zu %8zu %12zu\n", e.point, e.c->and_count(),
                e.c->xor_count(), bytes);
    rep.row()
        .str("point", e.point)
        .str("kind", "gates")
        .num("ands", static_cast<std::uint64_t>(e.c->and_count()))
        .num("xors", static_cast<std::uint64_t>(e.c->xor_count()))
        .num("table_bytes_per_round", static_cast<std::uint64_t>(bytes));
  }

  // Measured garble+evaluate+decode throughput on the sequential MAC,
  // verified against the softfloat reference chain every round.
  const std::size_t kRounds = 400;
  const MacRun mac = run_fp16_mac(mac_c, kRounds);
  std::printf("\ngarbled fp16 MAC: %.0f rounds/s over %zu rounds, %s\n",
              mac.rounds_per_sec, kRounds,
              mac.verified ? "bit-identical to softfloat chain"
                           : "MISMATCH vs softfloat chain");
  rep.row()
      .str("point", "fp16_mac_garbled")
      .str("kind", "throughput")
      .num("rounds", static_cast<std::uint64_t>(kRounds))
      .num("rounds_per_sec", mac.rounds_per_sec)
      .boolean("verified", mac.verified);

  // hwsim: one MAC round as an in-order gate program on the paper's
  // design points (cores(b) garbling cores, 3-cycle AND latency; the
  // integer engine hits 24/48/96 cycles/MAC at b=8/16/32).
  std::printf("\n%-10s %8s %8s %10s %10s %12s\n", "netlist", "b-point",
              "cores", "cycles", "stalls", "peak live");
  rule(64);
  for (const std::size_t bw : {std::size_t{8}, std::size_t{16},
                               std::size_t{32}}) {
    const hwsim::CoreConfig cfg = hwsim::CoreConfig::for_mac_width(bw);
    for (const auto& e : {std::make_pair("fp16_mac", &mac_c),
                          std::make_pair("int16_mac", &int_c)}) {
      const hwsim::GateProgramStats st =
          hwsim::schedule_gate_program(*e.second, cfg);
      std::printf("%-10s %8zu %8zu %10llu %10llu %12zu\n", e.first, bw,
                  st.cores, static_cast<unsigned long long>(st.cycles),
                  static_cast<unsigned long long>(st.stall_cycles),
                  st.peak_live_wires);
      rep.row()
          .str("point", std::string(e.first) + "-hw" + std::to_string(bw))
          .str("kind", "hwsim")
          .num("design_width", static_cast<std::uint64_t>(bw))
          .num("cores", static_cast<std::uint64_t>(st.cores))
          .num("cycles", st.cycles)
          .num("stall_cycles", st.stall_cycles)
          .num("peak_live_wires",
               static_cast<std::uint64_t>(st.peak_live_wires));
    }
  }

  std::printf("\nthe FP16 datapath pays for the alignment/normalization "
              "barrel shifters the integer MAC\ndoes not have — see "
              "docs/ACCELERATION.md for the gate-count comparison.\n");
  std::printf("wrote %s\n", rep.write().c_str());
  return mac.verified ? 0 : 1;
}
