// Bit-width sweep of the full accelerator (extension of Table 2 beyond
// the paper's three columns): every architectural quantity and the
// simulated throughput for b in {4, 8, 16, 32, 64}, each verified
// end-to-end against the software evaluator before being reported.
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/circuits.hpp"
#include "core/maxelerator.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"
#include "hwsim/power.hpp"
#include "hwsim/resource_model.hpp"

namespace {

using namespace maxel;

struct SweepPoint {
  core::MaxeleratorStats stats;
  bool verified = false;
};

SweepPoint run_point(std::size_t b, std::uint64_t rounds) {
  core::MaxeleratorConfig cfg;
  cfg.bit_width = b;
  crypto::SystemRandom rng(crypto::Block{b, 99});
  core::MaxeleratorSim sim(cfg, rng);
  gc::StreamingEvaluator evaluator(sim.netlist(), gc::Scheme::kHalfGates);

  crypto::Prg data(crypto::Block{b, 123});
  const circuit::MacOptions ref{b, b, true};
  const std::uint64_t mask = b >= 64 ? ~0ull : ((1ull << b) - 1);
  std::uint64_t expect = 0;
  std::vector<crypto::Block> out_labels;
  std::vector<bool> out_map;

  sim.run(rounds, [&](core::RoundOutput&& ro) {
    if (ro.round == 0)
      evaluator.set_initial_state_labels(ro.initial_state_active);
    const std::uint64_t av = data.next_u64() & mask;
    const std::uint64_t xv = data.next_u64() & mask;
    expect = circuit::mac_reference(expect, av, xv, ref);
    std::vector<crypto::Block> g(b), e(b);
    for (std::size_t i = 0; i < b; ++i) {
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

  SweepPoint p;
  p.stats = sim.stats();
  p.verified = circuit::from_bits(gc::decode_with_map(out_labels, out_map)) ==
               expect;
  return p;
}

}  // namespace

int main() {
  using namespace maxel::bench;

  header("Bit-width sweep of the accelerator (all points sim-verified)");
  std::printf("%-5s %6s %10s %12s %14s %8s %9s %10s %12s %8s\n", "b", "cores",
              "cyc/MAC", "us/MAC", "MAC/s/core", "idle", "latency", "util%",
              "tables/MAC", "ok");
  rule(102);
  const hwsim::PowerModel pm;
  for (const std::size_t b : {4u, 8u, 16u, 32u, 64u}) {
    const std::uint64_t rounds = b >= 32 ? 6 : 12;
    const SweepPoint p = run_point(b, rounds);
    const auto& st = p.stats;
    std::printf("%-5zu %6zu %10.0f %12.2f %14s %8zu %9zu %9.1f%% %12llu %8s\n",
                b, st.cores, st.cycles_per_mac, st.time_per_mac_us(),
                sci(st.mac_per_sec_per_core()).c_str(),
                st.steady_idle_per_stage, st.pipeline_latency_stages,
                100.0 * st.utilization(),
                static_cast<unsigned long long>(st.tables / st.rounds),
                p.verified ? "YES" : "NO");
    if (!p.verified) return 1;
  }

  header("Energy model at each width (per 1e6 MACs)");
  std::printf("%-5s %14s %14s %14s %16s\n", "b", "GC dynamic (J)",
              "RNG dynamic(J)", "static (J)", "gating saved (J)");
  rule(68);
  for (const std::size_t b : {8u, 16u, 32u}) {
    const SweepPoint p = run_point(b, 4);
    const auto& st = p.stats;
    const double scale = 1e6 / static_cast<double>(st.rounds);
    const auto e = pm.estimate(b, st.tables, st.rng_bits,
                               st.rng_gated_fraction, st.total_cycles, 200.0);
    std::printf("%-5zu %14.3f %14.4f %14.4f %16.4f\n", b,
                scale * e.dynamic_gc_j, scale * e.dynamic_rng_j,
                scale * e.static_j, scale * e.rng_gated_saving_j);
  }
  std::printf("\nThe FSM's RNG gating (Sec. 5.2) avoids several times the RNG energy "
              "actually spent, growing with bit width.\n");
  return 0;
}
