// Drives the cycle-accurate MAXelerator simulator end to end (Fig. 1):
// the accelerator garbles a batch of sequential MACs; the garbled tables
// and labels stream to the "host", and a standard software evaluator —
// playing the client — evaluates and decodes. The run prints the
// architectural statistics next to the paper's claims.
#include <cstdio>
#include <vector>

#include "circuit/circuits.hpp"
#include "core/maxelerator.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"

int main() {
  using namespace maxel;
  using crypto::Block;

  const std::size_t b = 32;
  const std::uint64_t rounds = 32;  // one length-32 private dot product

  core::MaxeleratorConfig cfg;
  cfg.bit_width = b;
  crypto::SystemRandom rng;
  core::MaxeleratorSim sim(cfg, rng);

  std::printf("MAXelerator simulator: b=%zu, %zu GC cores (%zu MUX_ADD + %zu "
              "TREE), 200 MHz\n",
              b, sim.hw().cores(), sim.hw().seg1_cores(),
              sim.hw().seg2_cores());

  // Client-side evaluator over the accelerator's table stream.
  gc::StreamingEvaluator evaluator(sim.netlist(), gc::Scheme::kHalfGates);
  crypto::Prg data(Block{99, 1});
  const circuit::MacOptions ref{b, b, true};
  std::uint64_t expect = 0;
  std::vector<Block> out_labels;
  std::vector<bool> out_map;
  const std::uint64_t mask = (1ull << b) - 1;

  sim.run(rounds, [&](core::RoundOutput&& ro) {
    if (ro.round == 0)
      evaluator.set_initial_state_labels(ro.initial_state_active);
    const std::uint64_t a = data.next_u64() & mask;   // server element
    const std::uint64_t x = data.next_u64() & mask;   // client element
    expect = circuit::mac_reference(expect, a, x, ref);

    std::vector<Block> g_labels(b), e_labels(b);
    for (std::size_t i = 0; i < b; ++i) {
      g_labels[i] = ((a >> i) & 1u) ? ro.garbler_labels0[i] ^ sim.delta()
                                    : ro.garbler_labels0[i];
      e_labels[i] = ((x >> i) & 1u) ? ro.evaluator_labels0[i] ^ sim.delta()
                                    : ro.evaluator_labels0[i];
    }
    out_labels = evaluator.eval_round(
        ro.tables, g_labels, e_labels,
        {ro.fixed_labels0[0], ro.fixed_labels0[1] ^ sim.delta()});
    out_map.resize(ro.output_labels0.size());
    for (std::size_t i = 0; i < out_map.size(); ++i)
      out_map[i] = ro.output_labels0[i].lsb();
  });

  const std::uint64_t decoded =
      circuit::from_bits(gc::decode_with_map(out_labels, out_map));
  std::printf("client decoded accumulator: 0x%08llx, reference 0x%08llx -> %s\n",
              static_cast<unsigned long long>(decoded),
              static_cast<unsigned long long>(expect),
              decoded == expect ? "MATCH" : "MISMATCH");

  const auto& st = sim.stats();
  std::printf("\narchitecture vs paper claims:\n");
  std::printf("  cycles/MAC          : %.0f   (paper: 96 for b=32)\n",
              st.cycles_per_mac);
  std::printf("  time/MAC            : %.2f us (paper: 0.48)\n",
              st.time_per_mac_us());
  std::printf("  throughput/core     : %.3g MAC/s (paper: 8.68E4)\n",
              st.mac_per_sec_per_core());
  std::printf("  idle slots/stage    : %zu   (paper: at most 2)\n",
              st.steady_idle_per_stage);
  std::printf("  pipeline latency    : %zu stages (paper: b+log2(b)+2 = 39)\n",
              st.pipeline_latency_stages);
  std::printf("  engine utilization  : %.1f%%\n", 100.0 * st.utilization());
  std::printf("  tables emitted      : %llu (%.2f MB over PCIe, %.2f ms)\n",
              static_cast<unsigned long long>(st.tables),
              static_cast<double>(st.pcie_bytes) / 1e6,
              st.pcie_seconds * 1e3);
  std::printf("  RNG bank            : %.1f%% power-gated, peak %llu "
              "bits/cycle, %llu underflows\n",
              100.0 * st.rng_gated_fraction,
              static_cast<unsigned long long>(st.rng_peak_bits_per_cycle),
              static_cast<unsigned long long>(st.rng_underflows));
  return decoded == expect ? 0 : 1;
}
