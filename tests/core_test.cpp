// MAXelerator core tests: the hardware netlist's gate inventory and
// semantics, the FSM schedule's structural claims (core counts, per-stage
// occupancy, <=2 idle slots, pipeline latency), cycle-accurate throughput
// (3b cycles per MAC), table-level equivalence with the reference
// half-gates garbler, and full transparency to the standard software
// evaluator (the paper's end-to-end correctness claim).
#include <gtest/gtest.h>

#include "circuit/circuits.hpp"
#include "core/hw_netlist.hpp"
#include "core/maxelerator.hpp"
#include "core/schedule.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"
#include "hwsim/pcie.hpp"

namespace maxel::core {
namespace {

using circuit::MacOptions;
using circuit::RoundInputs;
using circuit::to_bits;
using crypto::Block;
using crypto::Prg;
using crypto::SystemRandom;

class HwNetlistWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HwNetlistWidth, InventoryMatchesPaperFormulas) {
  const std::size_t b = GetParam();
  const HwMacNetlist hw = build_hw_mac_netlist(b);

  EXPECT_EQ(hw.ands_per_stage(), 2 * b + 8);
  EXPECT_EQ(hw.circuit.and_count(), (2 * b + 8) * b);
  EXPECT_EQ(hw.seg1_cores(), b / 2);
  EXPECT_EQ(hw.seg2_cores(), (b / 2 + 8 + 2) / 3);
  EXPECT_EQ(hw.circuit.dffs.size(), b);

  // Latency: b + log2(b) + 2 stages (Sec. 4.3).
  std::size_t log2b = 0;
  while ((1u << (log2b + 1)) <= b) ++log2b;
  EXPECT_EQ(hw.pipeline_latency_stages(), b + log2b + 2);
}

TEST_P(HwNetlistWidth, PlaintextSemanticsMatchMacReference) {
  const std::size_t b = GetParam();
  const HwMacNetlist hw = build_hw_mac_netlist(b);
  const MacOptions opt{b, b, true, circuit::Builder::MulStructure::kTree};

  Prg prg(Block{b, 1000});
  const std::uint64_t mask = b >= 64 ? ~0ull : ((1ull << b) - 1);
  std::vector<RoundInputs> rounds(8);
  std::uint64_t expect = 0;
  for (auto& r : rounds) {
    const std::uint64_t a = prg.next_u64() & mask;
    const std::uint64_t x = prg.next_u64() & mask;
    r.garbler_bits = to_bits(a, b);
    r.evaluator_bits = to_bits(x, b);
    expect = circuit::mac_reference(expect, a, x, opt);
  }
  EXPECT_EQ(circuit::from_bits(eval_sequential_plain(hw.circuit, rounds)),
            expect);
}

INSTANTIATE_TEST_SUITE_P(Widths, HwNetlistWidth,
                         ::testing::Values(4, 8, 16, 32));

TEST(HwNetlist, PaperCoreCounts) {
  // Table 2's "No of cores" row: 8 / 14 / 24 for b = 8 / 16 / 32.
  EXPECT_EQ(build_hw_mac_netlist(8).cores(), 8u);
  EXPECT_EQ(build_hw_mac_netlist(16).cores(), 14u);
  EXPECT_EQ(build_hw_mac_netlist(32).cores(), 24u);
}

TEST(HwNetlist, RejectsBadWidths) {
  EXPECT_THROW((void)build_hw_mac_netlist(3), std::invalid_argument);
  EXPECT_THROW((void)build_hw_mac_netlist(12), std::invalid_argument);  // b/2 not 2^k
  EXPECT_THROW((void)build_hw_mac_netlist(128), std::invalid_argument);
}

class ScheduleWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScheduleWidth, NoSlotCollisionsAndFullSteadyOccupancy) {
  const std::size_t b = GetParam();
  const HwMacNetlist hw = build_hw_mac_netlist(b);
  const std::uint64_t rounds = 6;
  const FsmSchedule sched(hw, rounds);

  std::vector<std::array<std::optional<ScheduledOp>, 3>> ops;
  std::size_t max_ops = 0;
  std::uint64_t total_ops = 0;
  for (std::uint64_t t = 0; t < sched.total_stages(); ++t) {
    ASSERT_NO_THROW(sched.ops_at_stage(t, ops));  // throws on collision
    std::size_t count = 0;
    for (const auto& core : ops)
      for (const auto& cell : core) count += cell.has_value() ? 1 : 0;
    EXPECT_EQ(count, sched.ops_in_stage(t));
    max_ops = std::max(max_ops, count);
    total_ops += count;
  }
  // Full steady-state occupancy: 2b+8 ANDs per stage...
  EXPECT_EQ(max_ops, 2 * b + 8);
  // ...and every gate of every round scheduled exactly once.
  EXPECT_EQ(total_ops, hw.ands_per_round() * rounds);
  // Paper's claim: at most two idle garbling slots per steady stage.
  EXPECT_LE(sched.steady_idle_slots_per_stage(), 2u);
}

TEST_P(ScheduleWidth, SteadyStateThroughputIsThreeBCyclesPerMac) {
  const std::size_t b = GetParam();
  const HwMacNetlist hw = build_hw_mac_netlist(b);
  const FsmSchedule s4(hw, 4);
  const FsmSchedule s12(hw, 12);
  EXPECT_EQ(s12.total_cycles() - s4.total_cycles(), 3 * b * 8);
}

INSTANTIATE_TEST_SUITE_P(Widths, ScheduleWidth,
                         ::testing::Values(4, 8, 16, 32));

TEST(Schedule, PaperCyclesPerMac) {
  // Table 2: 24 / 48 / 96 cycles per MAC at b = 8 / 16 / 32.
  for (const std::size_t b : {8u, 16u, 32u}) {
    const HwMacNetlist hw = build_hw_mac_netlist(b);
    const FsmSchedule s1(hw, 100);
    const FsmSchedule s2(hw, 101);
    EXPECT_EQ(s2.total_cycles() - s1.total_cycles(), 3 * b);
  }
}

// --- Cycle-accurate simulator --------------------------------------------

struct SimRun {
  std::vector<RoundOutput> outputs;
  MaxeleratorStats stats;
  Block delta;
};

SimRun run_sim(std::size_t b, std::uint64_t rounds, bool capture = false) {
  MaxeleratorConfig cfg;
  cfg.bit_width = b;
  cfg.capture_wire_labels = capture;
  SystemRandom rng(Block{b, rounds});
  MaxeleratorSim sim(cfg, rng);
  SimRun out;
  sim.run(rounds, [&](RoundOutput&& r) { out.outputs.push_back(std::move(r)); });
  out.stats = sim.stats();
  out.delta = sim.delta();
  return out;
}

class SimWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimWidth, EndToEndTransparentToSoftwareEvaluator) {
  const std::size_t b = GetParam();
  const std::uint64_t rounds = 10;
  const HwMacNetlist hw = build_hw_mac_netlist(b);
  const MacOptions opt{b, b, true, circuit::Builder::MulStructure::kTree};

  const SimRun run = run_sim(b, rounds);
  ASSERT_EQ(run.outputs.size(), rounds);

  gc::StreamingEvaluator evaluator(hw.circuit, gc::Scheme::kHalfGates);
  Prg prg(Block{b, 77});
  const std::uint64_t mask = b >= 64 ? ~0ull : ((1ull << b) - 1);
  std::uint64_t expect = 0;
  std::vector<Block> out_labels;
  std::vector<Block> final_output_labels0;

  for (std::uint64_t r = 0; r < rounds; ++r) {
    const auto& ro = run.outputs[r];
    EXPECT_EQ(ro.round, r);
    if (r == 0) evaluator.set_initial_state_labels(ro.initial_state_active);

    const std::uint64_t a = prg.next_u64() & mask;
    const std::uint64_t x = prg.next_u64() & mask;
    expect = circuit::mac_reference(expect, a, x, opt);

    std::vector<Block> g_labels(b), e_labels(b);
    for (std::size_t i = 0; i < b; ++i) {
      g_labels[i] = ((a >> i) & 1u) != 0 ? ro.garbler_labels0[i] ^ run.delta
                                         : ro.garbler_labels0[i];
      e_labels[i] = ((x >> i) & 1u) != 0 ? ro.evaluator_labels0[i] ^ run.delta
                                         : ro.evaluator_labels0[i];
    }
    const std::vector<Block> fixed = {ro.fixed_labels0[0],
                                      ro.fixed_labels0[1] ^ run.delta};
    out_labels = evaluator.eval_round(ro.tables, g_labels, e_labels, fixed);
    final_output_labels0 = ro.output_labels0;
  }

  // Decode with the point-and-permute map of the last round.
  std::vector<bool> map(final_output_labels0.size());
  for (std::size_t i = 0; i < map.size(); ++i)
    map[i] = final_output_labels0[i].lsb();
  EXPECT_EQ(circuit::from_bits(gc::decode_with_map(out_labels, map)), expect);
}

TEST_P(SimWidth, StatsMatchArchitecturalClaims) {
  const std::size_t b = GetParam();
  const std::uint64_t rounds = 8;
  const SimRun run = run_sim(b, rounds);
  const auto& st = run.stats;

  EXPECT_EQ(st.cores, b / 2 + (b / 2 + 8 + 2) / 3);
  EXPECT_EQ(st.tables, (2 * b + 8) * b * rounds);
  EXPECT_EQ(st.table_bytes, st.tables * 32);
  EXPECT_DOUBLE_EQ(st.cycles_per_mac, 3.0 * static_cast<double>(b));
  EXPECT_EQ(st.max_ops_per_stage, 2 * b + 8);
  EXPECT_LE(st.steady_idle_per_stage, 2u);
  EXPECT_GT(st.utilization(), 0.5);
  EXPECT_EQ(st.busy_slots, st.tables);
  // The k*(b/2) bits/cycle RNG bank (plus its buffer) must cover demand:
  // bursts may exceed per-cycle production, but never starve the engine.
  EXPECT_EQ(st.rng_underflows, 0u);
  EXPECT_GT(st.rng_gated_fraction, 0.0);  // power gating engaged
  EXPECT_EQ(st.pcie_bytes, st.table_bytes);
}

INSTANTIATE_TEST_SUITE_P(Widths, SimWidth, ::testing::Values(4, 8, 16, 32));

TEST(Sim, PaperThroughputNumbers) {
  // Table 2 MAXelerator rows: cycles/MAC and time/MAC at 200 MHz.
  const struct {
    std::size_t b;
    std::uint64_t cycles;
    double time_us;
    std::size_t cores;
  } expected[] = {{8, 24, 0.12, 8}, {16, 48, 0.24, 14}, {32, 96, 0.48, 24}};
  for (const auto& e : expected) {
    const SimRun run = run_sim(e.b, 4);
    EXPECT_DOUBLE_EQ(run.stats.cycles_per_mac, static_cast<double>(e.cycles));
    EXPECT_NEAR(run.stats.time_per_mac_us(), e.time_us, 1e-9);
    EXPECT_EQ(run.stats.cores, e.cores);
  }
}

TEST(Sim, TablesAreByteIdenticalToReferenceGarbler) {
  // Every table the simulator emits must equal the half-gates table the
  // reference GateGarbler produces from the same labels and tweak —
  // the hardware is a scheduling transformation, not a crypto change.
  const std::size_t b = 8;
  const std::uint64_t rounds = 3;
  const HwMacNetlist hw = build_hw_mac_netlist(b);
  const SimRun run = run_sim(b, rounds, /*capture=*/true);

  const gc::GateGarbler reference(gc::Scheme::kHalfGates, run.delta);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const auto& ro = run.outputs[r];
    ASSERT_EQ(ro.all_labels0.size(), hw.circuit.num_wires);
    for (std::size_t gi = 0; gi < hw.circuit.gates.size(); ++gi) {
      const auto& g = hw.circuit.gates[gi];
      if (circuit::is_free(g.type)) continue;
      gc::GarbledTable expect;
      const Block out0 = reference.garble(
          circuit::and_form(g.type), ro.all_labels0[g.a], ro.all_labels0[g.b],
          gc::gate_tweak(static_cast<std::uint32_t>(gi), r), expect);
      const auto& got = ro.tables.tables[hw.table_position[gi]];
      ASSERT_EQ(got, expect) << "round " << r << " gate " << gi;
      ASSERT_EQ(ro.all_labels0[g.out], out0);
    }
  }
}



TEST(Sim, UndersizedTableMemoryReportsBackPressure) {
  // With one-table blocks the shared drain port (1 table/cycle) cannot
  // keep up with up to `cores` writes per cycle; the model reports the
  // back-pressure. (The memory model is observational: tables still
  // reach the host in RoundOutput, so correctness is unaffected --
  // a real device would stall the engine instead.)
  MaxeleratorConfig cfg;
  cfg.bit_width = 8;
  cfg.memory_tables_per_block = 1;
  SystemRandom rng(Block{0x3E3, 1});
  MaxeleratorSim sim(cfg, rng);
  sim.run(4);
  EXPECT_GT(sim.stats().memory_overflow_stalls, 0u);

  MaxeleratorConfig roomy;
  roomy.bit_width = 8;
  roomy.memory_tables_per_block = 512;
  SystemRandom rng2(Block{0x3E3, 2});
  MaxeleratorSim sim2(roomy, rng2);
  sim2.run(4);
  EXPECT_EQ(sim2.stats().memory_overflow_stalls, 0u);
}

TEST(Sim, RunsOnRingOscillatorEntropy) {
  // The simulator draws labels from any RandomSource; with the paper's
  // RO-based TRNG model it must still produce evaluable tables.
  MaxeleratorConfig cfg;
  cfg.bit_width = 4;
  crypto::RingOscillatorRng rng;
  MaxeleratorSim sim(cfg, rng);
  std::vector<RoundOutput> outs;
  sim.run(2, [&](RoundOutput&& ro) { outs.push_back(std::move(ro)); });
  ASSERT_EQ(outs.size(), 2u);
  // Labels must be distinct (the RO model is not stuck).
  EXPECT_NE(outs[0].garbler_labels0[0], outs[0].garbler_labels0[1]);
  EXPECT_NE(outs[0].garbler_labels0[0], outs[1].garbler_labels0[0]);
}

TEST(Sim, RunIsSingleShot) {
  MaxeleratorConfig cfg;
  cfg.bit_width = 8;
  SystemRandom rng(Block{1, 1});
  MaxeleratorSim sim(cfg, rng);
  sim.run(2);
  EXPECT_THROW(sim.run(2), std::logic_error);
}

TEST(Sim, FreshLabelsEveryRound) {
  // Security requirement from Sec. 3: "even if the model does not change,
  // new labels are required for every garbling operation".
  const SimRun run = run_sim(8, 4);
  for (std::size_t i = 1; i < run.outputs.size(); ++i) {
    EXPECT_NE(run.outputs[i].garbler_labels0[0],
              run.outputs[i - 1].garbler_labels0[0]);
    EXPECT_NE(run.outputs[i].evaluator_labels0[0],
              run.outputs[i - 1].evaluator_labels0[0]);
    EXPECT_NE(run.outputs[i].tables.tables.front(),
              run.outputs[i - 1].tables.tables.front());
  }
}

TEST(Sim, PcieIsTheSustainedStreamingBottleneck) {
  const SimRun run = run_sim(16, 6);
  EXPECT_EQ(run.stats.pcie_bytes, run.stats.table_bytes);
  EXPECT_GT(run.stats.pcie_seconds, 0.0);
  // The engine emits one 32-byte table per core per cycle — far beyond
  // any PCIe link. Sustained *streaming* throughput is link-bound, which
  // is exactly the paper's closing caveat ("after certain threshold,
  // communication capability of the server may become the bottleneck");
  // Table 2 reports garbling throughput, which is the un-throttled rate.
  EXPECT_LT(run.stats.effective_mac_per_sec(), run.stats.mac_per_sec());
  const double link_tables_per_sec =
      hwsim::PcieLink().max_tables_per_sec(32);
  const double link_macs_per_sec =
      link_tables_per_sec / static_cast<double>((2 * 16 + 8) * 16);
  EXPECT_NEAR(run.stats.effective_mac_per_sec(), link_macs_per_sec,
              0.25 * link_macs_per_sec);
}

}  // namespace
}  // namespace maxel::core
