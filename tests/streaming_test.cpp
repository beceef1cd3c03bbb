// Streaming (memory-bounded) evaluator: plan validity, agreement with
// the plaintext reference on combinational and sequential circuits,
// working-set compression on MAC netlists, and interplay with the
// simulator's table stream (the memory-constrained client of Sec. 3).
#include <gtest/gtest.h>

#include "circuit/arith_ext.hpp"
#include "circuit/circuits.hpp"
#include "circuit/optimize.hpp"
#include "core/maxelerator.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"

namespace maxel::gc {
namespace {

using circuit::Circuit;
using circuit::MacOptions;
using crypto::Block;
using crypto::Prg;
using crypto::SystemRandom;

TEST(EvaluationPlan, SlotsCoverEveryWireWithoutConflicts) {
  const Circuit c = circuit::make_multiplier_circuit(MacOptions{16, 16, true});
  const circuit::SlotPlan plan = circuit::plan_label_slots(c);
  ASSERT_EQ(plan.slot_of_wire.size(), c.num_wires);
  for (const auto s : plan.slot_of_wire) EXPECT_LT(s, plan.num_slots);
  EXPECT_LT(plan.num_slots, c.num_wires);  // reuse must happen

  // No two simultaneously-live wires share a slot: replay the schedule
  // tracking liveness explicitly.
  std::vector<std::int64_t> last_use(c.num_wires, -1);
  for (std::size_t i = 0; i < c.gates.size(); ++i) {
    last_use[c.gates[i].a] = static_cast<std::int64_t>(i);
    last_use[c.gates[i].b] = static_cast<std::int64_t>(i);
  }
  for (const auto w : c.outputs) last_use[w] = static_cast<std::int64_t>(c.gates.size());
  std::vector<std::int64_t> slot_owner_until(plan.num_slots, -2);
  const auto claim = [&](circuit::Wire w, std::int64_t t) {
    const auto slot = plan.slot_of_wire[w];
    ASSERT_LE(slot_owner_until[slot], t) << "slot conflict at wire " << w;
    slot_owner_until[slot] = last_use[w];
  };
  std::int64_t t = -1;
  claim(circuit::kConstZero, t);
  claim(circuit::kConstOne, t);
  for (const auto w : c.garbler_inputs) claim(w, t);
  for (const auto w : c.evaluator_inputs) claim(w, t);
  for (std::size_t i = 0; i < c.gates.size(); ++i)
    claim(c.gates[i].out, static_cast<std::int64_t>(i));
}

TEST(StreamingEvaluator, MatchesPlaintextOnCombinational) {
  const Circuit c = circuit::make_divider_circuit(8);
  Prg prg(Block{0x517, 2});
  for (int trial = 0; trial < 8; ++trial) {
    SystemRandom rng(Block{0x517, 1 + static_cast<std::uint64_t>(trial)});
    CircuitGarbler garbler(c, Scheme::kHalfGates, rng);
    const RoundTables tables = garbler.garble_round();

    const std::vector<bool> g_bits = prg.bits(c.garbler_inputs.size());
    const std::vector<bool> e_bits = prg.bits(c.evaluator_inputs.size());
    std::vector<Block> g_labels, e_labels;
    for (std::size_t i = 0; i < g_bits.size(); ++i)
      g_labels.push_back(garbler.garbler_input_label(i, g_bits[i]));
    for (std::size_t i = 0; i < e_bits.size(); ++i) {
      const auto [l0, l1] = garbler.evaluator_input_labels(i);
      e_labels.push_back(e_bits[i] ? l1 : l0);
    }
    StreamingEvaluator evaluator(c, Scheme::kHalfGates);
    const auto out = evaluator.eval_round(tables, g_labels, e_labels,
                                          garbler.fixed_wire_labels());
    EXPECT_EQ(decode_with_map(out, garbler.output_map()),
              circuit::eval_plain(c, g_bits, e_bits))
        << "trial " << trial;
  }
}

TEST(StreamingEvaluator, SequentialMacAcrossRounds) {
  const MacOptions opt{8, 8, true};
  const Circuit c = circuit::make_mac_circuit(opt);
  SystemRandom rng(Block{0x517, 3});
  CircuitGarbler garbler(c, Scheme::kHalfGates, rng);
  StreamingEvaluator evaluator(c, Scheme::kHalfGates);

  Prg prg(Block{0x517, 4});
  std::uint64_t expect = 0;
  std::vector<Block> out_labels;
  for (int round = 0; round < 10; ++round) {
    const std::uint64_t a = prg.next_u64() & 0xFF;
    const std::uint64_t x = prg.next_u64() & 0xFF;
    expect = circuit::mac_reference(expect, a, x, opt);
    const RoundTables tables = garbler.garble_round();
    if (round == 0)
      evaluator.set_initial_state_labels(garbler.initial_state_labels());
    std::vector<Block> g(8), e(8);
    for (std::size_t i = 0; i < 8; ++i) {
      g[i] = garbler.garbler_input_label(i, ((a >> i) & 1) != 0);
      const auto [l0, l1] = garbler.evaluator_input_labels(i);
      e[i] = ((x >> i) & 1) != 0 ? l1 : l0;
    }
    out_labels =
        evaluator.eval_round(tables, g, e, garbler.fixed_wire_labels());
  }
  const auto decoded = decode_with_map(out_labels, garbler.output_map());
  EXPECT_EQ(circuit::from_bits(decoded), expect);
}

TEST(StreamingEvaluator, CompressesMacWorkingSet) {
  // The Sec. 3 point: a memory-constrained client should not need a
  // label per wire. For the 32-bit MAC, expect >= 4x compression.
  const Circuit c = circuit::make_mac_circuit(MacOptions{32, 32, true});
  const circuit::SlotPlan plan = circuit::plan_label_slots(c);
  EXPECT_GT(c.num_wires, 4 * plan.num_slots)
      << plan.num_slots << " slots for " << c.num_wires << " wires";
  StreamingEvaluator ev(c, Scheme::kHalfGates);
  EXPECT_EQ(ev.working_set_bytes(), plan.num_slots * 16);
  EXPECT_LT(ev.working_set_bytes(), c.num_wires * 16 / 4);
}

TEST(StreamingEvaluator, DecodesTheAcceleratorStream) {
  // Memory-constrained client against the hardware table stream.
  const std::size_t b = 8;
  core::MaxeleratorConfig cfg;
  cfg.bit_width = b;
  SystemRandom rng(Block{0x517, 5});
  core::MaxeleratorSim sim(cfg, rng);
  StreamingEvaluator evaluator(sim.netlist(), Scheme::kHalfGates);

  Prg prg(Block{0x517, 6});
  const circuit::MacOptions ref{b, b, true};
  std::uint64_t expect = 0;
  std::vector<Block> out_labels;
  std::vector<bool> out_map;
  sim.run(6, [&](core::RoundOutput&& ro) {
    if (ro.round == 0)
      evaluator.set_initial_state_labels(ro.initial_state_active);
    const std::uint64_t a = prg.next_u64() & 0xFF;
    const std::uint64_t x = prg.next_u64() & 0xFF;
    expect = circuit::mac_reference(expect, a, x, ref);
    std::vector<Block> g(b), e(b);
    for (std::size_t i = 0; i < b; ++i) {
      g[i] = ((a >> i) & 1) ? ro.garbler_labels0[i] ^ sim.delta()
                            : ro.garbler_labels0[i];
      e[i] = ((x >> i) & 1) ? ro.evaluator_labels0[i] ^ sim.delta()
                            : ro.evaluator_labels0[i];
    }
    out_labels = evaluator.eval_round(
        ro.tables, g, e,
        {ro.fixed_labels0[0], ro.fixed_labels0[1] ^ sim.delta()});
    out_map.resize(ro.output_labels0.size());
    for (std::size_t i = 0; i < out_map.size(); ++i)
      out_map[i] = ro.output_labels0[i].lsb();
  });
  EXPECT_EQ(circuit::from_bits(decode_with_map(out_labels, out_map)), expect);
}

TEST(StreamingEvaluator, TableUnderrunDetected) {
  const Circuit c = circuit::make_multiplier_circuit(MacOptions{8, 8, true});
  SystemRandom rng(Block{0x517, 7});
  CircuitGarbler garbler(c, Scheme::kHalfGates, rng);
  RoundTables tables = garbler.garble_round();
  tables.tables.pop_back();
  StreamingEvaluator ev(c, Scheme::kHalfGates);
  std::vector<Block> g, e;
  for (std::size_t i = 0; i < 8; ++i) {
    g.push_back(garbler.garbler_input_label(i, false));
    e.push_back(garbler.evaluator_input_labels(i).first);
  }
  EXPECT_THROW(
      (void)ev.eval_round(tables, g, e, garbler.fixed_wire_labels()),
      std::runtime_error);
}

}  // namespace
}  // namespace maxel::gc
