// Garbling-scheme and whole-circuit GC tests: every scheme is checked
// against plaintext semantics for every gate type, every builder circuit,
// and the sequential multi-round MAC; Free-XOR and point-and-permute
// invariants are asserted directly at the label level.
#include <gtest/gtest.h>

#include "circuit/arith_ext.hpp"
#include "circuit/builder.hpp"
#include "circuit/circuits.hpp"
#include "circuit/ml_blocks.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/scheme.hpp"
#include "gc/streaming_evaluator.hpp"
#include "sweep_env.hpp"

namespace maxel::gc {
namespace {

using circuit::Builder;
using circuit::Bus;
using circuit::Circuit;
using circuit::GateType;
using circuit::MacOptions;
using circuit::RoundInputs;
using circuit::to_bits;
using circuit::Wire;
using crypto::Block;
using crypto::SystemRandom;

const Scheme kAllSchemes[] = {Scheme::kClassic4, Scheme::kGrr3,
                              Scheme::kHalfGates};

TEST(SchemeBasics, RowCountsMatchPaper) {
  EXPECT_EQ(rows_per_and(Scheme::kClassic4), 4u);
  EXPECT_EQ(rows_per_and(Scheme::kGrr3), 3u);   // row reduction: -25%
  EXPECT_EQ(rows_per_and(Scheme::kHalfGates), 2u);  // half gates: -50%
  EXPECT_EQ(bytes_per_and(Scheme::kHalfGates), 32u);
}

class GateLevel : public ::testing::TestWithParam<Scheme> {};

TEST_P(GateLevel, EveryNonXorGateEveryInput) {
  SystemRandom rng(Block{123, 0});
  const Block delta = crypto::random_delta(rng);
  const GateGarbler garbler(GetParam(), delta);
  const GateGarbler evaluator(GetParam(), Block::zero());

  for (GateType t : {GateType::kAnd, GateType::kNand, GateType::kOr,
                     GateType::kNor}) {
    const Block a0 = rng.next_block();
    const Block b0 = rng.next_block();
    const Block tweak{2 * 7, 3};
    GarbledTable table;
    const Block c0 = garbler.garble(circuit::and_form(t), a0, b0, tweak, table);

    for (int va = 0; va < 2; ++va) {
      for (int vb = 0; vb < 2; ++vb) {
        const Block a = va != 0 ? a0 ^ delta : a0;
        const Block b = vb != 0 ? b0 ^ delta : b0;
        const Block c = evaluator.evaluate(a, b, table, tweak);
        const bool expect = circuit::eval_gate(t, va != 0, vb != 0);
        EXPECT_EQ(c, expect ? c0 ^ delta : c0)
            << scheme_name(GetParam()) << " gate " << static_cast<int>(t)
            << " inputs " << va << vb;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, GateLevel,
                         ::testing::ValuesIn(kAllSchemes),
                         [](const auto& info) {
                           return std::string(scheme_name(info.param));
                         });

TEST(GateLevel, DistinctTweaksGiveDistinctTables) {
  SystemRandom rng(Block{5, 5});
  const GateGarbler g(Scheme::kHalfGates, crypto::random_delta(rng));
  const Block a0 = rng.next_block();
  const Block b0 = rng.next_block();
  GarbledTable t1, t2;
  (void)g.garble(circuit::and_form(GateType::kAnd), a0, b0, Block{0, 0}, t1);
  (void)g.garble(circuit::and_form(GateType::kAnd), a0, b0, Block{2, 0}, t2);
  EXPECT_NE(t1, t2);
}

TEST(GateLevel, GarblingIsDeterministicGivenLabels) {
  SystemRandom rng(Block{6, 6});
  const Block delta = crypto::random_delta(rng);
  const Block a0 = rng.next_block();
  const Block b0 = rng.next_block();
  for (Scheme s : kAllSchemes) {
    const GateGarbler g(s, delta);
    GarbledTable t1, t2;
    const Block c1 =
        g.garble(circuit::and_form(GateType::kAnd), a0, b0, Block{4, 9}, t1);
    const Block c2 =
        g.garble(circuit::and_form(GateType::kAnd), a0, b0, Block{4, 9}, t2);
    EXPECT_EQ(c1, c2);
    EXPECT_EQ(t1, t2);
  }
}

// Whole-circuit garble -> evaluate -> decode == plaintext, for a set of
// representative circuits, under every scheme.
struct CircuitCase {
  const char* name;
  Circuit (*make)();
};

Circuit make_xor_chain() {
  Builder b;
  const Bus a = b.garbler_inputs(8);
  const Bus x = b.evaluator_inputs(8);
  b.set_outputs(b.xor_bus(a, x));
  return b.take();
}

Circuit make_adder8() {
  Builder b;
  const Bus a = b.garbler_inputs(8);
  const Bus x = b.evaluator_inputs(8);
  b.set_outputs(b.add(a, x));
  return b.take();
}

Circuit make_mult8() {
  return make_multiplier_circuit(MacOptions{8, 8, true});
}

Circuit make_millionaires8() { return circuit::make_millionaires_circuit(8); }

Circuit make_mixed_gates() {
  Builder b;
  const Bus a = b.garbler_inputs(4);
  const Bus x = b.evaluator_inputs(4);
  Bus out;
  out.push_back(b.gate(GateType::kNand, a[0], x[0]));
  out.push_back(b.gate(GateType::kNor, a[1], x[1]));
  out.push_back(b.gate(GateType::kOr, a[2], x[2]));
  out.push_back(b.gate(GateType::kXnor, a[3], x[3]));
  out.push_back(b.not_(a[0]));
  out.push_back(b.mux(a[1], x[2], x[3]));
  b.set_outputs(out);
  return b.take();
}


Circuit make_divider6() { return circuit::make_divider_circuit(6); }
Circuit make_sqrt10() { return circuit::make_sqrt_circuit(10); }
Circuit make_argmax4() { return circuit::make_argmax_circuit(4, 6); }
Circuit make_relu3() { return circuit::make_relu_layer_circuit(3, 6); }

class WholeCircuit
    : public ::testing::TestWithParam<std::tuple<Scheme, CircuitCase>> {};

TEST_P(WholeCircuit, GarbleEvaluateDecodeMatchesPlaintext) {
  const auto [scheme, cc] = GetParam();
  const Circuit c = cc.make();
  crypto::Prg prg(Block{99, static_cast<std::uint64_t>(scheme)});
  SystemRandom rng(Block{42, 17});

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> g_bits(c.garbler_inputs.size());
    std::vector<bool> e_bits(c.evaluator_inputs.size());
    for (auto&& bit : g_bits) bit = prg.next_bit();
    for (auto&& bit : e_bits) bit = prg.next_bit();

    const auto expect = circuit::eval_plain(c, g_bits, e_bits);
    const auto got = garble_and_evaluate(c, scheme, g_bits, e_bits, rng);
    ASSERT_EQ(got, expect) << cc.name << " under " << scheme_name(scheme);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesXCircuits, WholeCircuit,
    ::testing::Combine(
        ::testing::ValuesIn(kAllSchemes),
        ::testing::Values(CircuitCase{"xor_chain", make_xor_chain},
                          CircuitCase{"adder8", make_adder8},
                          CircuitCase{"mult8_signed", make_mult8},
                          CircuitCase{"millionaires8", make_millionaires8},
                          CircuitCase{"mixed_gates", make_mixed_gates},
                          CircuitCase{"divider6", make_divider6},
                          CircuitCase{"sqrt10", make_sqrt10},
                          CircuitCase{"argmax4", make_argmax4},
                          CircuitCase{"relu3", make_relu3})),
    [](const auto& info) {
      return std::string(scheme_name(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param).name;
    });

TEST(TableStream, CountAndSizeMatchAndCount) {
  const Circuit c = make_mult8();
  SystemRandom rng(Block{1, 2});
  for (Scheme s : kAllSchemes) {
    CircuitGarbler g(c, s, rng);
    const RoundTables t = g.garble_round();
    EXPECT_EQ(t.tables.size(), c.and_count());
    EXPECT_EQ(t.byte_size(s), c.and_count() * bytes_per_and(s));
  }
}

TEST(FreeXor, XorGatesProduceNoTables) {
  const Circuit c = make_xor_chain();
  EXPECT_EQ(c.and_count(), 0u);
  SystemRandom rng(Block{3, 4});
  CircuitGarbler g(c, Scheme::kHalfGates, rng);
  EXPECT_TRUE(g.garble_round().tables.empty());
}

TEST(FreeXor, LabelInvariantHolds) {
  // For every wire, label1 == label0 ^ delta; for XOR gate outputs,
  // label0 == a0 ^ b0.
  Builder b;
  const Wire p = b.garbler_input();
  const Wire q = b.evaluator_input();
  const Wire r = b.xor_(p, q);
  const Wire s = b.gate(GateType::kXnor, p, q);
  b.set_outputs({r, s});
  const Circuit c = b.take();

  SystemRandom rng(Block{8, 8});
  CircuitGarbler g(c, Scheme::kHalfGates, rng);
  (void)g.garble_round();
  EXPECT_EQ(g.label0(r), g.label0(p) ^ g.label0(q));
  EXPECT_EQ(g.label0(s), g.label0(p) ^ g.label0(q) ^ g.delta());
}

TEST(PointAndPermute, DeltaLsbIsOne) {
  SystemRandom rng(Block{13, 13});
  const Circuit c = make_adder8();
  CircuitGarbler g(c, Scheme::kHalfGates, rng);
  EXPECT_TRUE(g.delta().lsb());
}

TEST(OutputDecode, MapAndDirectDecodeAgree) {
  const Circuit c = make_adder8();
  SystemRandom rng(Block{21, 0});
  CircuitGarbler g(c, Scheme::kHalfGates, rng);
  const RoundTables tables = g.garble_round();

  StreamingEvaluator ev(c, Scheme::kHalfGates);
  std::vector<Block> g_labels, e_labels;
  for (std::size_t i = 0; i < 8; ++i) {
    g_labels.push_back(g.garbler_input_label(i, (i % 2) != 0));
    const auto [l0, l1] = g.evaluator_input_labels(i);
    e_labels.push_back((i % 3) == 0 ? l1 : l0);
  }
  ev.set_initial_state_labels({});
  const auto out = ev.eval_round(tables, g_labels, e_labels,
                                 g.fixed_wire_labels());
  const auto decoded = decode_with_map(out, g.output_map());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(g.decode_output(i, out[i]), decoded[i]);
}

TEST(OutputDecode, ForeignLabelThrows) {
  const Circuit c = make_adder8();
  SystemRandom rng(Block{22, 0});
  CircuitGarbler g(c, Scheme::kHalfGates, rng);
  (void)g.garble_round();
  EXPECT_THROW((void)g.decode_output(0, Block{1, 1}), std::runtime_error);
}

class SequentialGc : public ::testing::TestWithParam<Scheme> {};

TEST_P(SequentialGc, MultiRoundMacMatchesReference) {
  const Scheme scheme = GetParam();
  const MacOptions opt{8, 8, true, Builder::MulStructure::kTree};
  const Circuit c = circuit::make_mac_circuit(opt);

  SystemRandom rng(Block{31, static_cast<std::uint64_t>(scheme)});
  CircuitGarbler garbler(c, scheme, rng);
  StreamingEvaluator evaluator(c, scheme);

  crypto::Prg prg(Block{64, 64});
  std::uint64_t expect = 0;
  std::vector<Block> out_labels;
  const int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t a = prg.next_u64() & 0xFF;
    const std::uint64_t x = prg.next_u64() & 0xFF;
    expect = circuit::mac_reference(expect, a, x, opt);

    const RoundTables tables = garbler.garble_round();
    // Initial-state labels exist only once round 0 has been garbled.
    if (round == 0)
      evaluator.set_initial_state_labels(garbler.initial_state_labels());
    std::vector<Block> g_labels(8), e_labels(8);
    for (std::size_t i = 0; i < 8; ++i) {
      g_labels[i] = garbler.garbler_input_label(i, ((a >> i) & 1u) != 0);
      const auto [l0, l1] = garbler.evaluator_input_labels(i);
      e_labels[i] = ((x >> i) & 1u) != 0 ? l1 : l0;
    }
    out_labels = evaluator.eval_round(tables, g_labels, e_labels,
                                      garbler.fixed_wire_labels());
  }
  const auto decoded = decode_with_map(out_labels, garbler.output_map());
  EXPECT_EQ(circuit::from_bits(decoded), expect);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SequentialGc,
                         ::testing::ValuesIn(kAllSchemes),
                         [](const auto& info) {
                           return std::string(scheme_name(info.param));
                         });

TEST(SequentialGc, InitialStateLabelsEncodeInitValues) {
  Builder b;
  const Wire d0 = b.make_dff(false);
  const Wire d1 = b.make_dff(true);
  const Wire g_in = b.garbler_input();
  b.connect_dff(d0, b.xor_(d0, g_in));
  b.connect_dff(d1, b.xor_(d1, g_in));
  b.set_outputs({d0, d1});
  const Circuit c = b.take();

  SystemRandom rng(Block{71, 0});
  CircuitGarbler g(c, Scheme::kHalfGates, rng);
  (void)g.garble_round();
  const auto init = g.initial_state_labels();
  EXPECT_EQ(init[0], g.label0(c.dffs[0].q));              // init 0 -> 0-label
  EXPECT_EQ(init[1], g.label0(c.dffs[1].q) ^ g.delta());  // init 1 -> 1-label
}

TEST(SequentialGc, FreshInputLabelsEveryRound) {
  const MacOptions opt{4, 4, false};
  const Circuit c = circuit::make_mac_circuit(opt);
  SystemRandom rng(Block{81, 0});
  CircuitGarbler g(c, Scheme::kHalfGates, rng);
  (void)g.garble_round();
  const Block first = g.garbler_input_label(0, false);
  (void)g.garble_round();
  EXPECT_NE(g.garbler_input_label(0, false), first);
}

TEST(SequentialGc, TablesDifferAcrossRounds) {
  const MacOptions opt{4, 4, false};
  const Circuit c = circuit::make_mac_circuit(opt);
  SystemRandom rng(Block{82, 0});
  CircuitGarbler g(c, Scheme::kHalfGates, rng);
  const auto r0 = g.garble_round();
  const auto r1 = g.garble_round();
  ASSERT_EQ(r0.tables.size(), r1.tables.size());
  EXPECT_NE(r0.tables.front(), r1.tables.front());
}

// ---------------------------------------------------------------------------
// Property sweeps: randomized shapes against plaintext semantics. The
// shape stream is pinned (kSweepSeed) and every trial logs its derived
// parameters via SCOPED_TRACE, so a failure reproduces exactly.

TEST(SequentialGc, RandomizedMacShapesMatchReference) {
  const std::uint64_t kSweepSeed = test::sweep_seed(0xC0FFEE01);
  crypto::Prg shape(Block{kSweepSeed, 1});
  const int n_trials = test::sweep_trials(12);
  for (int trial = 0; trial < n_trials; ++trial) {
    const std::size_t bits = 2 + shape.next_u64() % 19;    // 2..20
    const std::size_t rounds = 1 + shape.next_u64() % 12;  // vector length
    const bool sign = shape.next_bit();
    const Scheme scheme =
        kAllSchemes[shape.next_u64() % std::size(kAllSchemes)];
    SCOPED_TRACE("sweep_seed=" + std::to_string(kSweepSeed) +
                 " trial=" + std::to_string(trial) +
                 " bits=" + std::to_string(bits) +
                 " rounds=" + std::to_string(rounds) +
                 " signed=" + std::to_string(sign) + " scheme=" +
                 scheme_name(scheme));

    const MacOptions opt{bits, bits, sign};
    const Circuit c = circuit::make_mac_circuit(opt);
    SystemRandom rng(Block{kSweepSeed, static_cast<std::uint64_t>(trial)});
    CircuitGarbler garbler(c, scheme, rng);
    StreamingEvaluator evaluator(c, scheme);

    const std::uint64_t mask = (1ull << bits) - 1;
    std::uint64_t expect = 0;
    std::vector<Block> out_labels;
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::uint64_t a = shape.next_u64() & mask;
      const std::uint64_t x = shape.next_u64() & mask;
      expect = circuit::mac_reference(expect, a, x, opt);

      const RoundTables tables = garbler.garble_round();
      if (round == 0)
        evaluator.set_initial_state_labels(garbler.initial_state_labels());
      std::vector<Block> g_labels(bits), e_labels(bits);
      for (std::size_t i = 0; i < bits; ++i) {
        g_labels[i] = garbler.garbler_input_label(i, ((a >> i) & 1u) != 0);
        const auto [l0, l1] = garbler.evaluator_input_labels(i);
        e_labels[i] = ((x >> i) & 1u) != 0 ? l1 : l0;
      }
      out_labels = evaluator.eval_round(tables, g_labels, e_labels,
                                        garbler.fixed_wire_labels());
    }
    const auto decoded = decode_with_map(out_labels, garbler.output_map());
    ASSERT_EQ(circuit::from_bits(decoded), expect);
  }
}

TEST(WholeCircuit, RandomizedMultiplierWidthsMatchPlaintext) {
  const std::uint64_t kSweepSeed = test::sweep_seed(0xC0FFEE02);
  crypto::Prg shape(Block{kSweepSeed, 2});
  SystemRandom rng(Block{kSweepSeed, 3});
  const int n_trials = test::sweep_trials(8);
  for (int trial = 0; trial < n_trials; ++trial) {
    const std::size_t bits = 2 + shape.next_u64() % 15;  // 2..16
    const bool sign = shape.next_bit();
    const Scheme scheme =
        kAllSchemes[shape.next_u64() % std::size(kAllSchemes)];
    SCOPED_TRACE("sweep_seed=" + std::to_string(kSweepSeed) +
                 " trial=" + std::to_string(trial) +
                 " bits=" + std::to_string(bits) +
                 " signed=" + std::to_string(sign) + " scheme=" +
                 scheme_name(scheme));

    const Circuit c = make_multiplier_circuit(MacOptions{bits, bits, sign});
    std::vector<bool> g_bits(c.garbler_inputs.size());
    std::vector<bool> e_bits(c.evaluator_inputs.size());
    for (auto&& bit : g_bits) bit = shape.next_bit();
    for (auto&& bit : e_bits) bit = shape.next_bit();
    ASSERT_EQ(garble_and_evaluate(c, scheme, g_bits, e_bits, rng),
              circuit::eval_plain(c, g_bits, e_bits));
  }
}

TEST(Evaluator, TableUnderrunDetected) {
  const Circuit c = make_mult8();
  SystemRandom rng(Block{91, 0});
  CircuitGarbler g(c, Scheme::kHalfGates, rng);
  RoundTables tables = g.garble_round();
  tables.tables.pop_back();

  StreamingEvaluator ev(c, Scheme::kHalfGates);
  std::vector<Block> g_labels, e_labels;
  for (std::size_t i = 0; i < 8; ++i) {
    g_labels.push_back(g.garbler_input_label(i, false));
    e_labels.push_back(g.evaluator_input_labels(i).first);
  }
  EXPECT_THROW((void)ev.eval_round(tables, g_labels, e_labels,
                                   g.fixed_wire_labels()),
               std::runtime_error);
}

}  // namespace
}  // namespace maxel::gc
