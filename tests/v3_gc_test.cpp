// Protocol-v3 garbling (gc/v3.hpp): known-operand gate classification,
// the 1-row generator/evaluator half gates, PRG-seeded active labels,
// and the late-bound-input correction path. Correctness is checked
// against the plaintext reference over many rounds and circuit shapes;
// the ciphertext rows get the same randomness battery as the v2 tables
// (a structured row is a leak, however few of them v3 ships).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/builder.hpp"
#include "circuit/circuits.hpp"
#include "crypto/gc_hash.hpp"
#include "crypto/prg.hpp"
#include "crypto/randomness_tests.hpp"
#include "crypto/rng.hpp"
#include "gc/v3.hpp"

namespace maxel::gc {
namespace {

using circuit::MacOptions;
using crypto::Block;
using crypto::SystemRandom;

Block make_delta(SystemRandom& rng) {
  Block d = rng.next_block();
  d.lo |= 1;
  return d;
}

// Runs `rounds` garble/eval rounds of a sequential circuit and checks
// the decoded outputs against eval_sequential_plain on the same inputs.
void check_circuit(const circuit::Circuit& c, std::size_t rounds,
                   std::uint64_t seed) {
  SystemRandom rng(Block{seed, 0x5133});
  const V3Analysis an = analyze_v3(c);
  const Block delta = make_delta(rng);
  const Block label_seed = rng.next_block();
  V3Garbler garbler(c, an, delta, label_seed, rng);
  V3Evaluator evaluator(c, an, label_seed);

  crypto::Prg data(Block{seed, 0xDA7A});
  std::vector<bool> state;
  for (const auto& d : c.dffs) state.push_back(d.init);
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<bool> g_bits, e_bits;
    for (std::size_t i = 0; i < c.garbler_inputs.size(); ++i)
      g_bits.push_back(data.next_bit());
    for (std::size_t i = 0; i < c.evaluator_inputs.size(); ++i)
      e_bits.push_back(data.next_bit());
    const auto expect = circuit::eval_plain(c, g_bits, e_bits, &state);

    const V3RoundMaterial m = garbler.garble_round(g_bits);
    EXPECT_EQ(m.rows.size(), an.rows_per_round);
    EXPECT_TRUE(m.late_labels0.empty());
    std::vector<Block> e_labels;
    for (std::size_t i = 0; i < c.evaluator_inputs.size(); ++i)
      e_labels.push_back(e_bits[i] ? m.evaluator_pairs[i].second
                                   : m.evaluator_pairs[i].first);
    const auto out = evaluator.eval_round(m.rows, e_bits, e_labels);
    const auto decoded = decode_with_map(out, m.output_map);
    ASSERT_EQ(decoded.size(), expect.size()) << "round " << r;
    for (std::size_t i = 0; i < decoded.size(); ++i)
      EXPECT_EQ(decoded[i], expect[i]) << "round " << r << " output " << i;
    // Garbler-side decode agrees.
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(garbler.decode_output(i, out[i]), expect[i]);
  }
}

TEST(V3Analysis, ClassCountsMatchTheMacCircuit) {
  // Locked-in classification of the b=8 signed MAC: these counts are
  // what the byte budget of docs/PROTOCOL.md is computed from.
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const V3Analysis an = analyze_v3(c);
  EXPECT_EQ(an.n_full + an.n_gen_half + an.n_eval_half + an.n_known_out,
            c.and_count());
  EXPECT_EQ(an.n_full, 35u);
  EXPECT_EQ(an.n_gen_half, 64u);
  EXPECT_EQ(an.n_eval_half, 7u);
  EXPECT_EQ(an.n_known_out, 7u);
  EXPECT_EQ(an.rows_per_round, 2 * 35u + 64u + 7u);
  // v3 ships well under 2/3 of the v2 table bytes on this circuit.
  EXPECT_LT(3 * an.rows_per_round, 2 * 2 * c.and_count());
}

TEST(V3Analysis, RowsShrinkAtEveryWidth) {
  for (const std::size_t bits : {std::size_t{8}, std::size_t{16},
                                 std::size_t{32}}) {
    const circuit::Circuit c =
        circuit::make_mac_circuit(MacOptions{bits, bits, true});
    const V3Analysis an = analyze_v3(c);
    EXPECT_LT(an.rows_per_round, 2 * c.and_count()) << "b=" << bits;
    EXPECT_GT(an.n_known_out, 0u) << "b=" << bits;
  }
}

TEST(V3RoundTrip, MacManyRounds) {
  check_circuit(circuit::make_mac_circuit(MacOptions{8, 8, true}), 50, 1);
  check_circuit(circuit::make_mac_circuit(MacOptions{16, 16, true}), 12, 2);
  check_circuit(circuit::make_mac_circuit(MacOptions{8, 8, false}), 20, 3);
}

TEST(V3RoundTrip, OtherCircuitShapes) {
  check_circuit(circuit::make_millionaires_circuit(8), 6, 4);
  check_circuit(circuit::make_multiplier_circuit(MacOptions{6, 6, true}), 6,
                5);
  check_circuit(
      circuit::make_dot_product_circuit(2, MacOptions{8, 8, true}), 10, 6);
}

TEST(V3RoundTrip, MacAccumulationMatchesReference) {
  const MacOptions opt{16, 16, true};
  const circuit::Circuit c = circuit::make_mac_circuit(opt);
  SystemRandom rng(Block{0x77, 0x88});
  const V3Analysis an = analyze_v3(c);
  const Block delta = make_delta(rng);
  const Block seed = rng.next_block();
  V3Garbler g(c, an, delta, seed, rng);
  V3Evaluator e(c, an, seed);

  crypto::Prg data(Block{0x99, 0xAA});
  std::uint64_t acc = 0;
  for (std::size_t r = 0; r < 32; ++r) {
    const std::uint64_t av = data.next_u64() & 0xFFFF;
    const std::uint64_t xv = data.next_u64() & 0xFFFF;
    acc = circuit::mac_reference(acc, av, xv, opt);
    const auto a_bits = circuit::to_bits(av, 16);
    const auto x_bits = circuit::to_bits(xv, 16);
    const V3RoundMaterial m = g.garble_round(a_bits);
    std::vector<Block> e_labels;
    for (std::size_t i = 0; i < 16; ++i)
      e_labels.push_back(x_bits[i] ? m.evaluator_pairs[i].second
                                   : m.evaluator_pairs[i].first);
    const auto out = e.eval_round(m.rows, x_bits, e_labels);
    EXPECT_EQ(circuit::from_bits(decode_with_map(out, m.output_map)), acc)
        << "round " << r;
  }
}

// One analysis serves any number of sessions at once: the programs it
// compiled hold no per-session state. Two garbler/evaluator pairs built
// from one analysis, run with their rounds interleaved, each decode
// their own MAC, and each ships rows bit-identical to a pair built from
// an analysis of its own with the same randomness.
TEST(V3RoundTrip, PairsSharingOneAnalysisMatchPrivatelyBuiltPairs) {
  const MacOptions opt{16, 16, true};
  const circuit::Circuit c = circuit::make_mac_circuit(opt);
  const V3Analysis shared = analyze_v3(c);
  struct Session {
    Session(const circuit::Circuit& c, const V3Analysis& an, std::uint64_t id)
        : rng(Block{id, 0x5E55}),
          delta(make_delta(rng)),
          seed(rng.next_block()),
          g(c, an, delta, seed, rng),
          e(c, an, seed),
          data(Block{id, 0xDA7A}) {}
    SystemRandom rng;
    Block delta, seed;
    V3Garbler g;
    V3Evaluator e;
    crypto::Prg data;
    std::uint64_t acc = 0;
  };
  std::vector<std::unique_ptr<Session>> on_shared, on_own;
  std::vector<V3Analysis> own;
  for (std::uint64_t id = 0; id < 2; ++id) own.push_back(analyze_v3(c));
  for (std::uint64_t id = 0; id < 2; ++id) {
    on_shared.push_back(std::make_unique<Session>(c, shared, id));
    on_own.push_back(std::make_unique<Session>(c, own[id], id));
  }
  // Garbles and evaluates one round of `s`; returns its rows.
  const auto step = [&](Session& s, std::size_t r) {
    const std::uint64_t av = s.data.next_u64() & 0xFFFF;
    const std::uint64_t xv = s.data.next_u64() & 0xFFFF;
    s.acc = circuit::mac_reference(s.acc, av, xv, opt);
    const auto x_bits = circuit::to_bits(xv, 16);
    const V3RoundMaterial m = s.g.garble_round(circuit::to_bits(av, 16));
    std::vector<Block> e_labels;
    for (std::size_t i = 0; i < 16; ++i)
      e_labels.push_back(x_bits[i] ? m.evaluator_pairs[i].second
                                   : m.evaluator_pairs[i].first);
    const auto out = s.e.eval_round(m.rows, x_bits, e_labels);
    EXPECT_EQ(circuit::from_bits(decode_with_map(out, m.output_map)), s.acc)
        << "round " << r;
    return m.rows;
  };
  for (std::size_t r = 0; r < 12; ++r)
    for (std::size_t id = 0; id < 2; ++id) {
      const std::vector<Block> rows = step(*on_shared[id], r);
      EXPECT_EQ(rows, step(*on_own[id], r)) << "pair " << id << " round " << r;
    }
  EXPECT_NE(on_shared[0]->acc, on_shared[1]->acc);
}

// An analysis that was never run carries no compiled programs: an engine
// built from it is a typed invalid_argument, never a v2-shaped stream.
// So is an analysis of another circuit.
TEST(V3Analysis, EnginesRejectAnAnalysisWithoutPrograms) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  SystemRandom rng(Block{0x0A, 0x0B});
  const Block delta = make_delta(rng);
  const Block seed = rng.next_block();
  const V3Analysis none;
  EXPECT_THROW(V3Garbler(c, none, delta, seed, rng), std::invalid_argument);
  EXPECT_THROW(V3Evaluator(c, none, seed), std::invalid_argument);
  const V3Analysis other =
      analyze_v3(circuit::make_mac_circuit(MacOptions{16, 16, true}));
  EXPECT_THROW(V3Garbler(c, other, delta, seed, rng), std::invalid_argument);
  EXPECT_THROW(V3Evaluator(c, other, seed), std::invalid_argument);
}

TEST(V3LateBinding, CorrectionsCarryLateInputs) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  SystemRandom rng(Block{0xBB, 0xCC});
  // Half the garbler inputs late-bound: their cones fall back to kFull /
  // kEvalHalf and their active labels travel as explicit corrections.
  std::vector<bool> late(c.garbler_inputs.size(), false);
  for (std::size_t i = 0; i < late.size(); i += 2) late[i] = true;
  const V3Analysis an = analyze_v3(c, late);
  const V3Analysis an_all = analyze_v3(c);
  EXPECT_GT(an.rows_per_round, an_all.rows_per_round);

  const Block delta = make_delta(rng);
  const Block seed = rng.next_block();
  V3Garbler g(c, an, delta, seed, rng);
  V3Evaluator e(c, an, seed);

  crypto::Prg data(Block{0xDD, 0xEE});
  std::uint64_t acc = 0;
  const MacOptions opt{8, 8, true};
  for (std::size_t r = 0; r < 10; ++r) {
    const std::uint64_t av = data.next_u64() & 0xFF;
    const std::uint64_t xv = data.next_u64() & 0xFF;
    acc = circuit::mac_reference(acc, av, xv, opt);
    const auto a_bits = circuit::to_bits(av, 8);
    const auto x_bits = circuit::to_bits(xv, 8);
    const V3RoundMaterial m = g.garble_round(a_bits);
    EXPECT_EQ(m.late_labels0.size(), (late.size() + 1) / 2);
    std::vector<std::pair<std::uint32_t, Block>> corrections;
    for (std::size_t i = 0; i < late.size(); ++i)
      if (late[i])
        corrections.emplace_back(c.garbler_inputs[i],
                                 g.late_input_label(i, a_bits[i]));
    std::vector<Block> e_labels;
    for (std::size_t i = 0; i < 8; ++i)
      e_labels.push_back(x_bits[i] ? m.evaluator_pairs[i].second
                                   : m.evaluator_pairs[i].first);
    const auto out = e.eval_round(m.rows, x_bits, e_labels, corrections);
    EXPECT_EQ(circuit::from_bits(decode_with_map(out, m.output_map)), acc)
        << "round " << r;
  }
}

TEST(V3LateBinding, MissingCorrectionIsTyped) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(4);
  SystemRandom rng(Block{0x11, 0x22});
  std::vector<bool> late(c.garbler_inputs.size(), true);
  const V3Analysis an = analyze_v3(c, late);
  V3Garbler g(c, an, make_delta(rng), rng.next_block(), rng);
  V3Evaluator e(c, an, g.label_seed());
  const V3RoundMaterial m = g.garble_round(std::vector<bool>(4, false));
  std::vector<Block> e_labels;
  for (const auto& [l0, l1] : m.evaluator_pairs) {
    (void)l1;
    e_labels.push_back(l0);
  }
  EXPECT_THROW(
      (void)e.eval_round(m.rows, std::vector<bool>(4, false), e_labels, {}),
      std::runtime_error);
}

TEST(V3LateBinding, CorrectionForANonLateWireIsTyped) {
  // Corrections come from the server's seed record. Each must name a
  // late-bound garbler input, and name it once: anything else would be
  // written into a slot another wire owns.
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  SystemRandom rng(Block{0x5A, 0x5B});
  std::vector<bool> late(c.garbler_inputs.size(), false);
  for (std::size_t i = 0; i < late.size(); i += 2) late[i] = true;
  const V3Analysis an = analyze_v3(c, late);
  V3Garbler g(c, an, make_delta(rng), rng.next_block(), rng);
  V3Evaluator e(c, an, g.label_seed());
  const std::vector<bool> a_bits(c.garbler_inputs.size(), true);
  const std::vector<bool> x_bits(c.evaluator_inputs.size(), false);
  const V3RoundMaterial m = g.garble_round(a_bits);
  std::vector<Block> e_labels;
  for (const auto& [l0, l1] : m.evaluator_pairs) {
    (void)l1;
    e_labels.push_back(l0);
  }
  std::vector<std::pair<std::uint32_t, Block>> good;
  for (std::size_t i = 0; i < late.size(); ++i)
    if (late[i])
      good.emplace_back(c.garbler_inputs[i], g.late_input_label(i, true));

  const auto with = [&](std::uint32_t wire) {
    auto bad = good;
    bad.emplace_back(wire, Block{7, 7});
    return bad;
  };
  const std::uint32_t stray[] = {
      c.garbler_inputs[1],           // a garbler input bound at garble time
      c.evaluator_inputs[0],         // an evaluator input
      c.gates.back().out,            // a gate output
      c.garbler_inputs[0],           // a late input named twice
      c.num_wires + 5,               // no wire at all
  };
  for (const std::uint32_t w : stray) {
    SCOPED_TRACE(testing::Message() << "wire " << w);
    EXPECT_THROW((void)e.eval_round(m.rows, x_bits, e_labels, with(w)),
                 std::runtime_error);
  }
  // The rejected rounds left the evaluator on round 0.
  const auto out = e.eval_round(m.rows, x_bits, e_labels, good);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(g.decode_output(i, out[i]),
              circuit::eval_plain(c, a_bits, x_bits)[i]);
}

TEST(V3Desync, TruncatedOrPaddedRowStreamIsTyped) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(8);
  SystemRandom rng(Block{0x33, 0x44});
  const V3Analysis an = analyze_v3(c);
  V3Garbler g(c, an, make_delta(rng), rng.next_block(), rng);
  V3Evaluator e(c, an, g.label_seed());
  V3RoundMaterial m = g.garble_round(std::vector<bool>(8, true));
  std::vector<Block> e_labels;
  for (const auto& [l0, l1] : m.evaluator_pairs) {
    (void)l1;
    e_labels.push_back(l0);
  }
  auto truncated = m.rows;
  truncated.pop_back();
  EXPECT_THROW((void)e.eval_round(truncated, std::vector<bool>(8, false),
                                  e_labels),
               std::runtime_error);
  auto padded = m.rows;
  padded.push_back(Block{1, 2});
  EXPECT_THROW(
      (void)e.eval_round(padded, std::vector<bool>(8, false), e_labels),
      std::runtime_error);
}

TEST(V3Security, RowsAndSeededLabelsLookUniform) {
  const circuit::Circuit c =
      circuit::make_mac_circuit(MacOptions{16, 16, true});
  SystemRandom rng(Block{0x55, 0x66});
  const V3Analysis an = analyze_v3(c);
  V3Garbler g(c, an, make_delta(rng), rng.next_block(), rng);
  crypto::Prg data(Block{0x77, 0x11});
  std::vector<bool> bits;
  std::set<std::string> seen;
  for (int r = 0; r < 12; ++r) {
    std::vector<bool> a_bits;
    for (int i = 0; i < 16; ++i) a_bits.push_back((data.next_u64() & 1) != 0);
    const V3RoundMaterial m = g.garble_round(a_bits);
    for (const Block& row : m.rows) {
      EXPECT_TRUE(seen.insert(row.hex()).second) << "repeated row";
      std::uint8_t raw[16];
      row.to_bytes(raw);
      for (int byte = 0; byte < 16; ++byte)
        for (int bit = 0; bit < 8; ++bit)
          bits.push_back(((raw[byte] >> bit) & 1) != 0);
    }
  }
  ASSERT_GT(bits.size(), 10000u);
  const auto report = crypto::run_battery(bits);
  EXPECT_TRUE(report.passes(0.001))
      << "monobit=" << report.monobit_p << " runs=" << report.runs_p
      << " poker=" << report.poker_p;
  EXPECT_GT(report.entropy_per_bit, 0.995);

  // Seed-derived active labels (what an eavesdropper sees instead of the
  // old label transfer) are H outputs: the battery must pass there too.
  std::vector<bool> label_bits;
  const crypto::GcHash h;
  const Block seed = g.label_seed();
  for (std::uint64_t r = 0; r < 40; ++r)
    for (circuit::Wire w = 0; w < 64; ++w) {
      std::uint8_t raw[16];
      h(seed, v3_label_tweak(w, r)).to_bytes(raw);
      for (int byte = 0; byte < 16; ++byte)
        for (int bit = 0; bit < 8; ++bit)
          label_bits.push_back(((raw[byte] >> bit) & 1) != 0);
    }
  EXPECT_TRUE(crypto::run_battery(label_bits).passes(0.001));
}

TEST(V3Garbler, RejectsEvenDelta) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(4);
  SystemRandom rng(Block{0x12, 0x34});
  const V3Analysis an = analyze_v3(c);
  EXPECT_THROW(V3Garbler(c, an, Block{2, 0}, Block{1, 1}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace maxel::gc
