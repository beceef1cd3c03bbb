// Security-property and failure-injection tests.
//
// Property tests: garbled tables and published color bits must be
// statistically indistinguishable from random (anything else is a leak);
// fresh labels every round; corrupted or misaligned material must be
// detectable, never silently accepted as the correct result.
#include <gtest/gtest.h>

#include "circuit/circuits.hpp"
#include "crypto/randomness_tests.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"

namespace maxel::gc {
namespace {

using circuit::MacOptions;
using crypto::Block;
using crypto::SystemRandom;

std::vector<bool> bits_of_tables(const std::vector<GarbledTable>& tables,
                                 Scheme scheme) {
  std::vector<bool> bits;
  bits.reserve(tables.size() * rows_per_and(scheme) * 128);
  for (const auto& t : tables) {
    for (std::size_t r = 0; r < rows_per_and(scheme); ++r) {
      std::uint8_t raw[16];
      t.ct[r].to_bytes(raw);
      for (int byte = 0; byte < 16; ++byte)
        for (int bit = 0; bit < 8; ++bit)
          bits.push_back(((raw[byte] >> bit) & 1) != 0);
    }
  }
  return bits;
}

class TableRandomness : public ::testing::TestWithParam<Scheme> {};

TEST_P(TableRandomness, GarbledTablesLookUniform) {
  // An evaluator (or eavesdropper) holding only the tables must see
  // pseudorandom bytes; structure in the ciphertexts is information
  // leakage. Run the NIST-style battery over a full MAC round's tables.
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{16, 16, true});
  SystemRandom rng(Block{0x5EC, static_cast<std::uint64_t>(GetParam())});
  CircuitGarbler garbler(c, GetParam(), rng);
  const RoundTables tables = garbler.garble_round();
  const auto bits = bits_of_tables(tables.tables, GetParam());
  ASSERT_GT(bits.size(), 10000u);
  const auto report = crypto::run_battery(bits);
  EXPECT_TRUE(report.passes(0.001))
      << scheme_name(GetParam()) << ": monobit=" << report.monobit_p
      << " runs=" << report.runs_p << " poker=" << report.poker_p;
  EXPECT_GT(report.entropy_per_bit, 0.995);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TableRandomness,
                         ::testing::Values(Scheme::kClassic4, Scheme::kGrr3,
                                           Scheme::kHalfGates),
                         [](const auto& info) {
                           return std::string(scheme_name(info.param));
                         });

TEST(ColorBits, OutputMapIsUnbiasedAcrossRounds) {
  // The published decode map is the lsb of the output 0-labels; bias
  // there would leak output values. Collect it over many fresh rounds.
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  SystemRandom rng(Block{0xC0108, 1});
  CircuitGarbler garbler(c, Scheme::kHalfGates, rng);
  std::vector<bool> bits;
  for (int round = 0; round < 200; ++round) {
    (void)garbler.garble_round();
    const auto map = garbler.output_map();
    bits.insert(bits.end(), map.begin(), map.end());
  }
  EXPECT_GT(crypto::monobit_test(bits), 0.001);
}

TEST(ActiveLabels, RevealNothingWithoutDelta) {
  // The two labels of any wire differ by the same secret delta; a single
  // active label is a uniform 128-bit value. Sanity: active labels
  // across wires/rounds pass the battery.
  const circuit::Circuit c =
      circuit::make_dot_product_circuit(2, MacOptions{8, 8, true});
  SystemRandom rng(Block{0xAB, 2});
  CircuitGarbler garbler(c, Scheme::kHalfGates, rng);
  std::vector<bool> bits;
  for (int round = 0; round < 40; ++round) {
    (void)garbler.garble_round();
    for (std::size_t i = 0; i < c.garbler_inputs.size(); ++i) {
      const Block l = garbler.garbler_input_label(i, (i + static_cast<std::size_t>(round)) % 2 != 0);
      std::uint8_t raw[16];
      l.to_bytes(raw);
      for (int byte = 0; byte < 16; ++byte)
        for (int bit = 0; bit < 8; ++bit)
          bits.push_back(((raw[byte] >> bit) & 1) != 0);
    }
  }
  EXPECT_TRUE(crypto::run_battery(bits).passes(0.001));
}

TEST(FailureInjection, CorruptedTableIsDetectedAtDecode) {
  const circuit::Circuit c = circuit::make_multiplier_circuit(MacOptions{8, 8, true});
  SystemRandom rng(Block{0xBAD, 3});
  CircuitGarbler garbler(c, Scheme::kHalfGates, rng);
  RoundTables tables = garbler.garble_round();
  // Corrupt both half-gate rows of the last several tables: a single row
  // is only consulted when the matching color bit is 1, so flipping
  // several guarantees at least one corrupted row is on the active path.
  ASSERT_GE(tables.tables.size(), 6u);
  for (std::size_t k = tables.tables.size() - 6; k < tables.tables.size();
       ++k) {
    tables.tables[k].ct[0].lo ^= 1ull << 17;
    tables.tables[k].ct[1].hi ^= 1ull << 41;
  }

  StreamingEvaluator evaluator(c, Scheme::kHalfGates);
  std::vector<Block> g_labels, e_labels;
  for (std::size_t i = 0; i < 8; ++i) {
    g_labels.push_back(garbler.garbler_input_label(i, i % 2 != 0));
    e_labels.push_back(garbler.evaluator_input_labels(i).first);
  }
  const auto out = evaluator.eval_round(tables, g_labels, e_labels,
                                        garbler.fixed_wire_labels());
  // Garbler-side authoritative decode must reject at least one output
  // label (it is neither the 0- nor the 1-label of that wire).
  bool rejected = false;
  for (std::size_t i = 0; i < out.size() && !rejected; ++i) {
    try {
      (void)garbler.decode_output(i, out[i]);
    } catch (const std::runtime_error&) {
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected);
}

TEST(FailureInjection, WrongRoundTablesDoNotDecode) {
  // Using round r's tables with round r+1's labels (a desync) must be
  // detected by the garbler-side decode.
  const circuit::Circuit c = circuit::make_multiplier_circuit(MacOptions{4, 4, false});
  SystemRandom rng(Block{0xDE5, 4});
  CircuitGarbler garbler(c, Scheme::kHalfGates, rng);
  const RoundTables stale = garbler.garble_round();
  (void)garbler.garble_round();  // advance: labels now belong to round 1

  StreamingEvaluator evaluator(c, Scheme::kHalfGates);
  std::vector<Block> g_labels, e_labels;
  for (std::size_t i = 0; i < 4; ++i) {
    g_labels.push_back(garbler.garbler_input_label(i, false));
    e_labels.push_back(garbler.evaluator_input_labels(i).first);
  }
  const auto out = evaluator.eval_round(stale, g_labels, e_labels,
                                        garbler.fixed_wire_labels());
  bool rejected = false;
  for (std::size_t i = 0; i < out.size() && !rejected; ++i) {
    try {
      (void)garbler.decode_output(i, out[i]);
    } catch (const std::runtime_error&) {
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected);
}

TEST(FailureInjection, SwappedEvaluatorLabelChangesResultConsistently) {
  // Feeding the 1-label instead of the 0-label is not an error — it is
  // the evaluator computing on different inputs. The protocol must stay
  // internally consistent (decodes to the correct OTHER value).
  const circuit::Circuit c = circuit::make_millionaires_circuit(8);
  SystemRandom rng(Block{0x5AB, 5});
  CircuitGarbler garbler(c, Scheme::kHalfGates, rng);
  const RoundTables tables = garbler.garble_round();

  const std::uint64_t a = 100;
  std::vector<Block> g_labels;
  for (std::size_t i = 0; i < 8; ++i)
    g_labels.push_back(garbler.garbler_input_label(i, ((a >> i) & 1) != 0));

  for (const std::uint64_t b : {50ull, 150ull}) {
    StreamingEvaluator evaluator(c, Scheme::kHalfGates);
    std::vector<Block> e_labels;
    for (std::size_t i = 0; i < 8; ++i) {
      const auto [l0, l1] = garbler.evaluator_input_labels(i);
      e_labels.push_back(((b >> i) & 1) != 0 ? l1 : l0);
    }
    const auto out = evaluator.eval_round(tables, g_labels, e_labels,
                                          garbler.fixed_wire_labels());
    EXPECT_EQ(garbler.decode_output(0, out[0]), a < b) << "b=" << b;
  }
}

TEST(FreshLabels, TablesNeverRepeatAcrossRounds) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  SystemRandom rng(Block{0xF4E5, 6});
  CircuitGarbler garbler(c, Scheme::kHalfGates, rng);
  std::set<std::string> seen;
  for (int round = 0; round < 20; ++round) {
    const RoundTables t = garbler.garble_round();
    for (const auto& table : t.tables) {
      const std::string key = table.ct[0].hex() + table.ct[1].hex();
      EXPECT_TRUE(seen.insert(key).second) << "repeated table";
    }
  }
}

}  // namespace
}  // namespace maxel::gc
