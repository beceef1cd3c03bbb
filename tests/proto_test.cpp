// End-to-end two-party protocol tests: the full garble/transfer/OT/
// evaluate/decode pipeline over counting channels, combinational and
// sequential, under both OT modes and all garbling schemes.
#include <gtest/gtest.h>

#include <string>

#include "circuit/builder.hpp"
#include "circuit/circuits.hpp"
#include "crypto/prg.hpp"
#include "hostile_round.hpp"
#include "proto/protocol.hpp"

namespace maxel::proto {
namespace {

using circuit::Builder;
using circuit::Circuit;
using circuit::MacOptions;
using circuit::RoundInputs;
using circuit::to_bits;
using crypto::Block;

TEST(TwoParty, MillionairesBothOtModes) {
  const Circuit c = circuit::make_millionaires_circuit(16);
  for (OtMode ot : {OtMode::kBase, OtMode::kIknp}) {
    ProtocolOptions opt;
    opt.ot = ot;
    TwoPartyProtocol protocol(c, opt);
    const auto run_case = [&](std::uint64_t a, std::uint64_t b) -> bool {
      RoundInputs r{to_bits(a, 16), to_bits(b, 16)};
      // Copy out of the proxy before the temporary result dies.
      return protocol.run({r}).outputs.at(0);
    };
    EXPECT_TRUE(run_case(100, 200));
    EXPECT_FALSE(run_case(200, 100));
    EXPECT_FALSE(run_case(150, 150));
  }
}

TEST(TwoParty, EverySchemeComputesDotProduct) {
  const MacOptions mac{8, 16, true};
  const Circuit c = circuit::make_dot_product_circuit(4, mac);
  crypto::Prg prg(Block{500, 0});

  for (gc::Scheme s : {gc::Scheme::kClassic4, gc::Scheme::kGrr3,
                       gc::Scheme::kHalfGates}) {
    std::vector<std::uint64_t> a(4), x(4);
    RoundInputs r;
    for (std::size_t i = 0; i < 4; ++i) {
      a[i] = prg.next_u64() & 0xFF;
      x[i] = prg.next_u64() & 0xFF;
      const auto ab = to_bits(a[i], 8);
      const auto xb = to_bits(x[i], 8);
      r.garbler_bits.insert(r.garbler_bits.end(), ab.begin(), ab.end());
      r.evaluator_bits.insert(r.evaluator_bits.end(), xb.begin(), xb.end());
    }
    ProtocolOptions opt;
    opt.scheme = s;
    TwoPartyProtocol protocol(c, opt);
    const auto res = protocol.run({r});
    EXPECT_EQ(circuit::from_bits(res.outputs),
              circuit::dot_reference(a, x, mac))
        << gc::scheme_name(s);
  }
}

TEST(TwoParty, SequentialMacOverManyRounds) {
  const MacOptions mac{8, 8, true};
  const Circuit c = circuit::make_mac_circuit(mac);
  crypto::Prg prg(Block{501, 0});

  std::vector<RoundInputs> rounds(24);
  std::uint64_t expect = 0;
  for (auto& r : rounds) {
    const std::uint64_t a = prg.next_u64() & 0xFF;
    const std::uint64_t x = prg.next_u64() & 0xFF;
    r.garbler_bits = to_bits(a, 8);
    r.evaluator_bits = to_bits(x, 8);
    expect = circuit::mac_reference(expect, a, x, mac);
  }

  TwoPartyProtocol protocol(c);
  const auto res = protocol.run(rounds);
  EXPECT_EQ(circuit::from_bits(res.outputs), expect);
  EXPECT_EQ(res.rounds, 24u);
  EXPECT_EQ(res.ands_garbled, c.and_count() * 24);
}

TEST(TwoParty, TrafficScalesWithSchemeRows) {
  // Garbled-table traffic must shrink 4 -> 3 -> 2 rows across schemes.
  const MacOptions mac{8, 8, true};
  const Circuit c = circuit::make_dot_product_circuit(2, mac);
  RoundInputs r{to_bits(0x1234, 16), to_bits(0x5678, 16)};

  std::uint64_t bytes[3] = {};
  const gc::Scheme schemes[] = {gc::Scheme::kClassic4, gc::Scheme::kGrr3,
                                gc::Scheme::kHalfGates};
  for (int i = 0; i < 3; ++i) {
    ProtocolOptions opt;
    opt.scheme = schemes[i];
    TwoPartyProtocol protocol(c, opt);
    bytes[i] = protocol.run({r}).garbler_bytes_sent;
  }
  EXPECT_GT(bytes[0], bytes[1]);
  EXPECT_GT(bytes[1], bytes[2]);
  // Ratio of table payloads is exactly 4:3:2; total garbler traffic is
  // table-dominated for this circuit, so the ordering must be strict and
  // the classic/halfgates gap large.
  EXPECT_GT(bytes[0] - bytes[2], (bytes[0] - bytes[1]));
}

TEST(TwoParty, InputArityValidated) {
  const Circuit c = circuit::make_millionaires_circuit(8);
  TwoPartyProtocol protocol(c);
  RoundInputs bad{to_bits(1, 4), to_bits(2, 8)};  // garbler too short
  EXPECT_THROW((void)protocol.run({bad}), std::invalid_argument);
}

TEST(TwoParty, GarblerOnlyCircuit) {
  // Circuits with no evaluator inputs still need OT machinery to no-op.
  Builder b;
  const auto a = b.garbler_inputs(8);
  b.set_outputs(b.add(a, b.constant_bus(17, 8)));
  const Circuit c = b.take();
  TwoPartyProtocol protocol(c);
  RoundInputs r{to_bits(25, 8), {}};
  EXPECT_EQ(circuit::from_bits(protocol.run({r}).outputs), 42u);
}

TEST(TwoParty, MixedPartyXor) {
  // Output depends on both parties through free gates only.
  Builder b;
  const auto a = b.garbler_inputs(8);
  const auto x = b.evaluator_inputs(8);
  b.set_outputs(b.xor_bus(a, x));
  const Circuit c = b.take();
  TwoPartyProtocol protocol(c);
  RoundInputs r{to_bits(0xA5, 8), to_bits(0x3C, 8)};
  EXPECT_EQ(circuit::from_bits(protocol.run({r}).outputs), 0xA5u ^ 0x3Cu);
}

// The evaluator knows every count of a round from its circuit: a count
// prefix one above it, or one no allocation could hold, is a typed
// reject before anything is allocated for it.
TEST(EvaluatorParty, RoundCountsMustMatchTheCircuit) {
  const Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  ProtocolOptions opt;
  opt.ot = OtMode::kBase;
  for (const test::V2Field f : test::kV2Fields) {
    for (const std::uint64_t lie : test::lies_for(c, opt.scheme, f)) {
      SCOPED_TRACE("field " + std::to_string(static_cast<int>(f)) +
                   ", count " + std::to_string(lie));
      auto [g_ch, e_ch] = MemoryChannel::create_pair();
      test::stage_lying_round(*g_ch, c, opt.scheme, f, lie);
      crypto::SystemRandom rng(Block{1, 2});
      EvaluatorParty evaluator(c, opt, *e_ch, rng);
      EXPECT_THROW(evaluator.receive_and_choose(to_bits(3, 8)),
                   WireFormatError);
    }
  }
}

// recv_blocks()/recv_bits() with no expected count refuse a count above
// kMaxChannelCount before allocating.
TEST(Channel, UncheckedRecordsAreCapped) {
  for (const std::uint64_t lie : {std::uint64_t{1} << 60, ~std::uint64_t{0}}) {
    auto [tx, rx] = MemoryChannel::create_pair();
    tx->send_u64(lie);
    EXPECT_THROW((void)rx->recv_blocks(), WireFormatError) << lie;
    tx->send_u64(lie);
    EXPECT_THROW((void)rx->recv_bits(), WireFormatError) << lie;
  }
}

}  // namespace
}  // namespace maxel::proto
