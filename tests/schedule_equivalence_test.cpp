// Locality scheduling must be invisible to every garbling mode: the
// reordered netlist (circuit::schedule_for_locality) computes the same
// function, so all four session modes — precomputed, streaming, v3 and
// reusable — must decode bit-for-bit identical outputs on the scheduled
// and unscheduled circuits over the same random input vectors (v3 also
// with late-bound garbler inputs). Also pins the label-slot counts
// circuit::plan_label_slots gives the garblers and the evaluators on the
// fig_schedule_locality netlists and the served MAC.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/bristol.hpp"
#include "circuit/circuits.hpp"
#include "circuit/fp16.hpp"
#include "circuit/montgomery.hpp"
#include "circuit/netlist.hpp"
#include "circuit/optimize.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/reusable.hpp"
#include "gc/streaming_evaluator.hpp"
#include "gc/v3.hpp"
#include "proto/precompute.hpp"

namespace maxel {
namespace {

using circuit::Circuit;
using circuit::MacOptions;
using circuit::RoundInputs;
using crypto::Block;
using crypto::Prg;
using crypto::SystemRandom;

// Exact decoded-output representation for circuits of any output width
// (the Montgomery netlists exceed 64 output wires): 64-bit words,
// LSB-first.
using Words = std::vector<std::uint64_t>;

Words from_bits(const std::vector<bool>& bits) {
  Words v(bits.empty() ? 1 : (bits.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) v[i / 64] |= 1ull << (i % 64);
  return v;
}

std::vector<bool> mask_bits(const std::vector<bool>& v,
                            const std::vector<bool>& flips) {
  std::vector<bool> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i] ^ flips[i];
  return out;
}

// Per-round decoded output words of the plaintext reference.
std::vector<Words> run_plain(const Circuit& c,
                             const std::vector<RoundInputs>& rounds) {
  std::vector<bool> state;
  for (const auto& d : c.dffs) state.push_back(d.init);
  std::vector<Words> out;
  for (const auto& r : rounds)
    out.push_back(
        from_bits(eval_plain(c, r.garbler_bits, r.evaluator_bits, &state)));
  return out;
}

// Selects active input labels from a RoundMaterial and evaluates one
// round on a StreamingEvaluator (shared by the precomputed and
// streaming drivers below).
Words eval_material_round(const gc::RoundMaterial& m, const Block& delta,
                          const RoundInputs& in, gc::StreamingEvaluator& ev) {
  std::vector<Block> g(in.garbler_bits.size());
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = in.garbler_bits[i] ? m.garbler_labels0[i] ^ delta
                              : m.garbler_labels0[i];
  std::vector<Block> e(in.evaluator_bits.size());
  for (std::size_t i = 0; i < e.size(); ++i)
    e[i] = in.evaluator_bits[i] ? m.evaluator_pairs[i].second
                                : m.evaluator_pairs[i].first;
  const auto out = ev.eval_round(m.tables, g, e, m.fixed_labels);
  return from_bits(gc::decode_with_map(out, m.output_map));
}

std::vector<Words> run_precomputed(
    const Circuit& c, const std::vector<RoundInputs>& rounds,
    std::uint64_t seed) {
  SystemRandom rng(Block{seed, 0x9C0});
  const proto::PrecomputedSession s =
      proto::garble_session(c, gc::Scheme::kHalfGates, rounds.size(), rng);
  gc::StreamingEvaluator ev(c, gc::Scheme::kHalfGates);
  ev.set_initial_state_labels(s.initial_state_labels);
  std::vector<Words> out;
  for (std::size_t r = 0; r < rounds.size(); ++r)
    out.push_back(eval_material_round(s.rounds[r], s.delta, rounds[r], ev));
  return out;
}

// Stream mode as the served stream session garbles it: one
// garble_round_material per round, each round evaluated as it arrives.
std::vector<Words> run_streaming(
    const Circuit& c, const std::vector<RoundInputs>& rounds,
    std::uint64_t seed) {
  SystemRandom rng(Block{seed, 0x57E});
  gc::CircuitGarbler garbler(c, gc::Scheme::kHalfGates, rng);
  gc::StreamingEvaluator ev(c, gc::Scheme::kHalfGates);
  std::vector<Words> out;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const gc::RoundMaterial m = garbler.garble_round_material();
    if (r == 0) ev.set_initial_state_labels(garbler.initial_state_labels());
    out.push_back(eval_material_round(m, garbler.delta(), rounds[r], ev));
  }
  return out;
}

// With `late_bound`, every second garbler input is bound after garbling
// and its active label travels as a correction, as the serve path ships
// late inputs.
std::vector<Words> run_v3(const Circuit& c,
                          const std::vector<RoundInputs>& rounds,
                          std::uint64_t seed, bool late_bound = false) {
  SystemRandom rng(Block{seed, 0x13});
  std::vector<bool> late(late_bound ? c.garbler_inputs.size() : 0, false);
  for (std::size_t i = 0; i < late.size(); i += 2) late[i] = true;
  const gc::V3Analysis an = gc::analyze_v3(c, late);
  Block delta = rng.next_block();
  delta.lo |= 1;
  const Block label_seed = rng.next_block();
  gc::V3Garbler garbler(c, an, delta, label_seed, rng);
  gc::V3Evaluator evaluator(c, an, label_seed);
  std::vector<Words> out;
  for (const auto& r : rounds) {
    const gc::V3RoundMaterial m = garbler.garble_round(r.garbler_bits);
    std::vector<Block> e_labels;
    for (std::size_t i = 0; i < r.evaluator_bits.size(); ++i)
      e_labels.push_back(r.evaluator_bits[i] ? m.evaluator_pairs[i].second
                                             : m.evaluator_pairs[i].first);
    std::vector<std::pair<std::uint32_t, Block>> corrections;
    for (std::size_t i = 0; i < late.size(); ++i)
      if (late[i])
        corrections.emplace_back(
            c.garbler_inputs[i],
            garbler.late_input_label(i, r.garbler_bits[i]));
    const auto labels = evaluator.eval_round(m.rows, r.evaluator_bits,
                                             e_labels, corrections);
    out.push_back(from_bits(gc::decode_with_map(labels, m.output_map)));
  }
  return out;
}

std::vector<Words> run_reusable(const Circuit& c,
                                const std::vector<RoundInputs>& rounds,
                                std::uint64_t seed) {
  SystemRandom rng(Block{seed, 0x2E0});
  const auto rc = gc::make_reusable_circuit(c, rng);
  gc::ReusableEvaluator ev(c, rc.view);
  std::vector<Words> out;
  for (const auto& r : rounds)
    out.push_back(from_bits(
        ev.eval_round(mask_bits(r.garbler_bits, rc.garbler_flips),
                      mask_bits(r.evaluator_bits, rc.evaluator_flips))));
  return out;
}

std::vector<RoundInputs> random_rounds(const Circuit& c, std::size_t n,
                                       std::uint64_t seed) {
  Prg prg(Block{seed, 0xDA7A});
  std::vector<RoundInputs> rounds(n);
  for (auto& r : rounds) {
    r.garbler_bits = prg.bits(c.garbler_inputs.size());
    r.evaluator_bits = prg.bits(c.evaluator_inputs.size());
  }
  return rounds;
}

// The test proper: every mode, on the scheduled and the unscheduled
// netlist, over the same vectors, must reproduce the plain reference.
void check_all_modes(const Circuit& c, std::size_t n_rounds,
                     std::uint64_t seed) {
  const Circuit s = circuit::schedule_for_locality(c);
  ASSERT_EQ(s.gates.size(), c.gates.size());
  const auto rounds = random_rounds(c, n_rounds, seed);
  const auto expect = run_plain(c, rounds);
  ASSERT_EQ(run_plain(s, rounds), expect);  // schedule preserves semantics

  EXPECT_EQ(run_precomputed(c, rounds, seed), expect) << "precomputed/unsched";
  EXPECT_EQ(run_precomputed(s, rounds, seed), expect) << "precomputed/sched";
  EXPECT_EQ(run_streaming(c, rounds, seed), expect) << "stream/unsched";
  EXPECT_EQ(run_streaming(s, rounds, seed), expect) << "stream/sched";
  EXPECT_EQ(run_v3(c, rounds, seed), expect) << "v3/unsched";
  EXPECT_EQ(run_v3(s, rounds, seed), expect) << "v3/sched";
  EXPECT_EQ(run_v3(c, rounds, seed, true), expect) << "v3-late/unsched";
  EXPECT_EQ(run_v3(s, rounds, seed, true), expect) << "v3-late/sched";
  EXPECT_EQ(run_reusable(c, rounds, seed), expect) << "reusable/unsched";
  EXPECT_EQ(run_reusable(s, rounds, seed), expect) << "reusable/sched";
}

TEST(ScheduleEquivalence, MacB8AllModes) {
  check_all_modes(circuit::make_mac_circuit(MacOptions{8, 8, true}), 12,
                  0xA11);
}

TEST(ScheduleEquivalence, MacB16UnsignedAllModes) {
  check_all_modes(circuit::make_mac_circuit(MacOptions{16, 16, false}), 6,
                  0xB22);
}

TEST(ScheduleEquivalence, DotProductAllModes) {
  check_all_modes(circuit::make_dot_product_circuit(3, MacOptions{8, 8, true}),
                  4, 0xC33);
}

TEST(ScheduleEquivalence, BristolImportAllModes) {
  // Foreign gate order: the multiplier round-tripped through Bristol
  // Fashion (INV lowering included), then scheduled.
  const Circuit imported = circuit::from_bristol(
      circuit::to_bristol(circuit::make_multiplier_circuit(MacOptions{8, 8, true})));
  check_all_modes(imported, 5, 0xD44);
}

TEST(ScheduleEquivalence, Fp16MacAllModes) {
  // The sequential FP16 MAC: 16-bit DFF accumulator, mul+add datapath
  // with barrel shifters — a very different gate mix from the integer
  // MACs above, pushed through all four session modes.
  check_all_modes(circuit::make_fp16_mac_circuit(), 8, 0xF16);
}

TEST(ScheduleEquivalence, MontgomeryAllModes) {
  // Montgomery REDC at 64 bits, and at 128 bits where every input,
  // output and accumulator bus is wider than a machine word.
  check_all_modes(
      circuit::make_montgomery_mul_circuit({64, {0xFFFFFFFFFFFFFFC5ull}}), 4,
      0x64ED);
  check_all_modes(circuit::make_montgomery_mul_circuit({128, {~0ull, ~0ull}}),
                  2, 0x128D);
}

TEST(ScheduleEquivalence, OptimizePassPreservesNewFamilies) {
  // optimize({.schedule = true}) on the new netlists: DCE+CSE+schedule
  // must preserve semantics through every session mode AND never make
  // the peak live-wire working set worse (the pass's contract).
  struct Case {
    const char* tag;
    Circuit c;
    std::size_t rounds;
    std::uint64_t seed;
  };
  Case cases[] = {
      {"fp16_mac", circuit::make_fp16_mac_circuit(), 6, 0x0F7},
      {"mont128",
       circuit::make_montgomery_mul_circuit({128, {0x10001ull, 0}}), 2,
       0x0D8},
  };
  for (auto& tc : cases) {
    SCOPED_TRACE(tc.tag);
    circuit::OptimizeStats os;
    circuit::ScheduleStats ss;
    const Circuit opt = circuit::optimize(tc.c, {.schedule = true}, &os, &ss);
    EXPECT_LE(ss.peak_live_after, ss.peak_live_before) << "never-worse guard";
    EXPECT_LE(os.ands_after, os.ands_before);
    const auto rounds = random_rounds(tc.c, tc.rounds, tc.seed);
    ASSERT_EQ(run_plain(opt, rounds), run_plain(tc.c, rounds));
    check_all_modes(opt, tc.rounds, tc.seed);
  }
}

TEST(ScheduleEquivalence, PeakLiveWiresEqualsEvaluationPlanSlots) {
  // circuit::peak_live_wires is the evaluator's slot count — the bench's
  // peak-live metric IS the working-set size, scheduled or not. The
  // garbler additionally holds the protocol wires, so its slot count
  // dominates the evaluator's. v3 runs the same engine on the same
  // plans, plus one value byte per slot.
  const auto check = [](const Circuit& c) {
    const gc::StreamingEvaluator ev(c, gc::Scheme::kHalfGates);
    SystemRandom rng(Block{0x5107, 0});
    const gc::CircuitGarbler garbler(c, gc::Scheme::kHalfGates, rng);
    EXPECT_EQ(circuit::peak_live_wires(c), ev.plan().num_slots);
    EXPECT_GE(garbler.label_slots(), ev.plan().num_slots);
    const gc::V3Analysis an = gc::analyze_v3(c);
    const gc::V3Evaluator v3_ev(c, an, Block{});
    const gc::V3Garbler v3_garbler(c, an, Block{1, 0}, Block{}, rng);
    EXPECT_EQ(v3_ev.label_slots(), ev.plan().num_slots);
    EXPECT_EQ(v3_garbler.label_slots(), garbler.label_slots());
    EXPECT_EQ(v3_ev.working_set_bytes(), v3_ev.label_slots() * 17);
    EXPECT_EQ(v3_garbler.working_set_bytes(), v3_garbler.label_slots() * 17);
  };
  // The served MAC (unscheduled): v3 evaluator and garbler slot counts.
  const std::size_t served_evaluator_slots[] = {43, 111, 343};
  const std::size_t served_garbler_slots[] = {67, 159, 439};
  for (const std::size_t bits : {8u, 16u, 32u}) {
    for (const bool scheduled : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "bits=" << bits << " scheduled=" << scheduled);
      Circuit c = circuit::make_mac_circuit(MacOptions{bits, bits, true});
      if (scheduled) c = circuit::schedule_for_locality(c);
      check(c);
      if (scheduled) continue;
      const std::size_t k = bits == 8 ? 0 : bits == 16 ? 1 : 2;
      const gc::V3Analysis an = gc::analyze_v3(c);
      SystemRandom rng(Block{0x5107, 2});
      EXPECT_EQ(gc::V3Evaluator(c, an, Block{}).label_slots(),
                served_evaluator_slots[k]);
      EXPECT_EQ(gc::V3Garbler(c, an, Block{1, 0}, Block{}, rng).label_slots(),
                served_garbler_slots[k]);
    }
  }

  // The eight fig_schedule_locality netlists, with the exact slot counts
  // of bench/baselines/BENCH_schedule_locality.json (peak_live_wires,
  // garbler_buffer_bytes / 16, evaluator_buffer_bytes / 16). A planner
  // change that grows either buffer fails here.
  struct Point {
    const char* name;
    Circuit c;
    std::size_t garbler_slots;
    std::size_t evaluator_slots;
  };
  const auto mac = [](std::size_t bits) {
    circuit::MacOptions opt;
    opt.bit_width = bits;
    return circuit::optimize(circuit::make_mac_circuit(opt));
  };
  const auto sched = [](const Circuit& c) {
    return circuit::schedule_for_locality(c);
  };
  circuit::MacOptions mul32;
  mul32.bit_width = 32;
  const Circuit bristol = circuit::from_bristol(
      circuit::to_bristol(circuit::make_multiplier_circuit(mul32)));
  const std::vector<Point> points = {
      {"mac-b8-unscheduled", mac(8), 62, 38},
      {"mac-b8-scheduled", sched(mac(8)), 60, 33},
      {"mac-b16-unscheduled", mac(16), 146, 98},
      {"mac-b16-scheduled", sched(mac(16)), 124, 73},
      {"mac-b32-unscheduled", mac(32), 410, 314},
      {"mac-b32-scheduled", sched(mac(32)), 268, 169},
      {"bristol-mul32-unscheduled", bristol, 407, 311},
      {"bristol-mul32-scheduled", sched(bristol), 318, 224},
  };
  for (const auto& p : points) {
    SCOPED_TRACE(p.name);
    check(p.c);
    SystemRandom rng(Block{0x5107, 1});
    const gc::CircuitGarbler garbler(p.c, gc::Scheme::kHalfGates, rng);
    EXPECT_EQ(garbler.label_slots(), p.garbler_slots);
    EXPECT_EQ(circuit::peak_live_wires(p.c), p.evaluator_slots);
  }
}

}  // namespace
}  // namespace maxel
