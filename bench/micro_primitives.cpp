// Micro-benchmarks (google-benchmark) of every primitive on the garbling
// hot path: AES, the fixed-key hash, gate garbling and evaluation per
// scheme, whole-MAC-round garbling and evaluation (v2 tables and the
// served v3 rows), base OT and IKNP
// extension, and the MAXelerator simulator itself — plus SHA-256 per
// backend, the checksum every spool disk read pays.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "baseline/tinygarble.hpp"
#include "circuit/circuits.hpp"
#include "core/maxelerator.hpp"
#include "crypto/aes.hpp"
#include "crypto/gc_hash.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"
#include "gc/v3.hpp"
#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "proto/channel.hpp"

namespace {

using namespace maxel;
using crypto::Block;

void BM_Aes128Encrypt(benchmark::State& state) {
  const crypto::Aes128 aes;
  Block b{1, 2};
  for (auto _ : state) {
    b = aes.encrypt(b);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_Aes128Encrypt);

// SHA-256 of one spool-session-sized buffer (a b=16, 64-round v3 session
// is 572,600 bytes), one case per backend.
void BM_Sha256(benchmark::State& state, crypto::Sha256Backend backend) {
  if (backend == crypto::Sha256Backend::kShani && !crypto::shani_supported()) {
    state.SkipWithError("no SHA extensions on this CPU");
    return;
  }
  crypto::set_sha256_backend(backend);
  std::vector<std::uint8_t> buf(572'600);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(i * 131);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::Sha256::hash(buf.data(), buf.size()));
  crypto::set_sha256_backend(crypto::Sha256Backend::kAuto);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK_CAPTURE(BM_Sha256, portable, crypto::Sha256Backend::kPortable);
BENCHMARK_CAPTURE(BM_Sha256, shani, crypto::Sha256Backend::kShani);

void BM_GcHash(benchmark::State& state) {
  const crypto::GcHash h;
  Block x{3, 4};
  std::uint64_t t = 0;
  for (auto _ : state) {
    x = h(x, Block{t++, 0});
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_GcHash);

void BM_GarbleGate(benchmark::State& state) {
  const auto scheme = static_cast<gc::Scheme>(state.range(0));
  crypto::SystemRandom rng(Block{7, 7});
  const Block delta = crypto::random_delta(rng);
  const gc::GateGarbler g(scheme, delta);
  Block a0 = rng.next_block();
  const Block b0 = rng.next_block();
  gc::GarbledTable t;
  std::uint64_t tw = 0;
  for (auto _ : state) {
    a0 = g.garble(circuit::and_form(circuit::GateType::kAnd), a0, b0,
                  Block{2 * tw++, 0}, t);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GarbleGate)
    ->Arg(static_cast<int>(gc::Scheme::kClassic4))
    ->Arg(static_cast<int>(gc::Scheme::kGrr3))
    ->Arg(static_cast<int>(gc::Scheme::kHalfGates));

void BM_EvaluateGate(benchmark::State& state) {
  crypto::SystemRandom rng(Block{8, 8});
  const Block delta = crypto::random_delta(rng);
  const gc::GateGarbler g(gc::Scheme::kHalfGates, delta);
  const gc::GateGarbler ev(gc::Scheme::kHalfGates, Block::zero());
  const Block a0 = rng.next_block();
  const Block b0 = rng.next_block();
  gc::GarbledTable t;
  (void)g.garble(circuit::and_form(circuit::GateType::kAnd), a0, b0,
                 Block{0, 0}, t);
  Block a = a0;
  for (auto _ : state) {
    a = ev.evaluate(a, b0, t, Block{0, 0});
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_EvaluateGate);

void BM_GarbleMacRound(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  const circuit::MacOptions opt{b, b, true,
                                circuit::Builder::MulStructure::kSerial};
  const circuit::Circuit c = circuit::make_mac_circuit(opt);
  crypto::SystemRandom rng(Block{b, 3});
  gc::CircuitGarbler g(c, gc::Scheme::kHalfGates, rng);
  for (auto _ : state) {
    auto tables = g.garble_round();
    benchmark::DoNotOptimize(tables);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["ANDs"] = static_cast<double>(c.and_count());
}
BENCHMARK(BM_GarbleMacRound)->Arg(8)->Arg(16)->Arg(32);

// One garbled MAC round, the BM_GarbleMacRound circuit, evaluated by
// gc::StreamingEvaluator. The round is garbled once and evaluated every
// iteration: only the first pass decodes (the tweak moves with the
// evaluator's round counter), but a round costs the same whatever
// label values flow through it.
void BM_EvaluateMacRound(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  const circuit::MacOptions opt{b, b, true,
                                circuit::Builder::MulStructure::kSerial};
  const circuit::Circuit c = circuit::make_mac_circuit(opt);
  crypto::SystemRandom rng(Block{b, 5});
  gc::CircuitGarbler g(c, gc::Scheme::kHalfGates, rng);
  const gc::RoundMaterial m = g.garble_round_material();
  std::vector<Block> e_labels;
  for (const auto& pair : m.evaluator_pairs) e_labels.push_back(pair.first);
  gc::StreamingEvaluator ev(c, gc::Scheme::kHalfGates);
  ev.set_initial_state_labels(g.initial_state_labels());
  for (auto _ : state) {
    auto out =
        ev.eval_round(m.tables, m.garbler_labels0, e_labels, m.fixed_labels);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["ANDs"] = static_cast<double>(c.and_count());
}
BENCHMARK(BM_EvaluateMacRound)->Arg(8)->Arg(16)->Arg(32);

// One round of the served v3 MAC (circuit::MacOptions{b, b, true}, the
// shape the spool producer and every v3 client run) garbled by
// gc::V3Garbler: the producer's per-round cost.
void BM_GarbleV3MacRound(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  const circuit::Circuit c =
      circuit::make_mac_circuit(circuit::MacOptions{b, b, true});
  const gc::V3Analysis an = gc::analyze_v3(c);
  crypto::SystemRandom rng(Block{b, 6});
  gc::V3Garbler g(c, an, crypto::random_delta(rng), rng.next_block(), rng);
  const std::vector<bool> bits = crypto::Prg(Block{b, 7}).bits(b);
  for (auto _ : state) {
    auto m = g.garble_round(bits);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rows"] = static_cast<double>(an.rows_per_round);
}
BENCHMARK(BM_GarbleV3MacRound)->Arg(8)->Arg(16)->Arg(32);

// The same round evaluated by gc::V3Evaluator, the v3 client's per-round
// cost; as in BM_EvaluateMacRound only the first pass decodes.
void BM_EvaluateV3MacRound(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  const circuit::Circuit c =
      circuit::make_mac_circuit(circuit::MacOptions{b, b, true});
  const gc::V3Analysis an = gc::analyze_v3(c);
  crypto::SystemRandom rng(Block{b, 8});
  gc::V3Garbler g(c, an, crypto::random_delta(rng), rng.next_block(), rng);
  const gc::V3RoundMaterial m = g.garble_round(std::vector<bool>(b, true));
  const std::vector<bool> x_bits(b, false);
  std::vector<Block> e_labels;
  for (const auto& pair : m.evaluator_pairs) e_labels.push_back(pair.first);
  gc::V3Evaluator ev(c, an, g.label_seed());
  for (auto _ : state) {
    const auto& out = ev.eval_round(m.rows, x_bits, e_labels);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rows"] = static_cast<double>(an.rows_per_round);
}
BENCHMARK(BM_EvaluateV3MacRound)->Arg(8)->Arg(16)->Arg(32);

// The served v3 circuit's once-per-process cost: analyze_v3 classifies
// the gates and compiles both sides' gate programs.
void BM_AnalyzeV3(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  const circuit::Circuit c =
      circuit::make_mac_circuit(circuit::MacOptions{b, b, true});
  for (auto _ : state) {
    auto an = gc::analyze_v3(c);
    benchmark::DoNotOptimize(an);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyzeV3)->Arg(8)->Arg(16)->Arg(32);

// What a v3 session pays before its first round: one V3Garbler and one
// V3Evaluator built from a cached analysis, sharing its programs. The
// "per_engine" counter is the mean time of the two, in seconds.
void BM_V3EnginesFromAnalysis(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  const circuit::Circuit c =
      circuit::make_mac_circuit(circuit::MacOptions{b, b, true});
  const gc::V3Analysis an = gc::analyze_v3(c);
  crypto::SystemRandom rng(Block{b, 9});
  const Block delta = crypto::random_delta(rng);
  const Block seed = rng.next_block();
  for (auto _ : state) {
    gc::V3Garbler g(c, an, delta, seed, rng);
    gc::V3Evaluator ev(c, an, seed);
    benchmark::DoNotOptimize(&g);
    benchmark::DoNotOptimize(&ev);
  }
  state.SetItemsProcessed(2 * state.iterations());
  state.counters["per_engine"] = benchmark::Counter(
      2.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_V3EnginesFromAnalysis)->Arg(8)->Arg(16)->Arg(32);

void BM_MaxeleratorSimRound(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    core::MaxeleratorConfig cfg;
    cfg.bit_width = b;
    crypto::SystemRandom rng(Block{b, 4});
    core::MaxeleratorSim sim(cfg, rng);
    state.ResumeTiming();
    sim.run(8);
    benchmark::DoNotOptimize(sim.stats().tables);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MaxeleratorSimRound)->Arg(8)->Arg(32);

void BM_BaseOt(benchmark::State& state) {
  crypto::SystemRandom s_rng(Block{21, 1});
  crypto::SystemRandom r_rng(Block{21, 2});
  for (auto _ : state) {
    auto [s_ch, r_ch] = proto::MemoryChannel::create_pair();
    ot::BaseOtSender sender(*s_ch, s_rng);
    ot::BaseOtReceiver receiver(*r_ch, r_rng);
    std::vector<std::pair<Block, Block>> msgs(16);
    for (auto& [m0, m1] : msgs) {
      m0 = s_rng.next_block();
      m1 = s_rng.next_block();
    }
    const std::vector<bool> choices(16, true);
    auto out = ot::run_ot(sender, receiver, msgs, choices);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_BaseOt);

void BM_IknpExtension(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  crypto::SystemRandom s_rng(Block{22, 1});
  crypto::SystemRandom r_rng(Block{22, 2});
  auto [s_ch, r_ch] = proto::MemoryChannel::create_pair();
  ot::IknpSender sender(*s_ch, s_rng);
  ot::IknpReceiver receiver(*r_ch, r_rng);
  ot::iknp_setup(sender, receiver);
  std::vector<std::pair<Block, Block>> msgs(n);
  for (auto& [m0, m1] : msgs) {
    m0 = s_rng.next_block();
    m1 = s_rng.next_block();
  }
  crypto::Prg prg(Block{5, 5});
  for (auto _ : state) {
    const std::vector<bool> choices = prg.bits(n);
    auto out = ot::run_ot(sender, receiver, msgs, choices);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_IknpExtension)->Arg(1024)->Arg(8192);

void BM_Prg(benchmark::State& state) {
  crypto::Prg prg(Block{6, 6});
  for (auto _ : state) {
    Block b = prg.next_block();
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_Prg);

}  // namespace

BENCHMARK_MAIN();
