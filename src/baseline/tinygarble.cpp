#include "baseline/tinygarble.hpp"

#include <chrono>
#include <stdexcept>

#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"

namespace maxel::baseline {

SoftwareMacResult measure_software_mac(std::size_t bit_width,
                                       std::uint64_t rounds,
                                       const SoftwareMacOptions& opt) {
  circuit::MacOptions mac;
  mac.bit_width = bit_width;
  mac.acc_width = bit_width;
  mac.is_signed = opt.is_signed;
  mac.structure = opt.structure;
  const circuit::Circuit c = circuit::make_mac_circuit(mac);

  crypto::SystemRandom rng;
  gc::CircuitGarbler garbler(c, opt.scheme, rng);

  // Warm-up round (page in tables, stabilize caches), not timed.
  (void)garbler.garble_round();

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const gc::RoundTables t = garbler.garble_round();
    sink ^= t.tables.empty() ? 0 : t.tables.front().ct[0].lo;
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (sink == 0xDEADBEEFCAFEBABEull)  // defeat over-eager optimizers
    throw std::runtime_error("improbable");

  SoftwareMacResult r;
  r.bit_width = bit_width;
  r.rounds = rounds;
  r.ands_per_mac = c.and_count();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

SoftwareMacResult measure_software_evaluation(std::size_t bit_width,
                                              std::uint64_t rounds,
                                              const SoftwareMacOptions& opt) {
  circuit::MacOptions mac;
  mac.bit_width = bit_width;
  mac.acc_width = bit_width;
  mac.is_signed = opt.is_signed;
  mac.structure = opt.structure;
  const circuit::Circuit c = circuit::make_mac_circuit(mac);

  crypto::SystemRandom rng;
  gc::CircuitGarbler garbler(c, opt.scheme, rng);
  gc::StreamingEvaluator evaluator(c, opt.scheme);

  // Pre-garble everything so only evaluation is on the timed path.
  std::vector<gc::RoundTables> tables;
  std::vector<std::vector<crypto::Block>> g_labels, e_labels, fixed;
  tables.reserve(rounds);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    tables.push_back(garbler.garble_round());
    if (r == 0)
      evaluator.set_initial_state_labels(garbler.initial_state_labels());
    std::vector<crypto::Block> g(c.garbler_inputs.size());
    std::vector<crypto::Block> e(c.evaluator_inputs.size());
    for (std::size_t i = 0; i < g.size(); ++i)
      g[i] = garbler.garbler_input_label(i, (i + r) % 2 != 0);
    for (std::size_t i = 0; i < e.size(); ++i)
      e[i] = garbler.evaluator_input_labels(i).first;
    g_labels.push_back(std::move(g));
    e_labels.push_back(std::move(e));
    fixed.push_back(garbler.fixed_wire_labels());
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const auto out =
        evaluator.eval_round(tables[r], g_labels[r], e_labels[r], fixed[r]);
    sink ^= out.front().lo;
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (sink == 0xDEADBEEFCAFEBABEull)
    throw std::runtime_error("improbable");

  SoftwareMacResult r;
  r.bit_width = bit_width;
  r.rounds = rounds;
  r.ands_per_mac = c.and_count();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

PaperTinyGarble paper_tinygarble(std::size_t bit_width) {
  switch (bit_width) {
    case 8:
      return {144000, 42.29, 2.36e4};
    case 16:
      return {545000, 160.35, 6.24e3};
    case 32:
      return {2240000, 657.65, 1.52e3};
    default:
      throw std::invalid_argument("paper_tinygarble: only b in {8,16,32}");
  }
}

}  // namespace maxel::baseline
