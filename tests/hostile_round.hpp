// A v2 round whose count prefixes lie, for the evaluators' count checks
// (proto::EvaluatorParty and the live client's precomputed mode).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "proto/channel.hpp"

namespace maxel::test {

// The count-prefixed fields of a v2 round, in wire order.
enum class V2Field {
  kTables,
  kGarblerLabels,
  kFixedLabels,
  kStateLabels,
  kOutputMap,
};
inline constexpr V2Field kV2Fields[] = {
    V2Field::kTables, V2Field::kGarblerLabels, V2Field::kFixedLabels,
    V2Field::kStateLabels, V2Field::kOutputMap};

// The true count of each field in round 0 of circuit `c`.
inline std::array<std::uint64_t, 5> v2_counts(const circuit::Circuit& c,
                                              gc::Scheme scheme) {
  crypto::SystemRandom rng(crypto::Block{0xBAD, 1});
  return {gc::CircuitGarbler(c, scheme, rng).garble_round().tables.size(),
          c.garbler_inputs.size(), 2, c.dffs.size(), c.outputs.size()};
}

// The lies each field is fed: one above its true count, and one whose
// allocation cannot succeed.
inline std::array<std::uint64_t, 2> lies_for(const circuit::Circuit& c,
                                             gc::Scheme scheme, V2Field f) {
  return {v2_counts(c, scheme)[static_cast<int>(f)] + 1,
          std::uint64_t{1} << 60};
}

// Stages round 0 on the garbler's end of `ch`: each field before `bad`
// carries its true count and a zero payload, `bad` carries `lie`, and
// nothing follows it.
inline void stage_lying_round(proto::Channel& ch, const circuit::Circuit& c,
                              gc::Scheme scheme, V2Field bad,
                              std::uint64_t lie) {
  const auto counts = v2_counts(c, scheme);
  for (const V2Field f : kV2Fields) {
    const std::uint64_t n = counts[static_cast<int>(f)];
    if (f == bad) {
      ch.send_u64(lie);
      return;
    }
    ch.send_u64(n);
    const std::vector<std::uint8_t> payload(
        f == V2Field::kTables      ? n * gc::bytes_per_and(scheme)
        : f == V2Field::kOutputMap ? (n + 7) / 8
                                   : 16 * n);
    ch.send_bytes(payload.data(), payload.size());
  }
}

}  // namespace maxel::test
