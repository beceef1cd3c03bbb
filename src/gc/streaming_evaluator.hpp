// Memory-bounded evaluation — the library's v2 evaluator.
//
// Sec. 3 motivates sequential GC with memory-constrained clients: "the
// evaluator may not have enough memory to store all the labels
// together". Instead of one label per wire (16 bytes x num_wires), this
// evaluator runs the gate engine (gc/garble.hpp) on the slot buffer of
// circuit::plan_label_slots with nothing held: a slot is freed at its
// wire's last use, so the client's working set (working_set_bytes(),
// plan()) is the circuit's *live width* — typically an order of
// magnitude smaller for MAC netlists.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "gc/garble.hpp"

namespace maxel::gc {

class StreamingEvaluator : public GateEngine {
 public:
  StreamingEvaluator(const circuit::Circuit& c, Scheme scheme);

  // Must be called before round 0 when the circuit has DFFs.
  void set_initial_state_labels(std::vector<Block> labels);

  // Evaluates one round; returns the active labels of the outputs.
  std::vector<Block> eval_round(const RoundTables& tables,
                                const std::vector<Block>& garbler_labels,
                                const std::vector<Block>& evaluator_labels,
                                const std::vector<Block>& fixed_labels);

  [[nodiscard]] std::uint64_t rounds_evaluated() const { return round_; }
  // Garbled tables one round carries: the count a receiver checks.
  using GateEngine::tables;
};

}  // namespace maxel::gc
