// Netlist optimization passes.
//
// The builder already constant-folds during construction; these passes
// clean up circuits that arrive from elsewhere (Bristol imports, the
// deliberately-unfolded hardware netlists) or that accumulated dead
// logic through composition:
//
//  * dead_code_eliminate — drops gates whose outputs reach no circuit
//    output and no DFF next-state input, renumbering wires densely;
//  * duplicate_gate_eliminate — merges structurally identical gates
//    (same type and operands), a cheap CSE;
//  * schedule_for_locality — HAAC-style locality reorder: emits each
//    wire's producer just before its consumers so the live-wire
//    working set stays small. Greedy topological list scheduling under
//    a live-set objective — each step issues the ready gate that
//    retires the most last-use operands net of its one new output —
//    cuts both the peak number of simultaneously live wires and the
//    sum of wire live ranges, which is what sizes the
//    garbler/evaluator label buffers and the hwsim live-wire memory.
//
// All passes preserve input/output ordering and plaintext semantics
// exactly (asserted by tests over random vectors).
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"

namespace maxel::circuit {

struct OptimizeStats {
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::size_t ands_before = 0;
  std::size_t ands_after = 0;

  [[nodiscard]] std::size_t gates_removed() const {
    return gates_before - gates_after;
  }
};

Circuit dead_code_eliminate(const Circuit& c, OptimizeStats* stats = nullptr);

Circuit duplicate_gate_eliminate(const Circuit& c,
                                 OptimizeStats* stats = nullptr);

// --- Wire-liveness accounting --------------------------------------------
//
// A wire is live from its definition (round start for constants, inputs
// and DFF state wires; its producing gate otherwise) until its last use.
// Outputs and DFF next-state wires stay live to the end of the round.
// Every per-wire label buffer in the library — the garbler's and the
// evaluator's — is laid out by plan_label_slots below, and
// peak_live_wires(c) is its slot count with nothing held: x16 bytes,
// the evaluator's working set of one garbled round.

// Label-slot layout of one round: wire -> slot, with a slot recycled
// once its wire is dead. Wires that are never defined (no gate writes
// them and they are not a round-start wire) map to kNoSlot.
struct SlotPlan {
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  std::vector<std::uint32_t> slot_of_wire;
  std::size_t num_slots = 0;
};

// The one liveness slot planner. `held` wires get their own slots from
// round start (in wire order) and are never recycled — the garbler
// holds every wire it answers label queries about after the round.
// Every other wire is allocated at its definition and released at its
// last use, operands before the gate's output (release-before-define),
// so a gate may write its output into an operand's slot.
SlotPlan plan_label_slots(const Circuit& c, const std::vector<Wire>& held = {});

// Maximum number of simultaneously live wires across the round:
// plan_label_slots(c).num_slots.
std::size_t peak_live_wires(const Circuit& c);

// Sum over wires of (last use - definition), in gate positions; the
// schedule pass's secondary objective. Unused non-persistent wires
// contribute zero.
std::uint64_t sum_live_ranges(const Circuit& c);

struct ScheduleStats {
  std::size_t gates = 0;
  std::size_t peak_live_before = 0;
  std::size_t peak_live_after = 0;
  std::uint64_t sum_live_before = 0;
  std::uint64_t sum_live_after = 0;

  // < 1 when the schedule shrank the live-wire working set.
  [[nodiscard]] double peak_live_ratio() const {
    return peak_live_before == 0
               ? 1.0
               : static_cast<double>(peak_live_after) /
                     static_cast<double>(peak_live_before);
  }
};

// Reorders gates topologically for wire-buffer locality and renumbers
// wires densely in emission order (inputs first, then gate outputs, the
// dead_code_eliminate convention). Dead gates are kept — removal is
// DCE's job — appended after the live program in their original
// relative order. Deterministic: depends only on the dataflow graph and
// the output list, so scheduling an already-scheduled circuit is a
// fixpoint. Throws std::invalid_argument on a combinational cycle.
Circuit schedule_for_locality(const Circuit& c, ScheduleStats* stats = nullptr);

// DCE + CSE to a fixed point.
Circuit optimize(const Circuit& c, OptimizeStats* stats = nullptr);

// DCE + CSE to a fixed point, then (behind the flag) the locality
// schedule. Consumers that garble or evaluate in netlist order — the
// CircuitGarbler/StreamingEvaluator pair, v3 and the reusable
// construction — accept the scheduled circuit unchanged.
struct OptimizeOptions {
  bool schedule = false;  // run schedule_for_locality after DCE+CSE
};

Circuit optimize(const Circuit& c, const OptimizeOptions& opt,
                 OptimizeStats* stats = nullptr,
                 ScheduleStats* schedule_stats = nullptr);

}  // namespace maxel::circuit
