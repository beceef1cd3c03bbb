#include "circuit/optimize.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace maxel::circuit {
namespace {

void fill_before(const Circuit& c, OptimizeStats* stats) {
  if (stats == nullptr) return;
  stats->gates_before = c.gates.size();
  stats->ands_before = c.and_count();
}

void fill_after(const Circuit& c, OptimizeStats* stats) {
  if (stats == nullptr) return;
  stats->gates_after = c.gates.size();
  stats->ands_after = c.and_count();
}

constexpr std::int64_t kNever = -1;

// One round's liveness facts: the last gate position reading each wire
// (kNever if none) and the persist set (outputs and DFF next-state wires
// live to the end of the round). The slot planner, sum_live_ranges and
// the schedule's live-set objective all read this one pass.
struct RoundLiveness {
  std::vector<std::int64_t> last_use;
  std::vector<char> persist;
};

RoundLiveness round_liveness(const Circuit& c) {
  RoundLiveness lv;
  lv.last_use.assign(c.num_wires, kNever);
  for (std::size_t idx = 0; idx < c.gates.size(); ++idx) {
    lv.last_use[c.gates[idx].a] = static_cast<std::int64_t>(idx);
    lv.last_use[c.gates[idx].b] = static_cast<std::int64_t>(idx);
  }
  lv.persist.assign(c.num_wires, 0);
  for (const auto w : c.outputs) lv.persist[w] = 1;
  for (const auto& d : c.dffs) lv.persist[d.d] = 1;
  return lv;
}

// One round of greedy list scheduling under a live-set objective: at
// every step, among the ready gates (all operands already emitted or
// round-start wires), emit the one whose issue shrinks the live set the
// most — i.e. maximizes operands seeing their last use, net of the
// newly defined output. Ties go to the most recently readied gate
// (LIFO), which chains each gate's consumers right behind it,
// depth-first — on the MAC multiplier trees this is what collapses the
// working set; breaking ties by gate index instead leaves the peak
// essentially at the builder's emission order. Dead gates (no path to
// an output or DFF next-state wire) are appended after the live program
// in their original relative order — removal is DCE's job. Throws
// std::invalid_argument on a combinational cycle.
std::vector<std::uint32_t> greedy_live_order(const Circuit& c) {
  constexpr std::uint32_t kNone = UINT32_MAX;
  std::vector<std::uint32_t> producer(c.num_wires, kNone);
  for (std::uint32_t i = 0; i < c.gates.size(); ++i)
    producer[c.gates[i].out] = i;

  std::vector<char> reach(c.gates.size(), 0);
  {
    std::vector<std::uint32_t> stack;
    const auto push = [&](Wire w) {
      const std::uint32_t p = producer[w];
      if (p != kNone && !reach[p]) {
        reach[p] = 1;
        stack.push_back(p);
      }
    };
    for (const auto w : c.outputs) push(w);
    for (const auto& d : c.dffs) push(d.d);
    while (!stack.empty()) {
      const auto& g = c.gates[stack.back()];
      stack.pop_back();
      push(g.a);
      push(g.b);
    }
  }

  const std::vector<char> persist = round_liveness(c).persist;

  std::vector<std::uint32_t> uses(c.num_wires, 0);
  for (std::uint32_t i = 0; i < c.gates.size(); ++i) {
    if (!reach[i]) continue;
    ++uses[c.gates[i].a];
    ++uses[c.gates[i].b];
  }

  std::vector<std::uint32_t> pending(c.gates.size(), 0);
  std::vector<std::uint32_t> consumer_head(c.gates.size(), kNone);
  // Flattened adjacency: chains the reachable gates with an operand
  // produced by each gate (one entry per operand reference).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> consumer_links;
  consumer_links.reserve(2 * c.gates.size());
  for (std::uint32_t i = 0; i < c.gates.size(); ++i) {
    if (!reach[i]) continue;
    for (const Wire w : {c.gates[i].a, c.gates[i].b}) {
      const std::uint32_t p = producer[w];
      if (p == kNone) continue;
      ++pending[i];
      consumer_links.emplace_back(consumer_head[p], i);
      consumer_head[p] = static_cast<std::uint32_t>(consumer_links.size()) - 1;
    }
  }

  std::vector<std::uint32_t> ready;
  std::vector<std::uint32_t> readied_at(c.gates.size(), 0);
  std::uint32_t tick = 0;
  std::size_t reachable_count = 0;
  for (std::uint32_t i = 0; i < c.gates.size(); ++i) {
    if (!reach[i]) continue;
    ++reachable_count;
    if (pending[i] == 0) {
      ready.push_back(i);
      readied_at[i] = tick++;
    }
  }

  std::vector<std::uint32_t> order;
  order.reserve(c.gates.size());
  while (order.size() < reachable_count) {
    if (ready.empty())
      throw std::invalid_argument("schedule_for_locality: combinational cycle");
    std::size_t best_pos = 0;
    int best_delta = 2;
    std::uint32_t best_tick = 0;
    for (std::size_t pos = 0; pos < ready.size(); ++pos) {
      const std::uint32_t gi = ready[pos];
      const auto& g = c.gates[gi];
      int delta = 1;  // the newly defined output
      if (g.a == g.b) {
        if (!persist[g.a] && uses[g.a] == 2) --delta;
      } else {
        if (!persist[g.a] && uses[g.a] == 1) --delta;
        if (!persist[g.b] && uses[g.b] == 1) --delta;
      }
      if (delta < best_delta ||
          (delta == best_delta && readied_at[gi] > best_tick)) {
        best_pos = pos;
        best_delta = delta;
        best_tick = readied_at[gi];
      }
    }
    const std::uint32_t gi = ready[best_pos];
    ready[best_pos] = ready.back();
    ready.pop_back();
    order.push_back(gi);
    --uses[c.gates[gi].a];
    --uses[c.gates[gi].b];
    for (std::uint32_t link = consumer_head[gi]; link != kNone;
         link = consumer_links[link].first) {
      const std::uint32_t consumer = consumer_links[link].second;
      if (--pending[consumer] == 0) {
        ready.push_back(consumer);
        readied_at[consumer] = tick++;
      }
    }
  }
  for (std::uint32_t i = 0; i < c.gates.size(); ++i)
    if (!reach[i]) order.push_back(i);
  return order;
}

// Same circuit with gates permuted into `order`; wires untouched.
Circuit reorder_gates(const Circuit& c,
                      const std::vector<std::uint32_t>& order) {
  Circuit out;
  out.name = c.name;
  out.num_wires = c.num_wires;
  out.garbler_inputs = c.garbler_inputs;
  out.evaluator_inputs = c.evaluator_inputs;
  out.outputs = c.outputs;
  out.dffs = c.dffs;
  out.gates.reserve(order.size());
  for (const auto idx : order) out.gates.push_back(c.gates[idx]);
  return out;
}

}  // namespace

SlotPlan plan_label_slots(const Circuit& c, const std::vector<Wire>& held) {
  RoundLiveness lv = round_liveness(c);
  // 0: released at last use; 1: live to the round's end; 2: held.
  std::vector<char> keep = std::move(lv.persist);
  for (const auto w : held) keep[w] = 2;

  SlotPlan plan;
  plan.slot_of_wire.assign(c.num_wires, SlotPlan::kNoSlot);
  for (Wire w = 0; w < c.num_wires; ++w)
    if (keep[w] == 2)
      plan.slot_of_wire[w] = static_cast<std::uint32_t>(plan.num_slots++);

  std::vector<std::uint32_t> free_slots;
  const auto define = [&](Wire w) {
    if (plan.slot_of_wire[w] != SlotPlan::kNoSlot) return;  // held
    if (free_slots.empty()) {
      plan.slot_of_wire[w] = static_cast<std::uint32_t>(plan.num_slots++);
    } else {
      plan.slot_of_wire[w] = free_slots.back();
      free_slots.pop_back();
    }
  };
  const auto release_if_dead = [&](Wire w, std::int64_t at) {
    if (lv.last_use[w] == at && keep[w] == 0)
      free_slots.push_back(plan.slot_of_wire[w]);
  };

  // Round start: constants, inputs, state wires.
  std::vector<Wire> start = {kConstZero, kConstOne};
  start.insert(start.end(), c.garbler_inputs.begin(), c.garbler_inputs.end());
  start.insert(start.end(), c.evaluator_inputs.begin(),
               c.evaluator_inputs.end());
  for (const auto& d : c.dffs) start.push_back(d.q);
  for (const auto w : start) define(w);
  for (const auto w : start) release_if_dead(w, kNever);

  for (std::size_t idx = 0; idx < c.gates.size(); ++idx) {
    const auto& g = c.gates[idx];
    const auto at = static_cast<std::int64_t>(idx);
    // Operands die here unless kept; a == b must free only once.
    release_if_dead(g.a, at);
    if (g.b != g.a) release_if_dead(g.b, at);
    define(g.out);
    release_if_dead(g.out, kNever);
  }
  return plan;
}

std::size_t peak_live_wires(const Circuit& c) {
  return plan_label_slots(c).num_slots;
}

std::uint64_t sum_live_ranges(const Circuit& c) {
  const RoundLiveness lv = round_liveness(c);
  const std::int64_t end = static_cast<std::int64_t>(c.gates.size());
  std::vector<std::int64_t> def(c.num_wires, 0);
  for (std::size_t idx = 0; idx < c.gates.size(); ++idx)
    def[c.gates[idx].out] = static_cast<std::int64_t>(idx);
  std::uint64_t sum = 0;
  for (Wire w = 0; w < c.num_wires; ++w) {
    const std::int64_t last = lv.persist[w] ? end : lv.last_use[w];
    if (last == kNever) continue;  // unused, non-persistent: zero range
    sum += static_cast<std::uint64_t>(last - def[w]);
  }
  return sum;
}

Circuit dead_code_eliminate(const Circuit& c, OptimizeStats* stats) {
  fill_before(c, stats);

  std::vector<char> live(c.num_wires, 0);
  for (const auto w : c.outputs) live[w] = 1;
  for (const auto& d : c.dffs) live[d.d] = 1;
  for (auto it = c.gates.rbegin(); it != c.gates.rend(); ++it) {
    if (!live[it->out]) continue;
    live[it->a] = 1;
    live[it->b] = 1;
  }

  constexpr Wire kUnset = UINT32_MAX;
  std::vector<Wire> remap(c.num_wires, kUnset);
  Circuit out;
  out.name = c.name;
  out.num_wires = 2;
  remap[kConstZero] = kConstZero;
  remap[kConstOne] = kConstOne;
  for (const auto w : c.garbler_inputs) {
    remap[w] = out.num_wires++;
    out.garbler_inputs.push_back(remap[w]);
  }
  for (const auto w : c.evaluator_inputs) {
    remap[w] = out.num_wires++;
    out.evaluator_inputs.push_back(remap[w]);
  }
  for (const auto& d : c.dffs) remap[d.q] = out.num_wires++;

  const auto mapped = [&remap](Wire w) {
    if (remap[w] == kUnset)
      throw std::logic_error("dead_code_eliminate: unmapped live wire");
    return remap[w];
  };

  for (const auto& g : c.gates) {
    if (!live[g.out]) continue;
    const Wire a = mapped(g.a);
    const Wire b = mapped(g.b);
    remap[g.out] = out.num_wires++;
    out.gates.push_back({g.type, a, b, remap[g.out]});
  }
  for (const auto w : c.outputs) out.outputs.push_back(mapped(w));
  for (const auto& d : c.dffs)
    out.dffs.push_back({mapped(d.q), mapped(d.d), d.init});

  fill_after(out, stats);
  return out;
}

Circuit duplicate_gate_eliminate(const Circuit& c, OptimizeStats* stats) {
  fill_before(c, stats);

  // All supported gate types are symmetric in their operands.
  using Key = std::tuple<GateType, Wire, Wire>;
  std::map<Key, Wire> seen;
  std::vector<Wire> subst(c.num_wires);
  for (Wire w = 0; w < c.num_wires; ++w) subst[w] = w;

  Circuit out;
  out.name = c.name;
  out.num_wires = c.num_wires;
  out.garbler_inputs = c.garbler_inputs;
  out.evaluator_inputs = c.evaluator_inputs;

  for (const auto& g : c.gates) {
    const Wire a = subst[g.a];
    const Wire b = subst[g.b];
    const Key key{g.type, a < b ? a : b, a < b ? b : a};
    const auto it = seen.find(key);
    if (it != seen.end()) {
      subst[g.out] = it->second;
      continue;
    }
    seen.emplace(key, g.out);
    out.gates.push_back({g.type, a, b, g.out});
  }
  for (const auto w : c.outputs) out.outputs.push_back(subst[w]);
  for (const auto& d : c.dffs) out.dffs.push_back({d.q, subst[d.d], d.init});

  fill_after(out, stats);
  return out;
}

Circuit schedule_for_locality(const Circuit& c, ScheduleStats* stats) {
  if (stats != nullptr) {
    stats->gates = c.gates.size();
    stats->peak_live_before = peak_live_wires(c);
    stats->sum_live_before = sum_live_ranges(c);
  }

  // The greedy round's LIFO tie-break depends on the incoming gate
  // order, so one application is not its own fixpoint. Iterate until a
  // round stops strictly improving the (peak, sum) live profile and
  // keep the last improvement — the returned order is one the greedy
  // round maps to something no better, so re-scheduling the result is
  // the identity (modulo renumbering, which is order-preserving).
  Circuit cur = reorder_gates(c, greedy_live_order(c));  // also cycle-checks
  {
    std::size_t cur_peak = peak_live_wires(cur);
    std::uint64_t cur_sum = sum_live_ranges(cur);
    {
      const std::size_t in_peak = peak_live_wires(c);
      const std::uint64_t in_sum = sum_live_ranges(c);
      if (std::tie(in_peak, in_sum) <= std::tie(cur_peak, cur_sum)) {
        cur = c;
        cur_peak = in_peak;
        cur_sum = in_sum;
      }
    }
    for (int round = 0; round < 16; ++round) {
      Circuit cand = reorder_gates(cur, greedy_live_order(cur));
      const std::size_t cand_peak = peak_live_wires(cand);
      const std::uint64_t cand_sum = sum_live_ranges(cand);
      if (std::tie(cand_peak, cand_sum) >= std::tie(cur_peak, cur_sum)) break;
      cur = std::move(cand);
      cur_peak = cand_peak;
      cur_sum = cand_sum;
    }
  }

  // Renumber densely in emission order (the DCE convention), so wire
  // indices advance with the schedule and consumers touch a compact,
  // recently-written window of any per-wire buffer.
  constexpr Wire kUnset = UINT32_MAX;
  std::vector<Wire> remap(cur.num_wires, kUnset);
  Circuit out;
  out.name = cur.name;
  out.num_wires = 2;
  remap[kConstZero] = kConstZero;
  remap[kConstOne] = kConstOne;
  for (const auto w : cur.garbler_inputs) {
    remap[w] = out.num_wires++;
    out.garbler_inputs.push_back(remap[w]);
  }
  for (const auto w : cur.evaluator_inputs) {
    remap[w] = out.num_wires++;
    out.evaluator_inputs.push_back(remap[w]);
  }
  for (const auto& d : cur.dffs) remap[d.q] = out.num_wires++;

  const auto mapped = [&remap](Wire w) {
    if (remap[w] == kUnset)
      throw std::logic_error("schedule_for_locality: unmapped wire");
    return remap[w];
  };

  out.gates.reserve(cur.gates.size());
  for (const auto& g : cur.gates) {
    const Wire a = mapped(g.a);
    const Wire b = mapped(g.b);
    remap[g.out] = out.num_wires++;
    out.gates.push_back({g.type, a, b, remap[g.out]});
  }
  for (const auto w : cur.outputs) out.outputs.push_back(mapped(w));
  for (const auto& d : cur.dffs)
    out.dffs.push_back({mapped(d.q), mapped(d.d), d.init});

  if (stats != nullptr) {
    stats->peak_live_after = peak_live_wires(out);
    stats->sum_live_after = sum_live_ranges(out);
  }
  return out;
}

Circuit optimize(const Circuit& c, OptimizeStats* stats) {
  fill_before(c, stats);
  Circuit cur = c;
  for (int pass = 0; pass < 8; ++pass) {
    const std::size_t before = cur.gates.size();
    cur = dead_code_eliminate(duplicate_gate_eliminate(cur));
    if (cur.gates.size() == before) break;
  }
  fill_after(cur, stats);
  return cur;
}

Circuit optimize(const Circuit& c, const OptimizeOptions& opt,
                 OptimizeStats* stats, ScheduleStats* schedule_stats) {
  Circuit cur = optimize(c, stats);
  if (opt.schedule) cur = schedule_for_locality(cur, schedule_stats);
  return cur;
}

}  // namespace maxel::circuit
