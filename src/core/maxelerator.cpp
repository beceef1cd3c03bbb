#include "core/maxelerator.hpp"

#include <stdexcept>

namespace maxel::core {

using circuit::GateType;

MaxeleratorSim::MaxeleratorSim(const MaxeleratorConfig& cfg,
                               crypto::RandomSource& rng)
    : cfg_(cfg),
      hw_(build_hw_mac_netlist(cfg.bit_width)),
      delta_(crypto::random_delta(rng)),
      engine_(gc::Scheme::kHalfGates, delta_),
      bank_(128 * (cfg.bit_width / 2), rng),
      memory_(hw_.cores(), cfg.memory_tables_per_block),
      pcie_(cfg.pcie) {
  const auto& c = hw_.circuit;
  producer_.assign(c.num_wires, -1);
  for (std::size_t i = 0; i < c.gates.size(); ++i)
    producer_[c.gates[i].out] = static_cast<std::int32_t>(i);
  is_state_wire_.assign(c.num_wires, 0);
  state_index_.assign(c.num_wires, 0);
  for (std::size_t i = 0; i < c.dffs.size(); ++i) {
    is_state_wire_[c.dffs[i].q] = 1;
    state_index_[c.dffs[i].q] = static_cast<std::uint32_t>(i);
  }
  initial_state_active_.assign(c.dffs.size(), Block::zero());

  stats_.bit_width = cfg.bit_width;
  stats_.seg1_cores = hw_.seg1_cores();
  stats_.seg2_cores = hw_.seg2_cores();
  stats_.cores = hw_.cores();
  stats_.pipeline_latency_stages = hw_.pipeline_latency_stages();
  stats_.clock_mhz = cfg.clock_mhz;
}

MaxeleratorSim::RoundState& MaxeleratorSim::round_state(std::uint64_t r) {
  auto it = rounds_.find(r);
  if (it == rounds_.end()) {
    RoundState st;
    st.labels0.assign(hw_.circuit.num_wires, Block::zero());
    st.has_label.assign(hw_.circuit.num_wires, 0);
    st.tables.assign(hw_.circuit.and_count(), gc::GarbledTable{});
    it = rounds_.emplace(r, std::move(st)).first;
  }
  return it->second;
}

Block MaxeleratorSim::resolve_label(std::uint64_t r, circuit::Wire w,
                                    int depth) {
  if (depth > 1 << 20)
    throw std::logic_error("MaxeleratorSim: label resolution runaway");
  RoundState& st = round_state(r);
  if (st.has_label[w]) return st.labels0[w];

  Block label;
  const std::int32_t prod = producer_[w];
  if (prod < 0) {
    if (is_state_wire_[w]) {
      const std::uint32_t idx = state_index_[w];
      if (r == 0) {
        label = bank_.next_label();
        ++stats_.labels_generated;
        initial_state_active_[idx] =
            hw_.circuit.dffs[idx].init ? label ^ delta_ : label;
      } else {
        // Seeded at finalize of round r-1 normally; resolve directly if
        // the previous round is still in flight.
        label = resolve_label(r - 1, hw_.circuit.dffs[idx].d, depth + 1);
      }
    } else {
      // Input or constant wire: a fresh label from the generator bank.
      label = bank_.next_label();
      ++stats_.labels_generated;
    }
  } else {
    const auto& g = hw_.circuit.gates[static_cast<std::size_t>(prod)];
    switch (g.type) {
      case GateType::kXor:
        label = resolve_label(r, g.a, depth + 1) ^
                resolve_label(r, g.b, depth + 1);
        break;
      case GateType::kXnor:
        label = resolve_label(r, g.a, depth + 1) ^
                resolve_label(r, g.b, depth + 1) ^ delta_;
        break;
      default:
        throw std::logic_error(
            "MaxeleratorSim: AND output consumed before it was garbled "
            "(FSM schedule dependency violation)");
    }
  }
  st.labels0[w] = label;
  st.has_label[w] = 1;
  return label;
}

void MaxeleratorSim::garble_op(const ScheduledOp& op, std::size_t core) {
  const auto& g = hw_.circuit.gates[op.gate_index];
  const Block a0 = resolve_label(op.round, g.a);
  const Block b0 = resolve_label(op.round, g.b);
  RoundState& st = round_state(op.round);

  gc::GarbledTable table;
  const Block out0 =
      engine_.garble(circuit::and_form(g.type), a0, b0,
                     gc::gate_tweak(op.gate_index, op.round), table);
  st.labels0[g.out] = out0;
  st.has_label[g.out] = 1;
  st.tables[hw_.table_position[op.gate_index]] = table;
  ++st.ands_done;

  memory_.write(core, current_cycle_);
  ++stats_.tables;
}

void MaxeleratorSim::seed_state_labels(std::uint64_t r) {
  // Publishes round r-1's next-state labels as round r's state labels.
  RoundState& prev = round_state(r - 1);
  RoundState& cur = round_state(r);
  for (std::size_t i = 0; i < hw_.circuit.dffs.size(); ++i) {
    const auto& dff = hw_.circuit.dffs[i];
    if (!prev.has_label[dff.d])
      throw std::logic_error("seed_state_labels: next state not resolved");
    cur.labels0[dff.q] = prev.labels0[dff.d];
    cur.has_label[dff.q] = 1;
  }
  cur.state_wires_ready = true;
}

void MaxeleratorSim::finalize_round(std::uint64_t r, const RoundCallback& cb) {
  RoundState& st = round_state(r);
  // Resolve everything the host snapshot needs (inputs may be untouched
  // when a unit never fed them to an AND directly; outputs are XORs).
  RoundOutput out;
  out.round = r;
  const auto& c = hw_.circuit;
  out.garbler_labels0.reserve(c.garbler_inputs.size());
  for (const auto w : c.garbler_inputs)
    out.garbler_labels0.push_back(resolve_label(r, w));
  out.evaluator_labels0.reserve(c.evaluator_inputs.size());
  for (const auto w : c.evaluator_inputs)
    out.evaluator_labels0.push_back(resolve_label(r, w));
  out.fixed_labels0 = {resolve_label(r, circuit::kConstZero),
                       resolve_label(r, circuit::kConstOne)};
  out.output_labels0.reserve(c.outputs.size());
  for (const auto w : c.outputs) out.output_labels0.push_back(resolve_label(r, w));
  if (r == 0) out.initial_state_active = initial_state_active_;
  out.tables.tables = std::move(st.tables);
  if (cfg_.capture_wire_labels) out.all_labels0 = st.labels0;

  pcie_.record_transfer(out.tables.tables.size() *
                        gc::bytes_per_and(gc::Scheme::kHalfGates));

  // Hand the state labels to round r+1, then retire this round.
  if (r + 1 < stats_.rounds) seed_state_labels(r + 1);
  if (cb) cb(std::move(out));
  rounds_.erase(r);
}

void MaxeleratorSim::run(std::uint64_t rounds, const RoundCallback& cb) {
  if (rounds == 0) return;
  if (stats_.rounds != 0)
    throw std::logic_error("MaxeleratorSim::run: single-shot; construct a "
                           "fresh simulator per garbling session");
  const FsmSchedule schedule(hw_, rounds);
  stats_.rounds = rounds;
  stats_.prologue_stages = schedule.prologue_stages();
  stats_.total_stages = schedule.total_stages();
  stats_.total_cycles = schedule.total_cycles();
  stats_.steady_idle_per_stage = schedule.steady_idle_slots_per_stage();
  stats_.cycles_per_mac = 3.0 * static_cast<double>(cfg_.bit_width);

  std::vector<std::array<std::optional<ScheduledOp>, 3>> ops;
  const std::uint64_t per_round_ands = hw_.ands_per_round();

  for (std::uint64_t stage = 0; stage < schedule.total_stages(); ++stage) {
    schedule.ops_at_stage(stage, ops);
    std::size_t stage_ops = 0;
    for (std::size_t cyc = 0; cyc < 3; ++cyc) {
      current_cycle_ = 3 * stage + cyc;
      for (std::size_t core = 0; core < ops.size(); ++core) {
        const auto& slot = ops[core][cyc];
        if (slot.has_value()) {
          garble_op(*slot, core);
          ++stats_.busy_slots;
          ++stage_ops;
        } else {
          ++stats_.idle_slots;
        }
      }
      (void)memory_.drain_one(current_cycle_);
      bank_.end_cycle();
    }
    if (stage_ops > stats_.max_ops_per_stage)
      stats_.max_ops_per_stage = stage_ops;

    while (true) {
      const auto it = rounds_.find(next_to_finalize_);
      if (it == rounds_.end() || it->second.ands_done != per_round_ands) break;
      finalize_round(next_to_finalize_, cb);
      ++next_to_finalize_;
    }
  }
  if (next_to_finalize_ != rounds)
    throw std::logic_error("MaxeleratorSim: rounds left unfinished");

  // Drain the remaining tables through the memory's single output port.
  while (memory_.total_fill() > 0) (void)memory_.drain_one(++current_cycle_);

  stats_.table_bytes =
      stats_.tables * gc::bytes_per_and(gc::Scheme::kHalfGates);
  stats_.rng_bits = bank_.total_bits();
  stats_.rng_gated_fraction = bank_.gated_fraction();
  stats_.rng_peak_bits_per_cycle = bank_.peak_bits_per_cycle();
  stats_.rng_underflows = bank_.underflow_stalls();
  stats_.memory_peak_fill = memory_.peak_fill();
  stats_.memory_overflow_stalls = memory_.overflow_stalls();
  stats_.pcie_bytes = pcie_.bytes_moved();
  stats_.pcie_seconds = pcie_.seconds_busy();
}

}  // namespace maxel::core
