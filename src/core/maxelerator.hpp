// MAXelerator: cycle-accurate simulator of the FPGA garbling accelerator.
//
// Per clock cycle, each GC core garbles at most one AND gate (one
// half-gates table — two fixed-key AES hash pairs), exactly as the
// hardware GC engine of Sec. 5.1. The FSM schedule dictates which gate;
// wire labels come from the label-generator bank (Sec. 5.2); finished
// tables land in the per-core memory blocks and drain through the PCIe
// model (Sec. 5.1/Fig. 1).
//
// The produced tables are standard half-gates tables over the hardware
// MAC netlist with the library-wide tweak convention, so the ordinary
// software StreamingEvaluator evaluates them — the acceleration is
// transparent to the client, as the paper requires.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/hw_netlist.hpp"
#include "core/schedule.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/scheme.hpp"
#include "hwsim/label_bank.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/pcie.hpp"

namespace maxel::core {

using crypto::Block;

struct MaxeleratorConfig {
  std::size_t bit_width = 32;
  double clock_mhz = 200.0;  // paper: 200 MHz on Virtex UltraSCALE
  std::size_t memory_tables_per_block = 512;
  hwsim::PcieLinkConfig pcie;
  // Capture full per-wire labels in RoundOutput (tests/equivalence only;
  // costs memory).
  bool capture_wire_labels = false;
};

struct MaxeleratorStats {
  std::size_t bit_width = 0;
  std::size_t seg1_cores = 0;
  std::size_t seg2_cores = 0;
  std::size_t cores = 0;

  std::uint64_t rounds = 0;
  std::uint64_t total_stages = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t prologue_stages = 0;
  std::size_t pipeline_latency_stages = 0;  // b + log2(b) + 2

  std::uint64_t tables = 0;
  std::uint64_t table_bytes = 0;
  std::uint64_t busy_slots = 0;
  std::uint64_t idle_slots = 0;          // over the whole run
  std::size_t steady_idle_per_stage = 0; // 3*cores - (2b+8), <= 2
  std::size_t max_ops_per_stage = 0;

  std::uint64_t labels_generated = 0;
  std::uint64_t rng_bits = 0;
  double rng_gated_fraction = 0.0;
  std::uint64_t rng_peak_bits_per_cycle = 0;
  std::uint64_t rng_underflows = 0;  // 0 <=> the k*(b/2) bank sufficed

  std::size_t memory_peak_fill = 0;
  std::uint64_t memory_overflow_stalls = 0;
  std::uint64_t pcie_bytes = 0;
  double pcie_seconds = 0.0;

  double clock_mhz = 0.0;

  // Steady-state cycles per MAC (3b by construction; measured value).
  double cycles_per_mac = 0.0;
  [[nodiscard]] double garble_seconds() const {
    return static_cast<double>(total_cycles) / (clock_mhz * 1e6);
  }
  [[nodiscard]] double time_per_mac_us() const {
    return cycles_per_mac / clock_mhz;
  }
  [[nodiscard]] double mac_per_sec() const {
    return clock_mhz * 1e6 / cycles_per_mac;
  }
  [[nodiscard]] double mac_per_sec_per_core() const {
    return mac_per_sec() / static_cast<double>(cores);
  }
  [[nodiscard]] double utilization() const {
    const double total = static_cast<double>(busy_slots + idle_slots);
    return total == 0 ? 0.0 : static_cast<double>(busy_slots) / total;
  }
  // Effective throughput when the PCIe link must keep up (Sec. 6 closing
  // remark: communication may become the bottleneck).
  [[nodiscard]] double effective_mac_per_sec() const {
    const double garble = mac_per_sec();
    if (pcie_seconds == 0.0 || rounds == 0) return garble;
    const double link = static_cast<double>(rounds) /
                        pcie_seconds;  // MACs the link can ship per sec
    return garble < link ? garble : link;
  }
};

// Everything the host needs from one garbled round (Fig. 1: tables +
// input labels stream to the host CPU, which runs OT with the client).
struct RoundOutput {
  std::uint64_t round = 0;
  gc::RoundTables tables;                   // netlist (evaluation) order
  std::vector<Block> garbler_labels0;       // 0-label per a-input bit
  std::vector<Block> evaluator_labels0;     // 0-label per x-input bit
  std::array<Block, 2> fixed_labels0{};     // const0 / const1 wires
  std::vector<Block> output_labels0;        // accumulator outputs
  std::vector<Block> initial_state_active;  // round 0 only
  std::vector<Block> all_labels0;           // only if capture_wire_labels
};

class MaxeleratorSim {
 public:
  MaxeleratorSim(const MaxeleratorConfig& cfg, crypto::RandomSource& rng);

  // Garbles `rounds` sequential MAC rounds. The callback (if any) fires
  // once per completed round, in order.
  using RoundCallback = std::function<void(RoundOutput&&)>;
  void run(std::uint64_t rounds, const RoundCallback& cb = nullptr);

  [[nodiscard]] const MaxeleratorStats& stats() const { return stats_; }
  [[nodiscard]] const HwMacNetlist& hw() const { return hw_; }
  [[nodiscard]] const circuit::Circuit& netlist() const { return hw_.circuit; }
  [[nodiscard]] const Block& delta() const { return delta_; }
  [[nodiscard]] const MaxeleratorConfig& config() const { return cfg_; }

 private:
  struct RoundState {
    std::vector<Block> labels0;
    std::vector<char> has_label;
    std::vector<gc::GarbledTable> tables;  // netlist table order
    std::uint64_t ands_done = 0;
    bool state_wires_ready = false;
  };

  RoundState& round_state(std::uint64_t r);
  Block resolve_label(std::uint64_t r, circuit::Wire w, int depth = 0);
  void garble_op(const ScheduledOp& op, std::size_t core);
  void finalize_round(std::uint64_t r, const RoundCallback& cb);
  void seed_state_labels(std::uint64_t r);

  MaxeleratorConfig cfg_;
  HwMacNetlist hw_;
  Block delta_;
  gc::GateGarbler engine_;
  hwsim::LabelBank bank_;
  hwsim::TableMemory memory_;
  hwsim::PcieLink pcie_;
  MaxeleratorStats stats_;

  std::map<std::uint64_t, RoundState> rounds_;
  std::vector<Block> initial_state_active_;
  std::uint64_t current_cycle_ = 0;
  std::uint64_t next_to_finalize_ = 0;

  // Wire classification for label resolution.
  std::vector<std::int32_t> producer_;  // gate index or -1 for inputs
  std::vector<char> is_state_wire_;
  std::vector<std::uint32_t> state_index_;  // dff index for q wires
};

}  // namespace maxel::core
