#include "core/matmul.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "circuit/circuits.hpp"
#include "gc/garble.hpp"
#include "gc/streaming_evaluator.hpp"

namespace maxel::core {
namespace {

struct MatMulShape {
  std::size_t n = 0;  // rows of a
  std::size_t m = 0;  // inner
  std::size_t p = 0;  // cols of x
  std::uint64_t mask = 0;
};

MatMulShape validate_shape(const std::vector<std::vector<std::uint64_t>>& a,
                           const std::vector<std::vector<std::uint64_t>>& x,
                           std::size_t bit_width, const char* who) {
  MatMulShape s;
  s.n = a.size();
  if (s.n == 0 || x.empty())
    throw std::invalid_argument(std::string(who) + ": empty operand");
  s.m = a.front().size();
  if (x.size() != s.m)
    throw std::invalid_argument(std::string(who) + ": inner dim mismatch");
  s.p = x.front().size();
  s.mask = bit_width >= 64 ? ~0ull : ((1ull << bit_width) - 1);
  return s;
}

struct CellResult {
  std::uint64_t decoded = 0;
  bool verified = false;
};

// Garbles one output cell (i, j) — M MAC rounds on a fresh simulator —
// and decodes it through the standard software evaluator. This is the
// unit of work a GC core executes; both the serial and the pooled path
// run exactly this.
CellResult run_matmul_cell(const std::vector<std::vector<std::uint64_t>>& a,
                           const std::vector<std::vector<std::uint64_t>>& x,
                           std::size_t bit_width, const MatMulShape& shape,
                           std::size_t i, std::size_t j,
                           crypto::RandomSource& rng,
                           MaxeleratorStats& stats_acc) {
  const circuit::MacOptions ref{bit_width, bit_width, true,
                                circuit::Builder::MulStructure::kTree};
  MaxeleratorConfig cfg;
  cfg.bit_width = bit_width;
  MaxeleratorSim sim(cfg, rng);
  gc::StreamingEvaluator evaluator(sim.netlist(), gc::Scheme::kHalfGates);

  std::uint64_t expect = 0;
  std::vector<crypto::Block> out_labels;
  std::vector<bool> out_map;
  sim.run(shape.m, [&](RoundOutput&& ro) {
    if (ro.round == 0)
      evaluator.set_initial_state_labels(ro.initial_state_active);
    const std::uint64_t av = a[i][ro.round] & shape.mask;
    const std::uint64_t xv = x[ro.round][j] & shape.mask;
    expect = circuit::mac_reference(expect, av, xv, ref);

    std::vector<crypto::Block> g_labels(bit_width), e_labels(bit_width);
    for (std::size_t k = 0; k < bit_width; ++k) {
      g_labels[k] = ((av >> k) & 1u) ? ro.garbler_labels0[k] ^ sim.delta()
                                     : ro.garbler_labels0[k];
      e_labels[k] = ((xv >> k) & 1u) ? ro.evaluator_labels0[k] ^ sim.delta()
                                     : ro.evaluator_labels0[k];
    }
    out_labels = evaluator.eval_round(
        ro.tables, g_labels, e_labels,
        {ro.fixed_labels0[0], ro.fixed_labels0[1] ^ sim.delta()});
    out_map.resize(ro.output_labels0.size());
    for (std::size_t k = 0; k < out_map.size(); ++k)
      out_map[k] = ro.output_labels0[k].lsb();
  });

  CellResult cell;
  cell.decoded = circuit::from_bits(gc::decode_with_map(out_labels, out_map));
  cell.verified = cell.decoded == expect;

  // Per-core accounting: sum this cell's run into the core's ledger.
  const MaxeleratorStats& st = sim.stats();
  if (stats_acc.bit_width == 0) {
    stats_acc = st;
  } else {
    stats_acc.rounds += st.rounds;
    stats_acc.total_stages += st.total_stages;
    stats_acc.total_cycles += st.total_cycles;
    stats_acc.prologue_stages += st.prologue_stages;
    stats_acc.tables += st.tables;
    stats_acc.table_bytes += st.table_bytes;
    stats_acc.busy_slots += st.busy_slots;
    stats_acc.idle_slots += st.idle_slots;
    stats_acc.labels_generated += st.labels_generated;
    stats_acc.rng_bits += st.rng_bits;
    stats_acc.rng_underflows += st.rng_underflows;
    stats_acc.memory_overflow_stalls += st.memory_overflow_stalls;
    stats_acc.pcie_bytes += st.pcie_bytes;
    stats_acc.pcie_seconds += st.pcie_seconds;
    if (st.memory_peak_fill > stats_acc.memory_peak_fill)
      stats_acc.memory_peak_fill = st.memory_peak_fill;
    if (st.max_ops_per_stage > stats_acc.max_ops_per_stage)
      stats_acc.max_ops_per_stage = st.max_ops_per_stage;
  }
  return cell;
}

}  // namespace

std::size_t MatMulPlan::pcie_saturation_units() const {
  // Garbling time scales 1/units; PCIe time is fixed. Saturation when
  // garble_seconds(units) <= pcie_seconds().
  const double p = pcie_seconds();
  if (p <= 0.0) return SIZE_MAX;
  const double one_unit = total_cycles_per_unit() / (clock_mhz * 1e6);
  const double u = one_unit / p;
  return u < 1.0 ? 1 : static_cast<std::size_t>(std::ceil(u));
}

SecureMatMulResult secure_matmul_on_sim(
    const std::vector<std::vector<std::uint64_t>>& a,
    const std::vector<std::vector<std::uint64_t>>& x, std::size_t bit_width,
    crypto::RandomSource& rng) {
  const MatMulShape shape =
      validate_shape(a, x, bit_width, "secure_matmul_on_sim");

  SecureMatMulResult res;
  res.product.assign(shape.n, std::vector<std::uint64_t>(shape.p, 0));
  res.verified = true;

  MaxeleratorStats acc;
  for (std::size_t i = 0; i < shape.n; ++i) {
    for (std::size_t j = 0; j < shape.p; ++j) {
      const CellResult cell =
          run_matmul_cell(a, x, bit_width, shape, i, j, rng, acc);
      res.product[i][j] = cell.decoded;
      res.verified = res.verified && cell.verified;
    }
  }
  res.tables = acc.tables;
  res.cycles = acc.total_cycles;
  return res;
}

ParallelMatMulResult parallel_matmul_on_pool(
    const std::vector<std::vector<std::uint64_t>>& a,
    const std::vector<std::vector<std::uint64_t>>& x, std::size_t bit_width,
    GcCorePool& pool) {
  const MatMulShape shape = validate_shape(a, x, bit_width, "parallel_matmul");
  const std::size_t cells = shape.n * shape.p;

  ParallelMatMulResult res;
  res.cores = pool.cores();
  res.product.assign(shape.n, std::vector<std::uint64_t>(shape.p, 0));
  res.core_stats.assign(pool.cores(), MaxeleratorStats{});
  std::vector<char> cell_ok(cells, 0);

  // Each worker touches only its own cells / stats slot / rng, so the
  // loop body needs no locking; parallel_for joins before we aggregate.
  pool.parallel_for(cells, [&](std::size_t cell, std::size_t core) {
    const std::size_t i = cell / shape.p;
    const std::size_t j = cell % shape.p;
    const CellResult r = run_matmul_cell(a, x, bit_width, shape, i, j,
                                         pool.core_rng(core),
                                         res.core_stats[core]);
    res.product[i][j] = r.decoded;
    cell_ok[cell] = r.verified ? 1 : 0;
  });

  res.verified = true;
  for (const char ok : cell_ok) res.verified = res.verified && ok != 0;
  for (const auto& st : res.core_stats) {
    res.tables += st.tables;
    res.cycles += st.total_cycles;
  }
  return res;
}

ParallelMatMulResult parallel_matmul(
    const std::vector<std::vector<std::uint64_t>>& a,
    const std::vector<std::vector<std::uint64_t>>& x, std::size_t bit_width,
    const crypto::Block& root_seed, std::size_t cores) {
  GcCorePool pool(cores, root_seed);
  return parallel_matmul_on_pool(a, x, bit_width, pool);
}

}  // namespace maxel::core
