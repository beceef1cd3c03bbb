#!/usr/bin/env python3
"""Compare BENCH_*.json bench output against checked-in baselines.

The benches (bench/fig_*.cpp) emit flat JSON row arrays via
bench::JsonReporter. This script gates perf regressions in CI: for each
bench named in CHECKS it matches measured rows to baseline rows by the
bench's key field and applies per-metric tolerances --

  * throughput metrics (mac_per_sec, ...) fail when the measured value
    drops below baseline * (1 - throughput_tol); the default 0.45
    absorbs shared-runner noise while a deliberate 2x slowdown
    (ratio 0.5) still fails;
  * byte metrics (bytes_per_mac) are machine-independent, so they get a
    tight 5% ceiling -- protocol bloat fails even when the runner is
    fast enough to hide it in wall time;
  * "verified" fields must be true -- a bench that produced wrong MACs
    never passes, whatever its speed;
  * relational invariants (stream strictly below precomputed on
    time-to-first-table and peak resident tables) compare rows of the
    same run, so they hold on any machine speed;
  * a baseline row listed in a bench's "retired_rows" measured code
    that no longer exists and is skipped instead of reported missing.

Usage:
  bench_compare.py --baseline-dir bench/baselines [--bench-dir DIR]
                   [--throughput-tol 0.45] [--bytes-tol 0.05] [--update]

--update copies the measured files over the baselines (run after an
intentional perf change, then commit the new baselines).
"""

import argparse
import json
import os
import shutil
import sys

# Per-bench comparison spec: key = row-identifying field; lower_bound =
# metrics that must not drop; upper_bound = metrics that must not grow.
CHECKS = {
    "net_loopback": {
        "key": "transport",
        "lower_bound": ["mac_per_sec"],
        "upper_bound": ["bytes_per_mac", "setup_bytes"],
        # (metric, row, reference_row, min_ratio): measured-run invariant.
        # The no-op FaultyChannel wrapper must stay within 5% of the raw
        # TCP transport -- the fault-injection seam is free in production.
        "ratio": [
            ("mac_per_sec", "tcp-faulty-nop", "tcp-loopback", 0.95),
        ],
        # (metric, row, reference_row, max_ratio): the slim v3 wire must
        # stay well under the v2 protocol's per-MAC bytes, and a
        # resumed session's setup must stay a sliver of a fresh one's
        # (base OT + extension amortized across the client's lifetime).
        "ratio_max": [
            ("bytes_per_mac", "tcp-loopback-v3", "tcp-loopback", 0.65),
            ("setup_bytes", "v3-resume-100", "v3-resume-1", 0.10),
        ],
    },
    "reusable": {
        "key": "point",
        # No absolute mac_per_sec floors: the 1-session rows are a few
        # ms of wall time, all connect latency, and vary several-fold
        # between runners. The wire bytes are deterministic, and the
        # 1000-session ratios below hold at any machine speed -- those
        # carry the regression gate.
        "lower_bound": [],
        "upper_bound": ["bytes_per_mac"],
        # The whole point of garble-once: after 1000 sessions the cached
        # artifact must have collapsed the wire to a sliver of v3's
        # per-MAC bytes and be serving MACs at a multiple of v3's rate.
        # Measured-run ratios, so they hold at any machine speed.
        "ratio": [
            ("mac_per_sec", "reusable-1000", "v3-1000", 2.0),
        ],
        "ratio_max": [
            ("bytes_per_mac", "reusable-1000", "v3-1000", 0.25),
        ],
    },
    "broker_scaling": {
        "key": "point",
        # Absolute sessions/s floors carry the usual runner tolerance;
        # the "failed" ceiling is exact -- the sweep's contract is zero
        # failed sessions at every tier, 10k included, on any machine.
        "lower_bound": ["sessions_per_sec"],
        "upper_bound": ["failed"],
        # Baseline rows whose subject no longer exists: the blocking
        # worker-pool broker was deleted, so the bench stopped measuring
        # it. Skipped rather than reported missing.
        "retired_rows": ["workerpool-100"],
    },
    "core_scaling": {
        "key": "cores",
        "lower_bound": ["mac_per_sec"],
        "upper_bound": [],
    },
    "schedule_locality": {
        "key": "point",
        # No absolute MAC/s floors: the in-process garble+eval loop is
        # runner-speed dependent. The locality metrics (peak live wires,
        # planned buffer bytes, hwsim cycles) are deterministic for a
        # given netlist -- the ceilings pin them against regression.
        "lower_bound": [],
        "upper_bound": [
            "peak_live_wires",
            "garbler_buffer_bytes",
            "evaluator_buffer_bytes",
            "hw_cycles",
        ],
        # The scheduling gate (measured-run ratios, machine-independent
        # for the deterministic metrics): on the b=16 MAC netlist the
        # scheduled order must cut peak live wires to <=0.9x and must
        # not cost software throughput (the bench reports the best of
        # several interleaved attempts to de-noise the MAC/s ratio).
        "ratio": [
            ("mac_per_sec", "mac-b16-scheduled", "mac-b16-unscheduled", 1.0),
        ],
        "ratio_max": [
            ("peak_live_wires", "mac-b16-scheduled", "mac-b16-unscheduled",
             0.9),
            ("hw_cycles", "mac-b16-scheduled", "mac-b16-unscheduled", 0.9),
            ("peak_live_wires", "bristol-mul32-scheduled",
             "bristol-mul32-unscheduled", 0.9),
        ],
    },
    "fp16_mac": {
        "key": "point",
        # The netlist rows (AND/XOR counts, table bytes, hwsim cycles)
        # are deterministic properties of the circuits -- tight ceilings
        # pin them against regression, and a missing fp16 row fails the
        # gate outright. The garbled-throughput row carries the usual
        # runner tolerance; its verified flag (bit-identity to the
        # softfloat reference chain every round) is mandatory.
        "lower_bound": ["rounds_per_sec"],
        "upper_bound": ["ands", "table_bytes_per_round", "cycles",
                        "peak_live_wires"],
        # The documented cost envelope of going floating point: the
        # FP16 MAC's AND count must stay within 5x the b=16 integer
        # MAC's (measured ~3.9x -- the alignment/normalization barrel
        # shifters; see docs/ACCELERATION.md).
        "ratio_max": [
            ("ands", "fp16_mac", "int16_mac", 5.0),
        ],
    },
    "case_conv_layer": {
        "key": "point",
        # Both pool phases must verify against the direct convolution
        # (the "verified" check) and the broker phase requires zero
        # failed sessions. Table counts are deterministic for the layer
        # shape; MACs/s floors carry the runner tolerance.
        "lower_bound": ["macs_per_sec"],
        "upper_bound": ["failed", "tables"],
        # The serving gate, a measured-run ratio: the broker path's
        # MACs/s must stay within tolerance of the warm per-MAC
        # extrapolation -- handshake/artifact/OT overhead may tax the
        # layer, but not collapse it.
        "ratio": [
            ("macs_per_sec", "layer_broker", "per_mac_extrapolation", 0.3),
        ],
    },
    "stream_pipeline": {
        "key": "mode",
        "lower_bound": ["mac_per_sec"],
        "upper_bound": ["bytes_per_mac"],
        # (metric, smaller_mode, larger_mode): measured-run invariant.
        "relational": [
            ("first_table_seconds", "stream", "precomputed"),
            ("peak_resident_tables", "stream", "precomputed"),
        ],
    },
}


def load_rows(path):
    with open(path) as f:
        rows = json.load(f)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of rows")
    return rows


def index_rows(rows, key):
    out = {}
    for row in rows:
        if key in row:
            out[str(row[key])] = row
    return out


def check_bench(name, spec, baseline_rows, measured_rows, args, failures):
    key = spec["key"]
    baseline = index_rows(baseline_rows, key)
    measured = index_rows(measured_rows, key)

    for row_key, base_row in sorted(baseline.items()):
        if row_key in spec.get("retired_rows", []):
            print(f"  {name}[{key}={row_key}]: retired, not compared")
            continue
        meas_row = measured.get(row_key)
        if meas_row is None:
            failures.append(
                f"{name}[{key}={row_key}]: row missing from measured output")
            continue
        if meas_row.get("verified") is False:
            failures.append(
                f"{name}[{key}={row_key}]: verified=false (wrong results)")
        for metric in spec["lower_bound"]:
            if metric not in base_row or metric not in meas_row:
                continue
            floor = base_row[metric] * (1.0 - args.throughput_tol)
            status = "ok" if meas_row[metric] >= floor else "FAIL"
            print(f"  {name}[{key}={row_key}] {metric}: "
                  f"{meas_row[metric]:.4g} vs baseline "
                  f"{base_row[metric]:.4g} (floor {floor:.4g}) {status}")
            if status == "FAIL":
                failures.append(
                    f"{name}[{key}={row_key}]: {metric} "
                    f"{meas_row[metric]:.4g} < floor {floor:.4g} "
                    f"(baseline {base_row[metric]:.4g})")
        for metric in spec["upper_bound"]:
            if metric not in base_row or metric not in meas_row:
                continue
            ceiling = base_row[metric] * (1.0 + args.bytes_tol)
            status = "ok" if meas_row[metric] <= ceiling else "FAIL"
            print(f"  {name}[{key}={row_key}] {metric}: "
                  f"{meas_row[metric]:.4g} vs baseline "
                  f"{base_row[metric]:.4g} (ceiling {ceiling:.4g}) {status}")
            if status == "FAIL":
                failures.append(
                    f"{name}[{key}={row_key}]: {metric} "
                    f"{meas_row[metric]:.4g} > ceiling {ceiling:.4g} "
                    f"(baseline {base_row[metric]:.4g})")

    for metric, small_key, large_key in spec.get("relational", []):
        small = measured.get(small_key)
        large = measured.get(large_key)
        if small is None or large is None:
            failures.append(
                f"{name}: relational check needs rows "
                f"{key}={small_key} and {key}={large_key}")
            continue
        ok = small[metric] < large[metric]
        print(f"  {name} invariant {metric}: {small_key} "
              f"{small[metric]:.4g} < {large_key} {large[metric]:.4g} "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"{name}: expected {metric}[{small_key}] < "
                f"{metric}[{large_key}], got {small[metric]:.4g} >= "
                f"{large[metric]:.4g}")

    for metric, row_key, ref_key, min_ratio in spec.get("ratio", []):
        row = measured.get(row_key)
        ref = measured.get(ref_key)
        if row is None or ref is None:
            failures.append(
                f"{name}: ratio check needs rows "
                f"{key}={row_key} and {key}={ref_key}")
            continue
        ratio = row[metric] / ref[metric] if ref[metric] else 0.0
        ok = ratio >= min_ratio
        print(f"  {name} ratio {metric}: {row_key}/{ref_key} = "
              f"{ratio:.3f} (floor {min_ratio}) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"{name}: {metric}[{row_key}] / {metric}[{ref_key}] = "
                f"{ratio:.3f} < {min_ratio}")

    for metric, row_key, ref_key, max_ratio in spec.get("ratio_max", []):
        row = measured.get(row_key)
        ref = measured.get(ref_key)
        if row is None or ref is None:
            failures.append(
                f"{name}: ratio_max check needs rows "
                f"{key}={row_key} and {key}={ref_key}")
            continue
        ratio = row[metric] / ref[metric] if ref[metric] else float("inf")
        ok = ratio <= max_ratio
        print(f"  {name} ratio {metric}: {row_key}/{ref_key} = "
              f"{ratio:.3f} (ceiling {max_ratio}) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"{name}: {metric}[{row_key}] / {metric}[{ref_key}] = "
                f"{ratio:.3f} > {max_ratio}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--bench-dir", default=".",
                    help="directory holding the fresh BENCH_*.json files")
    ap.add_argument("--throughput-tol", type=float, default=0.45,
                    help="allowed fractional drop in throughput metrics")
    ap.add_argument("--bytes-tol", type=float, default=0.05,
                    help="allowed fractional growth in byte metrics")
    ap.add_argument("--update", action="store_true",
                    help="copy measured files over the baselines and exit")
    args = ap.parse_args()

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for name in sorted(CHECKS):
            src = os.path.join(args.bench_dir, f"BENCH_{name}.json")
            if not os.path.exists(src):
                print(f"skip {name}: {src} not found")
                continue
            dst = os.path.join(args.baseline_dir, f"BENCH_{name}.json")
            shutil.copyfile(src, dst)
            print(f"updated {dst}")
        return 0

    failures = []
    compared = 0
    for name, spec in sorted(CHECKS.items()):
        base_path = os.path.join(args.baseline_dir, f"BENCH_{name}.json")
        meas_path = os.path.join(args.bench_dir, f"BENCH_{name}.json")
        if not os.path.exists(base_path):
            print(f"skip {name}: no baseline at {base_path}")
            continue
        if not os.path.exists(meas_path):
            failures.append(f"{name}: measured file {meas_path} not found")
            continue
        print(f"{name}: {meas_path} vs {base_path}")
        check_bench(name, spec, load_rows(base_path), load_rows(meas_path),
                    args, failures)
        compared += 1

    if compared == 0 and not failures:
        print("no baselines found; nothing compared")
        return 1
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s)")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nOK: {compared} bench(es) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
