#!/usr/bin/env python3
"""Smoke test of the session benchmark: every workload at a 1-second
window, untraced and traced. Checks that each run exits 0 with a correct
result, that every metric BENCHMARK.json names is printed with its unit,
and that verified_ratio is 1.

    python3 sessbench/smoke_test.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace)]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
            where = "%s trace %d" % (w["name"], trace)
            lines = r.stdout.splitlines()
            if r.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (where, r.returncode))
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if not result.get("correct") or result.get("failed") != 0:
                problems.append("%s: correct=%s failed=%s" % (
                    where, result.get("correct"), result.get("failed")))
            metrics = result.get("metrics", {})
            for m in spec[kind]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s: %s missing or not in %s" % (
                        where, m["name"], m["unit"]))
                elif not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: %s has no value" % (where, m["name"]))
            if trace == 0 and metrics.get("verified_ratio", {}).get("value") != 1:
                problems.append("%s: verified_ratio is not 1" % where)
            print("%s: %d sessions, %d metrics" % (
                where, result.get("attempted", 0), len(metrics)), flush=True)
    for p in problems:
        print("FAIL " + p)
    print("smoke test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
