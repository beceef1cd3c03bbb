#!/usr/bin/env python3
"""Builds and runs the session benchmark (see sessbench/README.md).

One run:
    python3 sessbench/run.py --workload stream-b16 --seed 1 --seconds 10 --trace 0

Builds the benchmark binary from source into $CARGO_TARGET_DIR (default
.bench_build) on first use, runs one workload in its own process and
prints its output; the last line is the result object.

Steadiness mode:
    python3 sessbench/run.py --steady 5 [--workload NAME ...] [--seconds S]

Runs each workload K times with seeds 1..K and prints, per metric, the
median and the quartile spread as a share of the median, flagging any
spread above the metric's bound in BENCHMARK.json. It also asserts the
timed-window invariants every run reports. Exits 1 if anything is
flagged.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    out = os.path.join(build_dir(), "sessbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "--target", "sessbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "sessbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def run_once(binary, workload, seed, seconds, trace, sha):
    """Runs one workload process. Returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "runs", "%s-%d-%d" % (workload, seed, os.getpid()))
    trace_out = os.path.join(build_dir(), "traces", "%s-seed%d.json" % (workload, seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--git-sha", sha]
    if trace:
        cmd += ["--trace-out", trace_out]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
        code, out = r.returncode, r.stdout
    except subprocess.TimeoutExpired as e:
        # run() has killed and reaped the process; its output is bytes.
        code, out = 124, (e.stdout or b"").decode(errors="replace")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code, out.splitlines()


def parse_tail(lines):
    """The result object and the details object of one run, or Nones."""
    result = details = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    for line in lines:
        if line.startswith("details "):
            details = json.loads(line[len("details "):])
    return result, details


def steady(args, binary, sha):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    seconds = args.seconds or spec["run_seconds"]
    bad = []
    for name in names:
        values = {}
        for seed in range(args.seed, args.seed + args.steady):
            code, lines = run_once(binary, name, seed, seconds, args.trace, sha)
            result, details = parse_tail(lines)
            if code != 0 or result is None or details is None:
                bad.append("%s seed %d: run failed (exit %d)" % (name, seed, code))
                continue
            if not result["correct"]:
                bad.append("%s seed %d: correct is false" % (name, seed))
            checks = dict(details["accounting"], **details["invariants"])
            for check, ok in checks.items():
                if not ok:
                    bad.append("%s seed %d: check failed: %s" % (name, seed, check))
            for m, v in result["metrics"].items():
                values.setdefault(m, []).append(v["value"])
            print("%s seed %d: %s steal_s=%.3g" % (name, seed, " ".join(
                "%s=%.5g" % (m, v["value"]) for m, v in result["metrics"].items()),
                details["steal_s"]), flush=True)
        print("\n%s (%s, %d runs of %s s)" % (name, kind, args.steady, seconds))
        print("  %-34s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for m, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(m)
            flag = ""
            if bound is not None and m != "setup_s" and spread > bound:
                flag = "  SPREAD > BOUND"
                bad.append("%s: %s spread %.3f > bound %.3f" % (name, m, spread, bound))
            elif bound is not None and spread > bound / 3:
                flag = "  (above bound/3)"
            print("  %-34s %12.6g %12.6g %12.6g %8.4f %6s%s" %
                  (m, med, q1, q3, spread, "-" if bound is None else bound, flag))
        print(flush=True)
    for b in bad:
        print("FLAG " + b)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="K")
    args = p.parse_args()
    if not args.steady and (not args.workload or len(args.workload) != 1 or
                            args.seconds is None):
        p.error("one --workload and --seconds are required outside --steady")

    binary = build()
    if binary is None:
        print("sessbench: build failed", file=sys.stderr)
        return 2
    sha = git_sha()
    if args.steady:
        return steady(args, binary, sha)

    code, lines = run_once(binary, args.workload[0], args.seed, args.seconds,
                           args.trace, sha)
    result, _ = parse_tail(lines)
    if code != 0 or result is None:
        for line in lines:
            print(line, file=sys.stderr)
        print("sessbench: run failed (exit %d)" % code, file=sys.stderr)
        return code or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
