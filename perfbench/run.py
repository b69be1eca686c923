#!/usr/bin/env python3
"""End-to-end benchmark of the AQP++ library.

Builds perfbench/aqpp_perfbench from the checkout's sources (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench) and runs one
workload:

  python3 perfbench/run.py --workload dashboard --seed 7 --seconds 10 --trace 0

The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}: with --trace 0 the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. Build output and progress go to stderr.

Steadiness mode runs a workload once per seed and reports, for every
end-to-end metric, the median, the quartiles and the spread (Q3 - Q1) /
median, flagging a spread above the metric's bound in BENCHMARK.json:

  python3 perfbench/run.py --steady --workload dashboard --seeds 1,2,3,4,5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dashboard", "ingest_mix", "exact_ooc", "shard_fanout")
# One run must end within 180 s; the binary gets what is left after the
# build, but never less than this.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout=None):
    """Runs cmd with its stdout sent to stderr; returns the exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out: {' '.join(cmd)}")
        return 1


def build():
    """Configures once and builds incrementally; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        rc = run_quiet(["cmake", "-S", HERE, "-B", out])
        if rc != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", out, "--target", "aqpp_perfbench",
                  "-j", jobs]) != 0:
        return None
    return os.path.join(out, "aqpp_perfbench")


def run_once(binary, workload, seed, seconds, trace, timeout):
    """Runs one workload; returns the parsed result line or None."""
    work = os.path.join(build_dir(), "work")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: timed out after {timeout:.0f}s")
        return None
    if proc.returncode != 0:
        log(f"{workload}: exited with code {proc.returncode}")
        return None
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        log(f"{workload}: printed no result")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: malformed result line")
        return None
    return result


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def steady(binary, workload, seeds, seconds):
    """Runs `workload` once per seed; returns False if any check fails."""
    bounds = load_bounds()
    values = {name: [] for name in bounds}
    ok = True
    for seed in seeds:
        t0 = time.time()
        result = run_once(binary, workload, seed, seconds, 0, RUN_TIMEOUT_S)
        if result is None or not result["correct"]:
            log(f"seed {seed}: run failed or incorrect")
            ok = False
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        log(f"seed {seed}: {time.time() - t0:.1f}s " + " ".join(
            f"{n}={v[-1]:.4g}" for n, v in values.items()))
    summary = {}
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        # setup_s is held to its bound between medians only, not in spread.
        flagged = spread > bound and name != "setup_s"
        ok = ok and not flagged
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound, "flag": flagged}
        print(f"{name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound:>6.3f}{'  SPREAD > BOUND' if flagged else ''}")
    print(json.dumps({"workload": workload, "seeds": seeds,
                      "metrics": summary}))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true",
                   help="run once per --seeds seed and report spreads")
    p.add_argument("--seeds", default="1,2,3,4,5")
    args = p.parse_args()

    t0 = time.time()
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if args.steady:
        seeds = [int(s) for s in args.seeds.split(",")]
        return 0 if steady(binary, args.workload, seeds, args.seconds) else 1
    timeout = max(RUN_TIMEOUT_S - (time.time() - t0), 60)
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace, timeout)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
