#!/usr/bin/env python3
"""Benchmark runner for the smartbalance simulator.

Builds the perfbench program from the checkout's source, then runs
repetitions of one workload, each in a fresh process, for --seconds
seconds, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
medians over the repetitions, with host times scaled by the reference
loop each repetition times. With --trace 1 untraced and traced
repetitions alternate; the metrics are the per-layer metrics, medians
over the traced repetitions, except trace.overhead and runtime.alloc_mb,
which also use the untraced ones.

Usage (from the repository root):

    python3 _perfbench/run.py --workload paper-f4b --seed 1 --seconds 20 --trace 0
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every repetition must finish well inside the per-run limit.
REP_TIMEOUT_S = 60
# Host times are reported scaled to a host on which the reference loop
# (calib.go) takes this many ns per step; the scaling cancels most of a
# shared host's speed drift (README.md, "Noise").
REF_NS_PER_STEP = 5.0
# The simulator's speed follows the reference loop's with an elasticity
# of about one half (it is less compute-bound than the loop), so host
# times scale by the square root of the loop's slowdown. Measured on
# all four workloads, this exponent left the smallest spread; 1 over-
# corrected every one of them.
REF_ELASTICITY = 0.5
# At least this many repetitions feed each median, whatever --seconds.
MIN_REPS = 3
MIN_TRACED_REPS = 2


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return d


def build():
    """Builds perfbench with every Go cache and temp dir inside the checkout."""
    go = shutil.which("go")
    if go is None:
        die("the go toolchain is not on PATH")
    out = build_dir()
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="-mod=mod", GOTOOLCHAIN="local", GOPROXY="off",
               GOWORK="off", CGO_ENABLED="0")
    binary = os.path.join(out, "perfbench")
    p = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                       capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        die("build failed:\n" + p.stderr)
    return binary


def repetition(binary, workload, seed, traced):
    """Runs one repetition in a fresh process; returns its JSON or None."""
    args = [binary, "-workload", workload, "-seed", str(seed)]
    if traced:
        args.append("-trace")
    try:
        p = subprocess.run(args, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: repetition timed out", file=sys.stderr)
        return None
    if p.returncode != 0:
        print("perfbench: repetition failed: " + p.stderr.strip(), file=sys.stderr)
        return None
    return json.loads(p.stdout.strip().splitlines()[-1])


def speed(rep):
    """Simulated seconds per host second spent inside Run calls."""
    return rep["sim_s"] / rep["run_s"]


def host_scale(rep):
    """How much slower than the reference host this repetition's host ran."""
    return (rep["ref_ns_per_step"] / REF_NS_PER_STEP) ** REF_ELASTICITY


class Tally:
    """Counts runs attempted and failed; every repetition of one
    invocation must reproduce the first one's digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def add(self, rep):
        if rep is None:
            self.attempted += 1
            self.failed += 1
            return False
        self.attempted += rep["runs"]
        if self.digest is None and rep["failed"] == 0:
            self.digest = rep["digest"]
        if rep["failed"] or rep["digest"] != self.digest:
            for e in rep.get("errors") or []:
                print("perfbench: check failed: " + e, file=sys.stderr)
            if rep["digest"] != self.digest:
                print("perfbench: digest %s differs from %s" % (rep["digest"], self.digest),
                      file=sys.stderr)
            self.failed += rep["runs"]
            return False
        return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % a.workload)
    binary = build()

    tally = Tally()
    plain, traced = [], []
    need_plain, need_traced = (MIN_TRACED_REPS, MIN_TRACED_REPS) if a.trace else (MIN_REPS, 0)
    start = time.monotonic()
    while len(plain) < need_plain or len(traced) < need_traced or \
            time.monotonic() - start < a.seconds:
        if time.monotonic() - start > 2 * a.seconds + 30:
            die("too few repetitions succeeded")
        want_traced = a.trace == 1 and len(traced) < len(plain)
        rep = repetition(binary, a.workload, a.seed, want_traced)
        if tally.add(rep):
            (traced if want_traced else plain).append(rep)

    if a.trace:
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # Allocation is measured untraced: telemetry allocates too.
        values = {
            "runtime.alloc_mb": statistics.median(r["alloc_mb"] for r in plain),
            "trace.overhead": (statistics.median(speed(r) for r in plain) /
                               statistics.median(speed(r) for r in traced)),
        }
        for name in names:
            if name in values:
                continue
            if any(name not in r["layers"] for r in traced):
                die("traced repetition lacks %s" % name)
            values[name] = statistics.median(r["layers"][name] for r in traced)
    else:
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "sim_s_per_host_s": statistics.median(speed(r) * host_scale(r) for r in plain),
            "setup_s": statistics.median(r["setup_s"] / host_scale(r) for r in plain),
        }
        for name in names:
            if name not in values:
                values[name] = plain[0]["model"][name]
        print("perfbench: %d repetitions; unscaled sim_s_per_host_s %.6g, setup_s %.6g; "
              "reference loop %.4g ns/step" % (
                  len(plain), statistics.median(speed(r) for r in plain),
                  statistics.median(r["setup_s"] for r in plain),
                  statistics.median(r["ref_ns_per_step"] for r in plain)), file=sys.stderr)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names.items()},
    }))


if __name__ == "__main__":
    main()
