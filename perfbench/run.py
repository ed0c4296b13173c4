#!/usr/bin/env python3
"""Repo benchmark entry point: builds the benchmark binaries, runs one
workload, and prints every metric by name with its unit, then one JSON
result line.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload daemon_small --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured by the
untraced binary; set-up is repeated SETUPS times (SETUPS - 1 set-up-only
processes, then the measuring one) and setup_s is their median.
--trace 1 runs the untraced binary and then the traced one on the same
seed, and reports the per-layer metrics plus the tracing overhead between
the two. The spans go to .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("mc_sweep", "daemon_small", "surrogate_cells")
CHECKS = {
    "mc_sweep": ("conservation", "success"),
    "daemon_small": ("point_line",),
    "surrogate_cells": ("repeat", "range"),
}
SETUPS = 3
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("baseline_op_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# A run must finish within 180 s of starting (after the first build).
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; a no-op when current."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no flip source tree at {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:] + p.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def drive(binary, args, deadline):
    """Runs a benchmark binary and returns its JSON result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(args))
    cmd = [os.path.join(BUILD, binary)] + args
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if p.returncode != 0 or not p.stdout.strip():
        log(p.stderr[-4000:])
        raise BenchError(f"{binary} exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def source_identity():
    """git rev when the tree is a git checkout, and a digest of the sources
    (the checkout a benchmark runs in need not be a git repository)."""
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            rev = p.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return rev, digest.hexdigest()[:16]


def print_machine(result):
    machine = dict(result.get("machine", {}))
    machine["git_rev"], machine["source_sha256_16"] = source_identity()
    print("machine " + json.dumps(machine, sort_keys=True))


def end_to_end(args, deadline):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [drive("flipbench", common + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUPS - 1)]
    r = drive("flipbench", common + ["--seconds", str(args.seconds)], deadline)
    setups.append(r["setup_s"])
    r["setup_s"] = statistics.median(setups)

    print(f"workload {args.workload} seed {args.seed}: {r['op']}")
    print_machine(r)
    notes = {
        "setup_s": "median of %d set-ups: %s" % (
            len(setups), ", ".join("%.3f" % s for s in setups)),
        "ops_per_s": "%d ops in %.2f s" % (r["ops"], r["wall_s"]),
        "op_p50_ms": "median of %d ops" % r["ops"],
        "baseline_op_ms": "median of %d single-threaded ops" % r["baseline_ops"],
        "peak_rss_mb": "VmHWM of the measuring process",
    }
    metrics = {}
    for name, unit in END_TO_END:
        metrics[name] = {"value": r[name], "unit": unit}
        print(f"{name:<16} {r[name]:>14.6g} {unit:<4} ({notes[name]})")
    if "op_tail_ms" in r:
        print(f"{'op_tail_ms':<16} {r['op_tail_ms']:>14.6g} ms   "
              f"(p{r['op_tail_pct']}, {r['op_tail_beyond']} ops beyond; "
              f"not gated)")
    else:
        print(f"{'op_tail_ms':<16} {'-':>14} ms   (under 11 ops above the "
              f"median: no percentile with 10 ops beyond it)")
    return r, metrics


def per_layer(args, deadline):
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    plain = drive("flipbench", common, deadline)
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir,
                              f"{args.workload}-seed{args.seed}.json")
    r = drive("flipbench_traced", common + ["--trace-out", trace_path],
              deadline)
    print(f"workload {args.workload} seed {args.seed} (traced): {r['op']}")
    print_machine(r)
    metrics = dict(r["layers"])
    # Tracing overhead: op throughput lost in the traced binary (spans and
    # the counting operator new) against the untraced run of the same seed.
    metrics["trace.overhead_pct"] = {
        "value": (plain["ops_per_s"] / r["ops_per_s"] - 1.0) * 100.0,
        "unit": "%"}
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    if not plain["correct"]:
        r["correct"] = False
        r["errors"] = r.get("errors", []) + plain.get("errors", [])
    return r, metrics


def self_test():
    """Each workload at a tiny size: a clean run must pass every check, and
    a run fed one wrong expected value per check must fail every op; the
    traced run must emit every per-layer metric BENCHMARK.json names."""
    deadline = time.monotonic() + 600.0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        layer_names = {m["name"] for m in json.load(fh)["per_layer"]}
    layer_names.discard("trace.overhead_pct")  # computed by run.py
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        base = ["--workload", w, "--seed", "7", "--seconds", "1", "--tiny"]
        r = drive("flipbench", base, deadline)
        expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
               f"{w}: clean run passes its checks ({r['attempted']} ops)")
        for check in CHECKS[w]:
            r = drive("flipbench", base + ["--inject", check], deadline)
            expect(not r["correct"] and r["attempted"] > 0
                   and r["failed"] == r["attempted"],
                   f"{w}: wrong expected value for '{check}' fails "
                   f"{r['failed']}/{r['attempted']} ops")
        r = drive("flipbench_traced", base, deadline)
        missing = sorted(layer_names - set(r["layers"]))
        expect(not missing and r["correct"],
               f"{w}: traced run emits every per-layer metric"
               + (f" (missing {missing})" if missing else ""))
    r = drive("flipbench_traced", ["--workload", WORKLOADS[0], "--seed", "7",
                                   "--seconds", "1", "--tiny",
                                   "--inject", "shard_equal"], deadline)
    expect(not r["correct"] and r["failed"] == 0,
           "layer probe: wrong expected value for 'shard_equal' makes the "
           "traced run incorrect")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        build()
        deadline = time.monotonic() + DEADLINE_S
        if args.self_test:
            return self_test()
        r, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    for e in r.get("errors", []):
        print(f"check failed: {e}")
    print(json.dumps({"correct": bool(r["correct"]),
                      "attempted": int(r["attempted"]),
                      "failed": int(r["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
