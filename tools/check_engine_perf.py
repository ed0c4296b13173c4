#!/usr/bin/env python3
"""Engine perf gates: fast-path, sharded-speedup, and SIMD-kernel points.

Usage:
  check_engine_perf.py <bench_engine_perf-binary> <committed-json> <out-json>
  check_engine_perf.py --shards <bench_shards-binary> <committed-json> <out-json>
  check_engine_perf.py --simd <bench_simd-binary> <committed-json> <out-json>

Every mode runs a CI-sized bench twice, keeps the better speedup (a single
short sample on a shared runner can eat a scheduling stall), and gates it
against the committed flip-bench-v1 point. The speedup RATIO is gated, not
absolute wall-clock, so slower CI machines don't trip it. The GATES table
below holds each mode's command line, the row it reads, and its bounds:

Default mode: the engine A/B (n=1024, 8 trials, 8 threads); the batch/
classic speedup must stay >= 0.8x the committed
bench/results/BENCH_engine_perf.json point, which must exist.

--shards: the single-trial shard grid (n=100000, shards 1 and 8), gating
the 8-shard point of bench/results/BENCH_shards.json. Shard speedups
depend on the measuring machine's cores, so the gate is hardware-aware:

  * committed row with the SAME core count exists -> measured speedup must
    stay >= 0.7x the committed one (wider than the fast-path tolerance
    because the CI-sized shard ratio is a cache-locality effect and
    noisier);
  * otherwise -> overhead floor: 8 shards may not be more than 25% SLOWER
    than 1 (speedup >= 0.75). Sharding is allowed to be useless on a box
    without the cores to feed it, but never expensive.

--simd: the scalar-vs-vector kernel A/B (single-trial broadcast, n=16384)
from a FLIP_SIMD=ON build, gated against bench/results/BENCH_simd.json:

  * measured isa == "scalar" (FLIP_SIMD=OFF binary, or a CPU without any
    compiled vector set) -> nothing to gate; pass with a notice. The
    exactness tests still ran; only the speedup claim is unmeasurable.
  * committed row with the SAME isa exists (cores-matching row preferred)
    -> measured speedup must stay >= 0.8x the committed one;
  * otherwise -> overhead floor: the vector kernels may be useless on this
    machine but never expensive (speedup >= 0.95).

Shared by ci.sh and ci.yml so the two CI paths cannot drift; its verdicts
are pinned by tools/check_engine_perf_test.py. Methodology:
docs/PERFORMANCE.md.
"""

import json
import subprocess
import sys
from collections import namedtuple

GATE_N = 1024
RUNS = 2
TOLERANCE = 0.8  # >20% regression fails

SHARD_GATE_N = 100000
SHARD_GATE_SHARDS = 8
SHARD_TOLERANCE = 0.7
SHARD_OVERHEAD_FLOOR = 0.75  # 8 shards may not be >25% slower than 1

SIMD_GATE_N = 16384
SIMD_TOLERANCE = 0.8  # same ISA: >20% regression fails
SIMD_OVERHEAD_FLOOR = 0.95  # unknown ISA: SIMD may not be >5% slower

# One row per mode. `key` picks the gated row; a committed row counts as
# this machine's point only if its `match` columns equal the measured
# row's, and rows whose `prefer` columns also match win. `floor` is the
# overhead floor when no committed row matches (None: one must exist).
Gate = namedtuple("Gate", "label args key match prefer tolerance floor")
GATES = {
    None: Gate("fast-path",
               ["--n", str(GATE_N), "--trials", "8", "--threads", "8"],
               {"n": GATE_N}, (), (), TOLERANCE, None),
    "--shards": Gate("sharded",
                     ["--n", str(SHARD_GATE_N), "--shards",
                      f"1,{SHARD_GATE_SHARDS}", "--trials", "1"],
                     {"n": SHARD_GATE_N, "shards": SHARD_GATE_SHARDS},
                     ("cores",), (), SHARD_TOLERANCE, SHARD_OVERHEAD_FLOOR),
    "--simd": Gate("simd", ["--n", str(SIMD_GATE_N), "--trials", "2"],
                   {"n": SIMD_GATE_N}, ("isa",), ("cores",),
                   SIMD_TOLERANCE, SIMD_OVERHEAD_FLOOR),
}


def rows_from(path, key):
    """The rows of a flip-bench-v1 document whose `key` columns hold the
    given values, in document order, as {header: cell} dicts."""
    with open(path) as f:
        doc = json.load(f)
    rows = [dict(zip(table["headers"], cells))
            for table in doc["tables"] for cells in table["rows"]]
    return [row for row in rows
            if all(row.get(col) == str(value) for col, value in key.items())]


def measured_row(path, gate):
    rows = rows_from(path, gate.key)
    if not rows:
        raise SystemExit(f"{path}: no {gate.key} row")
    return rows[0]


def committed_row(path, gate, measured):
    rows = [row for row in rows_from(path, gate.key)
            if all(row[col] == measured[col] for col in gate.match)]
    preferred = [row for row in rows
                 if all(row[col] == measured[col] for col in gate.prefer)]
    return (preferred or rows or [None])[0]


def best_of(cmd, out_path, extract):
    best = None
    best_report = None
    for _ in range(RUNS):
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        measured = extract(out_path)
        if best is None or measured > best:
            best = measured
            with open(out_path) as f:
                best_report = f.read()
    # Keep the run the gate decision is based on as the artifact, so the
    # uploaded JSON can never contradict the printed verdict.
    with open(out_path, "w") as f:
        f.write(best_report)
    return best


def run_gate(gate, bench, committed_path, out_path):
    best = best_of([bench, *gate.args, "--json", out_path], out_path,
                   lambda p: float(measured_row(p, gate)["speedup"]))
    measured = measured_row(out_path, gate)
    machine = ", ".join(f"{col}={measured[col]}"
                        for col in gate.match + gate.prefer)
    if measured.get("isa") == "scalar":
        print(f"{gate.label} gate skipped: no vector kernel set in this "
              "build/machine (isa=scalar, speedup is definitionally 1)")
        return

    committed = committed_row(committed_path, gate, measured)
    if committed is not None:
        floor = gate.tolerance * float(committed["speedup"])
        where = ", ".join(f"{col}={committed[col]}"
                          for col in gate.match + gate.prefer)
        basis = (f"committed {committed['speedup']}x"
                 f"{' for ' + where if where else ''}, "
                 f"floor {gate.tolerance} x committed = {floor:.2f}x")
    elif gate.floor is not None:
        floor = gate.floor
        basis = (f"no committed point for {machine}; "
                 f"overhead floor {floor:.2f}x")
    else:
        raise SystemExit(f"{committed_path}: no {gate.key} row")
    if best < floor:
        raise SystemExit(f"{gate.label} regression: speedup {best:.2f} fell "
                         f"below {floor:.2f} ({basis})")
    print(f"{gate.label} speedup ok: {best:.2f}x"
          f"{' on ' + machine if machine else ''} ({basis})")


def main():
    args = sys.argv[1:]
    mode = args.pop(0) if args and args[0] in GATES else None
    if len(args) != 3:
        raise SystemExit(__doc__)
    run_gate(GATES[mode], *args)


if __name__ == "__main__":
    main()
