#!/usr/bin/env python3
"""Verdict tests for tools/check_engine_perf.py.

Each case runs the gate script as CI does, against a fake bench binary: a
small script that records its argv and writes a canned flip-bench-v1
document to its --json path (one document per run, so the best-of-2 rule
is observable). The cases pin, per mode, the command line, pass at the
floor, fail below it, the overhead floor when no committed row matches the
machine, the --simd skip at isa=scalar, and a missing row.

Run: python3 tools/check_engine_perf_test.py [path/to/check_engine_perf.py]
"""

import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_engine_perf.py")

HEADERS = {None: ["n", "speedup"],
           "--shards": ["n", "shards", "cores", "speedup"],
           "--simd": ["n", "cores", "isa", "speedup"]}

COMMANDS = {None: ["--n", "1024", "--trials", "8", "--threads", "8"],
            "--shards": ["--n", "100000", "--shards", "1,8", "--trials", "1"],
            "--simd": ["--n", "16384", "--trials", "2"]}


def fast(speedup, n="1024"):
    return [n, speedup]


def shard(speedup, cores="4", n="100000"):
    return [n, "8", cores, speedup]


def simd(speedup, isa="avx512", cores="4", n="16384"):
    return [n, cores, isa, speedup]


# (mode, committed rows, measured row of each of the two runs, passes)
CASES = [
    (None, [fast("2.00")], [fast("1.60"), fast("1.00")], True),  # at floor
    (None, [fast("2.00")], [fast("1.59")] * 2, False),
    (None, [fast("2.00", n="4096")], [fast("9.00")] * 2, False),  # no row
    (None, [fast("2.00")], [fast("9.00", n="4096")] * 2, False),
    ("--shards", [shard("2.00")], [shard("1.40")] * 2, True),
    ("--shards", [shard("2.00")], [shard("1.39")] * 2, False),
    # The row with the measured core count wins over the first row.
    ("--shards", [shard("5.00", cores="1"), shard("2.00")],
     [shard("1.40")] * 2, True),
    # No row for these cores: the overhead floor, not the 5.00 row.
    ("--shards", [shard("5.00", cores="1")], [shard("0.75")] * 2, True),
    ("--shards", [shard("5.00", cores="1")], [shard("0.74")] * 2, False),
    ("--shards", [shard("2.00")], [shard("9.00", n="1000")] * 2, False),
    ("--simd", [simd("2.00")], [simd("1.60")] * 2, True),
    ("--simd", [simd("2.00")], [simd("1.59")] * 2, False),
    ("--simd", [simd("3.00", cores="1"), simd("2.00")], [simd("1.60")] * 2,
     True),
    # Same ISA on other cores keeps the tolerance: 1.59 < 0.8 x 2.00.
    ("--simd", [simd("2.00", cores="1")], [simd("1.59")] * 2, False),
    # No row for this ISA: the overhead floor.
    ("--simd", [simd("5.00", isa="avx2")], [simd("0.95")] * 2, True),
    ("--simd", [simd("5.00", isa="avx2")], [simd("0.94")] * 2, False),
    ("--simd", [simd("2.00")], [simd("0.10", isa="scalar")] * 2, True),
    ("--simd", [simd("2.00")], [simd("9.00", n="1000")] * 2, False),
]

FAKE_BENCH = """#!{python}
import json, sys
plan = json.load(open({plan!r}))
with open(plan["log"], "a") as log:
    log.write(json.dumps(sys.argv[1:]) + "\\n")
with open(plan["log"]) as log:
    call = len(log.read().splitlines()) - 1
with open(sys.argv[sys.argv.index("--json") + 1], "w") as out:
    json.dump(plan["docs"][call], out)
"""


def doc(mode, rows):
    return {"schema": "flip-bench-v1", "id": "test", "claim": "",
            "tables": [{"headers": HEADERS[mode], "rows": rows,
                        "note": ""}]}


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="check_engine_perf_test_")
        self.addCleanup(shutil.rmtree, self.dir, True)

    def gate(self, mode, committed, runs):
        """Runs the gate; returns (passed, output). Leaves the bench argv
        of each run in self.argv and the kept artifact path in self.out."""
        path = lambda name: os.path.join(self.dir, name)
        open(path("argv.log"), "w").close()
        with open(path("plan.json"), "w") as f:
            json.dump({"log": path("argv.log"),
                       "docs": [doc(mode, [row]) for row in runs]}, f)
        with open(path("bench"), "w") as f:
            f.write(FAKE_BENCH.format(python=sys.executable,
                                      plan=path("plan.json")))
        os.chmod(path("bench"), stat.S_IRWXU)
        with open(path("committed.json"), "w") as f:
            json.dump(doc(mode, committed), f)
        self.out = path("out.json")
        proc = subprocess.run(
            [sys.executable, GATE, *([mode] if mode else []), path("bench"),
             path("committed.json"), self.out],
            capture_output=True, text=True)
        with open(path("argv.log")) as f:
            self.argv = [json.loads(line) for line in f]
        output = proc.stdout + proc.stderr
        self.assertNotIn("Traceback", output)  # a verdict, not a crash
        return proc.returncode == 0, output

    def test_verdicts(self):
        for mode, committed, runs, passes in CASES:
            with self.subTest(mode=mode, committed=committed, runs=runs):
                passed, output = self.gate(mode, committed, runs)
                self.assertEqual(passed, passes, output)
                command = COMMANDS[mode] + ["--json", self.out]
                self.assertEqual(self.argv[0], command)
                runs_made = 2 if passes else len(self.argv)  # best of 2
                self.assertEqual(self.argv, [command] * runs_made)

    def test_artifact_is_the_better_run(self):
        passed, output = self.gate(None, [fast("2.00")],
                                   [fast("1.00"), fast("1.70")])
        self.assertTrue(passed, output)
        with open(self.out) as f:
            self.assertEqual(json.load(f), doc(None, [fast("1.70")]))

    def test_scalar_isa_says_skipped(self):
        _, output = self.gate("--simd", [simd("2.00")],
                              [simd("0.10", isa="scalar")] * 2)
        self.assertIn("skipped", output)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1].endswith(".py"):
        GATE = os.path.abspath(sys.argv.pop(1))
    unittest.main()
