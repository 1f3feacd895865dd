#!/usr/bin/env python3
"""BENCHMARK.json and the result line loopbench prints must agree.

    test_result_format.py LOOPBENCH PLDD BENCHMARK_JSON

Checks that the metric names, units and directions in BENCHMARK.json
are exactly the catalogue loopbench prints with --list-metrics, then
runs a short team-burst run (untraced and traced) and checks that the
last stdout line has exactly the keys correct, attempted, failed and
metrics, and exactly the end-to-end (resp. per-layer) metrics, each
with its unit.
"""

import json
import os
import subprocess
import sys
import tempfile


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def main():
    loopbench, pldd, bench_json = sys.argv[1:4]
    with open(bench_json) as f:
        spec = json.load(f)

    listed = {}
    out = subprocess.check_output([loopbench, "--list-metrics"], text=True)
    for line in out.splitlines():
        name, unit, better, kind = line.split()
        listed[name] = (unit, better, kind)

    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            declared[m["name"]] = (m["unit"], m["better"], kind)
    if declared != listed:
        fail("BENCHMARK.json metrics differ from loopbench --list-metrics:"
             " only in json %s, only in loopbench %s, mismatched %s" % (
                 sorted(set(declared) - set(listed)),
                 sorted(set(listed) - set(declared)),
                 sorted(k for k in set(declared) & set(listed)
                        if declared[k] != listed[k])))
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail("bound of %s outside (0, 0.25]" % m["name"])
    names = [w["name"] for w in spec["workloads"]]
    if names != ["edit-o1", "team-burst"]:
        fail("unexpected workloads %s" % names)

    with tempfile.TemporaryDirectory() as tmp:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run_dir = os.path.join(tmp, "run%d" % trace)
            os.makedirs(run_dir)
            out = subprocess.run(
                [loopbench, "--workload", "team-burst", "--seed", "5",
                 "--seconds", "2", "--trace", str(trace), "--pldd", pldd,
                 "--state-dir", tmp],
                cwd=run_dir, stdout=subprocess.PIPE, text=True,
                timeout=170)
            if out.returncode != 0:
                fail("loopbench exited %d" % out.returncode)
            result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("result keys %s" % sorted(result))
            if result["correct"] is not True:
                fail("team-burst run reported correct=false")
            if not (isinstance(result["attempted"], int)
                    and result["attempted"] >= 1
                    and isinstance(result["failed"], int)):
                fail("attempted/failed must be whole numbers")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail("trace %d metrics/units differ from BENCHMARK.json %s"
                     % (trace, kind))
            for k, v in result["metrics"].items():
                if set(v) != {"value", "unit"} or not isinstance(
                        v["value"], (int, float)):
                    fail("metric %s is malformed: %r" % (k, v))
            if trace == 0:
                for k, v in result["metrics"].items():
                    if v["value"] <= 0:
                        fail("end-to-end metric %s is not positive" % k)
    print("ok")


if __name__ == "__main__":
    main()
