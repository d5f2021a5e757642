#!/usr/bin/env python3
"""The benchmark's own tests, at the seconds-long smoke size.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, in both modes: run.py must exit 0
with a correct result and exactly the declared metrics. The traced run is
made twice with one seed, and its exact counts must repeat bit for bit.
Finally, a copy of the benchmark without the library sources must fail
without printing a result. Exits nonzero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = {"chem.quartets", "chem.prim_quartets", "scf.iterations",
         "net.messages"}
EXACT_PREFIX = "sim.events."


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)


def result_of(proc, what):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {what}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"FAIL {what}: {lines[-2]}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{w} trace={trace}"
            result = result_of(run(w, trace), what)
            names = sorted(m["name"] for m in bench[key])
            if sorted(result["metrics"]) != names:
                sys.exit(f"FAIL {what}: metric names differ from BENCHMARK.json")
            if trace == 1:
                again = result_of(run(w, trace), what + " (repeat)")
                for name, m in result["metrics"].items():
                    exact = name in EXACT or name.startswith(EXACT_PREFIX)
                    if exact and m["value"] != again["metrics"][name]["value"]:
                        sys.exit(f"FAIL {what}: {name} did not repeat")
            print(f"ok {what}: {result['attempted']} operations checked")

    stripped = os.path.join(ROOT, ".bench_build", "smoke_stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], capture_output=True, text=True, cwd=stripped,
        env=env, timeout=180)
    shutil.rmtree(stripped, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("FAIL: a checkout without src/ did not fail cleanly")
    print("ok: a checkout without src/ fails without a result")
    print("PASS")


if __name__ == "__main__":
    main()
