#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source, runs one
workload, and prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) inside the
checkout. Workloads, metrics and bounds are declared in BENCHMARK.json;
perfbench/metrics.json says which layer each metric belongs to, on which
workloads it is measured, and which end-to-end metric it should move.

Output: a stamp line with host facts (nproc, load average at start and
end, compiler, build type and flags, threads used), then the result line
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. Exit status
is 0 only when every checked output was correct; a run that cannot build
or refuses its thread count prints no result line.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {os.path.relpath(path, ROOT)}: {e}")


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures once, then (re)builds the binary; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "chem", "scf.hpp")):
        fail("library sources (src/) are missing from this checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(nproc(), 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT).returncode
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(bench, catalog, workload, trace):
    """Name -> (unit, measured here) of every metric this run must print."""
    key = "per_layer" if trace else "end_to_end"
    out = {}
    for m in bench[key]:
        entry = catalog["metrics"].get(m["name"])
        if entry is None:
            fail(f"metric {m['name']} is missing from perfbench/metrics.json")
        measured = entry.get("measured_on", list(bench_workloads(bench)))
        out[m["name"]] = (m["unit"], workload in measured)
    return out


def bench_workloads(bench):
    return [w["name"] for w in bench["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long size with the same checks")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    catalog = load_json(os.path.join(HERE, "metrics.json"))
    if args.workload not in bench_workloads(bench):
        fail(f"unknown workload {args.workload!r}", 2)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    trace = args.trace == "1"

    binary = build()
    load_start = os.getloadavg()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    load_end = os.getloadavg()
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited with {proc.returncode} and no result",
             proc.returncode or 1)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail(f"{args.workload} printed no JSON result")

    # The binary prints what it measured; a metric of a layer that does no
    # work on this workload (per metrics.json) reads 0. Anything missing,
    # extra or in the wrong unit is a benchmark error, not a result.
    metrics = report["metrics"]
    expected = expected_metrics(bench, catalog, args.workload, trace)
    for name, (unit, measured) in expected.items():
        if name not in metrics:
            if measured:
                fail(f"{args.workload} did not report {name}")
            metrics[name] = {"value": 0, "unit": unit}
        elif not measured:
            fail(f"{args.workload} reported {name}, which metrics.json "
                 "says it does not measure")
        elif metrics[name]["unit"] != unit:
            fail(f"{name} is in {metrics[name]['unit']}, "
                 f"BENCHMARK.json says {unit}")
    extra = sorted(set(metrics) - set(expected))
    if extra:
        fail(f"{args.workload} reported undeclared metrics: {extra}")

    info = report.get("info", {})
    flags = info.get("cxx_flags", "")
    optimized = "-O2" in flags or "-O3" in flags
    if not optimized:
        print(f"perfbench: WARNING: unoptimized build (flags {flags!r})",
              file=sys.stderr)
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": int(trace),
        "smoke": args.smoke, "seconds": args.seconds,
        "wall_s": time.monotonic() - started,
        "host": {
            "nproc": nproc(),
            "loadavg_start": list(load_start),
            "loadavg_end": list(load_end),
            "threads": info.get("threads"),
            "compiler": info.get("compiler"),
            "build_type": info.get("build_type"),
            "cxx_flags": flags,
            "optimized": optimized,
        },
        "info": info,
        "failures": report.get("failures", []),
    }
    print(json.dumps({"perfbench": stamp}, sort_keys=True))
    correct = bool(report["correct"]) and proc.returncode == 0
    result = {
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {k: metrics[k] for k in sorted(metrics)},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
