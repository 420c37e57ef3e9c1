#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n>
                             [--seconds <s>] [--trace <0|1>]

Run from the repository root. The first call configures and builds
perfbench (Release) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only rebuild what changed. Build output and the
processes' own reports go to stderr; stdout gets the combined metric
table and, as its last line, the JSON result.

A --trace 0 run is split into processes that each measure for a
PROCESSES-th of --seconds (at the default 25 s, one repetition of any
workload), started one after another until --seconds have passed (at
least MIN_PROCESSES). Each metric is the median of the processes'
values: host speed differs more between processes than between
repetitions inside one, so a run samples as many processes as it can.
Every process must print the same output digests. The first one also
evaluates the Fig. 13 accuracy metrics. A --trace 1 run is one process,
whose per-layer split comes from one traced repetition and must add up.

`--workload all` runs serve_overload, serve_stream and infer_zoo in
turn (each in processes of its own, so peak RSS is per workload) and
ends with one JSON line whose metrics are keyed <workload>.<metric>.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["serve_overload", "serve_stream", "infer_zoo"]
PROCESSES = 25
MIN_PROCESSES = 3
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the library sources (CMakeLists.txt, src/) "
                 "are missing next to perfbench/")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return out / "perfbench"


def run_process(binary, args):
    """Run one perfbench process; return its stdout lines. Its output
    goes to stderr; a failing process ends the run with its code."""
    done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          text=True)
    sys.stderr.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(done.returncode or 1)
    return lines


def measure(binary, workload, seed, seconds, trace):
    """One workload's result: {"correct", "attempted", "failed",
    "metrics"}."""
    args = ["--workload", workload, "--seed", seed]
    if trace:
        lines = run_process(binary, args + ["--seconds", str(seconds),
                                            "--trace", "1"])
        return json.loads(lines[-1])

    results, digests = [], []
    start = time.monotonic()
    while len(results) < MIN_PROCESSES or time.monotonic() - start < seconds:
        fig13 = "0" if results else "1"
        lines = run_process(binary, args + [
            "--seconds", str(seconds / PROCESSES), "--trace", "0",
            "--fig13", fig13])
        results.append(json.loads(lines[-1]))
        digests.append([l for l in lines if l.startswith("digest-line ")])

    # Outputs must not depend on the process either.
    operations = len(digests[0][0].split()[-1].split(",")) if digests[0] else 1
    mismatched = sum(1 for d in digests if d != digests[0])
    combined = {
        "correct": all(r["correct"] for r in results) and mismatched == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results) + mismatched * operations,
        "metrics": {},
    }
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        combined["metrics"][name] = {"value": statistics.median(values),
                                     "unit": metric["unit"]}
    print(f"{workload}: {len(results)} processes, host_rps per process: "
          + " ".join(f"{r['metrics']['host_rps']['value']:.6g}"
                     for r in results))
    return combined


def main(argv):
    parser = argparse.ArgumentParser(allow_abbrev=False,
                                     description="perfbench runner")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    opt = parser.parse_args(argv)
    if not 0 < opt.seconds <= 3600:
        parser.error("--seconds must be in (0, 3600]")

    binary = build()
    workloads = WORKLOADS if opt.workload == "all" else [opt.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = measure(binary, workload, opt.seed, opt.seconds,
                         opt.trace == "1")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = workload + "." if opt.workload == "all" else ""
        for name, metric in result["metrics"].items():
            combined["metrics"][prefix + name] = metric
    for name, metric in combined["metrics"].items():
        print(f"{name:44s} {metric['value']:>24.17g} {metric['unit']}")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
