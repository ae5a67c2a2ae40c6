#!/usr/bin/env python3
"""Build and run the RiF host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload drive_read_retry --seed 1 \
        --seconds 20 --trace 0

builds the benchmark (the rif libraries from src/ plus perfbench/driver)
into .bench_build/ when needed, then runs one workload and passes its
output through; the last line is the JSON result. Build output goes to
standard error. Without --seed the default seed from seeds.json is used.
BENCHMARK.json is the one catalogue of metric names and units: with
--trace 1 the per-layer metrics a workload does not exercise are added
as 0, and a metric the catalogue does not name, or names with another
unit, fails the run (exit code 4, no result).

    python3 perfbench/run.py --self-check [--repeats 5] [--workload NAME]

runs each workload (or one) once per seed, prints the median and
quartiles of every end-to-end metric, flags any metric whose spread
(interquartile range over median) exceeds its bound in BENCHMARK.json,
and checks that a repeated seed reproduces the same output digest. It
exits non-zero on a failed check, a changed digest or a flagged spread.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
SPANS = ROOT / ".bench_out"
WORKLOADS = ["drive_read_retry", "fleet_mixed_open", "ldpc_montecarlo"]


def build():
    """Configure once, then build incrementally; False on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return BINARY.exists()


def seeds():
    with open(HERE / "seeds.json") as f:
        return json.load(f)


def catalogue(trace):
    """{name: unit} of the metrics a --trace 0|1 run reports."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def complete(result, trace):
    """Check the binary's metrics against the catalogue and add the
    per-layer ones it did not measure as 0; None on a mismatch."""
    names = catalogue(trace)
    metrics = result["metrics"]
    for name, m in metrics.items():
        if names.get(name) != m["unit"]:
            print(f"perfbench: metric {name} [{m['unit']}] is not in "
                  "BENCHMARK.json with that unit", file=sys.stderr)
            return None
    for name, unit in names.items():
        if name not in metrics:
            if not trace:
                print(f"perfbench: end-to-end metric {name} missing",
                      file=sys.stderr)
                return None
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in names}
    return result


def run_once(workload, seed, seconds):
    """Run one workload untraced; return (result JSON, digest) or None."""
    proc = subprocess.run(
        [str(BINARY), "--spans-dir", str(SPANS), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        print(f"{workload} seed {seed}: exit code {proc.returncode}")
        return None
    digest = re.search(r"^digest .*: (\w+)$", proc.stdout, re.M).group(1)
    return json.loads(proc.stdout.strip().splitlines()[-1]), digest


def self_check(workloads, repeats, seconds):
    with open(ROOT / "BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    first = seeds()["default"]
    ok = True
    for w in workloads:
        values, digests = {}, []
        for s in range(first, first + repeats):
            got = run_once(w, s, seconds)
            if got is None:
                return False
            result, digest = got
            digests.append(digest)
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {repeats} seeds from {first}, {seconds} s each")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if spread > bounds[name]:
                flag = "  SPREAD EXCEEDS BOUND"
                ok = False
            print(f"  {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.3f} (bound {bounds[name]}){flag}")
        again = run_once(w, first, seconds)
        same = again is not None and again[1] == digests[0]
        ok = ok and same
        print(f"  seed {first} run again: digest "
              f"{'matches' if same else 'DIFFERS'}")
    return ok


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--repeats", type=int, default=5,
                        help="seeds per workload in --self-check (>= 2)")
    known, rest = parser.parse_known_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    if known.self_check:
        names = WORKLOADS
        if "--workload" in rest:
            names = [rest[rest.index("--workload") + 1]]
        with open(ROOT / "BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]
        if "--seconds" in rest:
            seconds = rest[rest.index("--seconds") + 1]
        return 0 if self_check(names, known.repeats, seconds) else 1

    if "--seed" not in rest:
        rest += ["--seed", str(seeds()["default"])]
    trace = "--trace" in rest and rest[rest.index("--trace") + 1] != "0"
    proc = subprocess.run([str(BINARY), "--spans-dir", str(SPANS), *rest],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    result = complete(json.loads(lines[-1]), trace)
    if result is None:
        return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
