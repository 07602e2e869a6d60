#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload discover --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 \
        --trace 1 --rate 60      # capacity sweep, not a benchmark run

Run from the root of a source checkout. The harness binary is built from
source into .bench_build/ on first use (Release, default options). The last
line of stdout is the result JSON; build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SCRATCH = os.path.join(BUILD_DIR, "run")
RUN_TIMEOUT_S = 170
WORKLOADS = ("discover", "wide", "serve")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    sys.stderr.write("run.py: %s\n" % message)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no TYCOS sources next to perfbench/; run from a full checkout")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: %s" % " ".join(cmd))


def provenance_id():
    """Git commit when available, plus a digest of the library sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return "%s+src:%s" % (commit, digest.hexdigest()[:16])


def metric_units(trace):
    """BENCHMARK.json's metrics of one mode: name -> unit, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def to_result(line, trace):
    """The harness's last line with units attached from BENCHMARK.json.

    Returns (result, problems). The harness prints bare values; every name
    must be in BENCHMARK.json. An untraced run must report every end-to-end
    metric; a traced run reports 0 for a layer its workload never reaches.
    """
    try:
        raw = json.loads(line)
    except ValueError:
        return None, ["last line is not JSON"]
    if not isinstance(raw, dict) or set(raw) != RESULT_KEYS:
        return None, ["result keys are not %s" % sorted(RESULT_KEYS)]
    units = metric_units(trace)
    problems = []
    extra = sorted(set(raw["metrics"]) - set(units))
    if extra:
        problems.append("metrics not in BENCHMARK.json: %s" % extra)
    missing = sorted(set(units) - set(raw["metrics"]))
    if missing and not trace:
        problems.append("metrics not measured: %s" % missing)
    if not isinstance(raw["attempted"], int) or raw["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    raw["metrics"] = {name: {"value": raw["metrics"].get(name, 0),
                             "unit": unit}
                      for name, unit in units.items()}
    return raw, problems


def run_harness(args, extra=()):
    os.makedirs(SCRATCH, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", SCRATCH, "--commit", provenance_id()] + list(extra)
    if getattr(args, "rate", None):
        cmd += ["--rate", str(args.rate)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S, 1)
    return proc.returncode, proc.stdout.splitlines()


def run(args):
    build()
    code, lines = run_harness(args)
    if not lines:
        fail("harness printed nothing (exit %d)" % code, code or 1)
    result, problems = to_result(lines[-1], args.trace)
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if problems:
        fail("; ".join(problems), 1)
    sys.stdout.write(json.dumps(result) + "\n")
    return code


def selftest():
    """The correctness gate must fire on a corrupted result."""
    build()
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=2,
                                      trace=trace)
            code, lines = run_harness(args, ["--corrupt"])
            fired = (code != 0 and bool(lines)
                     and json.loads(lines[-1]).get("correct") is False)
            sys.stderr.write("selftest %s trace=%d: gate %s (exit %d)\n" % (
                workload, trace, "fired" if fired else "DID NOT FIRE", code))
            failures += not fired
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--rate", type=float,
                        help="serve: arrivals per second instead of the "
                             "workload's own (capacity sweeps only)")
    parser.add_argument("--selftest", action="store_true",
                        help="check that the correctness gate fires")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
