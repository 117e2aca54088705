#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the tpcp
libraries and the perfbench program from source into
.bench_build/perfbench (and, for warm-replay, fills the warm profile
cache); later runs only check that the build is current. The last line
of standard output is the run's JSON result; everything the build
prints goes to standard error. The warm profile cache is named after a
hash of src/, so profiles simulated by other code are never replayed.
The exit status is 0 only when the build, every correctness gate and
the result's shape are all good.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench"
BUILD = WORK / "build"
WORKLOADS = ("cold-profile", "warm-replay", "serve-steady")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800
JOBS = str(min(4, os.cpu_count() or 1))


def step(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {cmd[0]}: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def profile_dir():
    """The warm profile cache of the sources in this checkout: named
    after a hash of every file under src/ (path and bytes)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return WORK / f"profiles-{digest.hexdigest()[:16]}"


def build(profiles):
    """Configures and builds once per checkout, then tests the helpers;
    given a profile cache directory, also fills it and removes the
    caches of other sources. Serialised by a lock so concurrent runs
    cannot interleave."""
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            if not step(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        BUILD_TIMEOUT_S):
                return False
        if not step(["cmake", "--build", str(BUILD), "-j", JOBS],
                    BUILD_TIMEOUT_S):
            return False
        if not step([str(BUILD / "perfbench_selftest")], 60):
            return False
        if profiles:
            for old in WORK.glob("profiles*"):
                if old != profiles:
                    shutil.rmtree(old, ignore_errors=True)
            return step([str(BUILD / "perfbench"), "--prep",
                         "--root", str(ROOT), "--profiles", str(profiles)],
                        BUILD_TIMEOUT_S)
    return True


def expected_metrics(trace):
    """Name -> unit of every metric this kind of run must report."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """The problems with the harness's final JSON line, if any."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got)
                       if want[n] != got[n])
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{missing}, unexpected {extra}, unit {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    profiles = profile_dir() if args.workload == "warm-replay" else None
    if not build(profiles):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT)]
    if profiles:
        cmd += ["--profiles", str(profiles)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        print(f"perfbench: {args.workload} exited with status "
              f"{proc.returncode} and no result", file=sys.stderr)
        return 1
    problems = check_result(lines[-1], args.trace == 1)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            print(f"perfbench: bad result: {p}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
