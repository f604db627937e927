#!/usr/bin/env python3
"""Run one workload of the Pia benchmark and print its result.

    python3 piabench/run.py --workload wubbleu_remote --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first call builds the simulator's
libraries and the pia_bench program in Release mode under .bench_build/
(CMake, from source).  pia_bench's record is checked and stamped with the
host (nproc, build type, compiler, source digest, git sha when the tree is a
git checkout), printed on a `record:` line, and followed by the result as the
last line of standard output:

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics.  Exits non-zero without a result when the sources, the
build or the run fail, or when the build is not a Release build.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "piabench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "piabench")
BINARY = os.path.join(BUILD_DIR, "pia_bench")
RUN_LIMIT_S = 170  # a run must end well inside 180 s


def fail(message):
    print(f"piabench: {message}", file=sys.stderr)
    sys.exit(1)


def checkout_env():
    """The environment for the build and the run: temporary files stay in
    the build tree, and no PIA_* knob (tracing, transport overrides) changes
    what is measured."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIA_")}
    env["TMPDIR"] = tmp
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Pia sources next to piabench/ (expected src/CMakeLists.txt)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, env=checkout_env(),
                          stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_digest():
    """SHA-256 over every file of the simulator and the benchmark."""
    digest = hashlib.sha256()
    for top in ("src", "piabench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    """HEAD's sha when ROOT itself is the top of a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.samefile(lines[0], ROOT) else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=checkout_env(),
                              capture_output=True,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_LIMIT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    record = json.loads(lines[-1])

    if record["build_type"] != "Release" or not record["ndebug"]:
        fail(f"refusing a {record['build_type']} record: rebuild in Release")

    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    if set(record["metrics"]) != set(units):
        fail(f"pia_bench metrics {sorted(record['metrics'])} != {sorted(units)}")

    attempted, failed = record["attempted"], record["failed"]
    correct = bool(record["correct"]) and failed == 0 and attempted > 0
    stamp = {
        "nproc": os.cpu_count(),
        "build_type": record["build_type"],
        "compiler": record["compiler"],
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sessions": record["sessions"],
        "wall_s": round(time.monotonic() - started, 3),
        "fail_frac": failed / attempted if attempted else 1.0,
        "checks": record["checks"],
        "host": record["host"],
    }
    print("record: " + json.dumps(stamp, sort_keys=True))
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in record["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
