#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload scaleup_single --seed 20130520 \
        --seconds 40 --trace 0

Builds the ecoCloud libraries and the perfbench binary from source (Release
only) into .bench_build/, runs the workload in a fresh process, and prints
that process's output. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when the run
completed and every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("scaleup_single", "planet_sharded")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def git_revision(root):
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if shutil.which("git") is None:
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, bench_dir, build_dir):
    """Configure (once) and build the perfbench target. Returns the binary."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no ecoCloud sources under {root / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    binary = build_dir / "perfbench"
    if not binary.is_file():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20130520)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    out_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_root / "perfbench"
    work_dir = out_root / "work"

    try:
        binary = build(root, bench_dir, build_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        log(f"build failed: {err}")
        return 2

    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--git-rev", git_revision(root)]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        if err.stdout:
            sys.stderr.write(err.stdout if isinstance(err.stdout, str)
                             else err.stdout.decode(errors="replace"))
        return 1
    sys.stderr.write(proc.stderr)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok_shape = (set(result) == {"correct", "attempted", "failed", "metrics"}
                    and result["attempted"] >= 1)
    except (ValueError, TypeError, KeyError):
        ok_shape = False
    if not ok_shape:
        sys.stderr.write(proc.stdout)
        log(f"{args.workload} printed no result (exit code {proc.returncode})")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        log(f"{args.workload} failed its output checks "
            f"({result['failed']} of {result['attempted']})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
