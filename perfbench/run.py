#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the project's libraries
plus the pgsd_perfbench driver) into $CARGO_TARGET_DIR, or .bench_build/
when that is unset; later runs only re-check the build. The benchmark's
own stdout is passed through, so its last line is the JSON result. Build
logs go to stderr. A traced run (--trace 1) also writes Chrome
trace-event JSON to <build dir>/traces/.

--corrupt KIND (checksum, survivors or digest) is forwarded to the
driver; the benchmark's tests use it to see the output checks fire.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch_verified", "serve_mixed", "fig4_runtime", "gadget_tables")
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out: Path) -> Path:
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: project sources (src/) not found next to "
                 "perfbench/; nothing to build")
    out.mkdir(parents=True, exist_ok=True)
    # Concurrent first runs must not race on one build tree.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "--target",
                      "pgsd_perfbench", "-j", BUILD_JOBS])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "pgsd_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--corrupt", choices=("checksum", "survivors", "digest"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")

    out = build_dir()
    exe = build(out)
    work = out / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work)]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-file",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        sys.stdout.flush()
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
