#!/usr/bin/env python3
"""Build and run the LScatter benchmark (see README.md in this directory).

    python3 lsbench/run.py --workload stream20 --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds an
optimised (RelWithDebInfo) binary from ../src into $CARGO_TARGET_DIR/lsbench
(default .bench_build/lsbench); later runs rebuild only what changed. Build
output goes to stderr; the benchmark's own output, ending with the one-line
JSON result, goes to stdout.

setup_s is a cold figure: the time from main() entry to the first timed
operation of a fresh process. An untraced run first starts the binary
with --setup-only COLD_SETUPS[workload] - 1 times, each a process of its
own, and passes their set-up times to the measuring run, which reports the
median of them and its own.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Cold set-ups per untraced run: about 0.5-0.7 s each for the streams,
# about 50 ms for the sweep, whose single figure varies more.
COLD_SETUPS = {"stream20": 5, "stream1p4x4": 5, "sweep20": 15}
WORKLOADS = tuple(COLD_SETUPS)


def build() -> str:
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources src/ not found beside lsbench/")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "lsbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "lsbench", "-j", "3"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lsbench")


def cold_setup(binary: str, workload: str, seed: int) -> float:
    p = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=60)
    result = json.loads(p.stdout.splitlines()[-1])
    return result["metrics"]["setup_s"]["value"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one emitted payload; the run must fail")
    args = ap.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.inject_fault:
        argv.append("--inject-fault")
    elif args.trace == 0:
        try:
            setups = [cold_setup(binary, args.workload, args.seed)
                      for _ in range(COLD_SETUPS[args.workload] - 1)]
        except (OSError, ValueError, KeyError, IndexError,
                subprocess.SubprocessError) as e:
            print(f"run.py: set-up-only run failed: {e}", file=sys.stderr)
            return 1
        if setups:
            argv += ["--cold-setups", ",".join(repr(s) for s in setups)]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, argv)


if __name__ == "__main__":
    sys.exit(main())
