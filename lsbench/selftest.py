#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 lsbench/selftest.py

Runs each streaming workload twice for a short time: once clean, where the
result must be correct, and once with --inject-fault, which corrupts one
emitted payload before it is verified, where the run must exit non-zero
and report "correct": false with the mismatch counted as failed. Exits 0
when every expectation holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, fault: bool):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", "7", "--seconds", "2", "--trace", "0"]
    if fault:
        argv.append("--inject-fault")
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    failures = []
    for workload in ("stream1p4x4", "stream20"):
        code, res = run(workload, fault=False)
        if code != 0 or res is None or not res["correct"] or res["failed"]:
            failures.append(f"{workload}: clean run not correct "
                            f"(exit {code}, result {res})")
        code, res = run(workload, fault=True)
        if code == 0 or res is None or res["correct"] or res["failed"] < 1:
            failures.append(f"{workload}: corrupted payload not caught "
                            f"(exit {code}, result {res})")
    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
