"""Quick self-check of the benchmark, every check on.

Run from the repository root: ``python3 perfbench/selfcheck.py``.  It
runs the reference tests and one short untraced and one short traced
run of each workload; each run must exit 0 with ``correct: true``.
Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest

WORKLOADS = ("job-pld", "serve-mixed", "update-rescore")


def run_benchmark(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    problems = []
    tests = unittest.defaultTestLoader.loadTestsFromName("check_references")
    if not unittest.TextTestRunner(verbosity=1).run(tests).wasSuccessful():
        problems.append("reference tests failed")
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            done = run_benchmark(
                "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", trace,
            )
            last = done.stdout.strip().splitlines()[-1:] or [""]
            try:
                result = json.loads(last[0])
            except json.JSONDecodeError:
                result = {}
            ok = done.returncode == 0 and result.get("correct") is True
            print(f"{workload} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} {last[0][:160]}")
            if not ok:
                problems.append(f"{workload} trace={trace}: "
                                + done.stderr[-2000:])
    for problem in problems:
        print("problem:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
