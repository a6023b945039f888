#!/usr/bin/env python3
"""The benchmark's own test: the checker must catch a wrong answer.

    python3 qbench/selftest.py

Runs short serve-direct and learn-large runs three ways: clean (they must
pass with zero failures), with one golden byte corrupted (--inject
golden-byte), and with one oracle label flipped (--inject oracle-flip).
A broken run must exit nonzero, report "correct": false and print
ops_failed_frac > 0. A benchmark that silently stops validating fails
here. Exits nonzero if any expectation fails.
"""
import json
import os
import re
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

CASES = [
    # (workload, inject, expect_failures)
    ("serve-direct", None, False),
    ("learn-large", None, False),
    ("serve-direct", "golden-byte", True),
    ("learn-large", "oracle-flip", True),
]


def run(workload, inject):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    frac = None
    for line in lines:
        match = re.match(r"\s*ops_failed_frac\s+(\S+)", line)
        if match:
            frac = float(match.group(1))
    return done.returncode, result, frac


def main():
    failures = 0
    for workload, inject, expect_failures in CASES:
        code, result, frac = run(workload, inject)
        label = "%s %s" % (workload, inject or "clean")
        if result is None or frac is None:
            ok = False
        elif expect_failures:
            ok = (code != 0 and not result["correct"] and result["failed"] > 0
                  and frac > 0)
        else:
            ok = (code == 0 and result["correct"] and result["failed"] == 0
                  and frac == 0)
        print("%-32s exit=%s failed=%s ops_failed_frac=%s  %s" % (
            label, code, result and result["failed"], frac,
            "ok" if ok else "FAIL"))
        failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
