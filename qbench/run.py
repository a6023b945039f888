#!/usr/bin/env python3
"""Builds the qbench benchmark binary from source and runs one workload.

    python3 qbench/run.py --workload serve-direct --seed 1 \
        --seconds 10 --trace 0

Run from the root of a source checkout. The binary is built with CMake
(RelWithDebInfo) into the directory named by CARGO_TARGET_DIR, or
`.bench_build` when that is unset; the first run builds the qlearn library
and takes a minute or two, later runs rebuild only what changed. Build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. Every argument is passed on to the binary; see qbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "qbench", "-j", jobs],
    ]
    # Keep the compiler's temporary files inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            print("qbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        return 2
    sys.stdout.flush()
    command = [os.path.join(build_dir, "qbench"),
               "--golden-dir", os.path.join(ROOT, "tests", "golden")]
    return subprocess.run(command + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
