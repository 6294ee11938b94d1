#!/usr/bin/env python3
"""Builds the interlag CLI and the benchmark from source, then runs one
benchmark invocation from the root of a checkout:

    python3 qoebench/run.py --workload study|tune|fleet --seed N --seconds S --trace 0|1

Build output goes to standard error; standard output is the benchmark's
own, ending with one JSON result line. Binaries land in
$CARGO_TARGET_DIR (default .bench_build).
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    release = "--release"
    builds = [
        ["cargo", "build", release, "--offline", "--locked", "--bin", "interlag"],
        ["cargo", "build", release, "--offline", "--locked",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    bin_dir = os.path.join(target, "release")
    cmd = [os.path.join(bin_dir, "qoebench"), *sys.argv[1:],
           "--interlag", os.path.join(bin_dir, "interlag")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
