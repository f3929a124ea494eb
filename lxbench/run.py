#!/usr/bin/env python3
"""Builds the lexforensica server and the benchmark, then runs one workload.

Run from the repository root:

    python3 lxbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Both builds are release builds into $CARGO_TARGET_DIR (default
.bench_build). Build output goes to stderr; the benchmark's last line on
stdout is its JSON result. Exits non-zero if a build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--bin", "lexforensica"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join("lxbench", "Cargo.toml"),
        ],
    ]
    for build in builds:
        done = subprocess.run(build, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"build failed: {' '.join(build)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "lxbench"),
        "--server",
        os.path.join(release, "lexforensica"),
        "--work",
        ".lxbench_work",
        *sys.argv[1:],
    ]
    return subprocess.run(command, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
