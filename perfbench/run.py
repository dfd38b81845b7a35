#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Builds the `perfbench` binary and the `nocomm-shard` worker in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
benchmark with the given arguments. Build output goes to stderr; the
last line of stdout is the benchmark's JSON result. The exit code is
the build's on a failed build, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "-p", "perfbench", "-p", "orchestrator", "--bins",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    scratch = os.path.join(target, "perfbench-scratch", str(os.getpid()))
    return subprocess.run([binary, *sys.argv[1:], "--scratch", scratch], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
