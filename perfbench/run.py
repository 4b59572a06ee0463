#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `kb-server` from the repository's
own workspace and the `perfbench` harness from its package next to this
file (both in release mode, into $CARGO_TARGET_DIR, default `.bench_build`),
then runs the harness against that server. Build output goes to standard
error; the harness prints the JSON result as the last line of standard
output, and its exit code is this script's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    os.environ["CARGO_TARGET_DIR"] = target = os.path.abspath(target)
    cargo_build(os.path.join(ROOT, "Cargo.toml"),
                "-p", "sentential-serve", "--bin", "kb-server")
    cargo_build(os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--server", os.path.join(release, "kb-server")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
