#!/usr/bin/env python3
"""Builds the balign benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 15 --trace 0

The library and the benchmark binary are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout root; later runs only re-check the build. Build output goes to
standard error, so the last line of standard output is the benchmark's
result object. With --trace 1 the Chrome trace-event JSON of the traced
run is written next to the build as trace-<workload>-<seed>.json.

Exits non-zero, without a result, when the build fails (for example when
the library sources are missing), and with the benchmark's status
otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(directory):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", directory,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", directory, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(directory, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-matrix", "compile-large",
                                 "profile-free"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    directory = build_dir()
    try:
        binary = build(directory)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            directory, f"trace-{args.workload}-{args.seed}.json")]
    return subprocess.run(command + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
