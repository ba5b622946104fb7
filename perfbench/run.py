#!/usr/bin/env python3
"""Builds and runs the serving pipeline benchmark for one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/CMakeLists.txt (which builds the library from the
checkout's sources) in Release mode under $CARGO_TARGET_DIR (default
.bench_build), builds perfbench_pipeline, and runs it. Build output goes to
stderr; perfbench_pipeline's stdout is passed through, so its last line is the result
JSON. Exits non-zero, without a result, when the build fails — for instance
in a directory that holds only the benchmark and not the library sources.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ("hot-hist", "kde-scan", "rect-2d")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = os.path.join(root, "perfbench")
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(build_root, "perfbench")
    jobs = str(os.cpu_count() or 1)
    for command in (
        ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "perfbench_pipeline", "-j", jobs],
    ):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("build failed: " + " ".join(command), file=sys.stderr)
            return 3

    scratch = os.path.join(build_root, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    command = [
        os.path.join(build, "perfbench_pipeline"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", scratch,
    ]
    process = subprocess.Popen(command)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print("benchmark timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 4
    # Keep the workload's latest trace next to the build; drop the run's
    # checkpoints.
    for name in os.listdir(scratch):
        if name.startswith("trace-"):
            kept = os.path.join(build_root, name)
            os.replace(os.path.join(scratch, name), kept)
            print("trace spans kept in " + kept, file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
