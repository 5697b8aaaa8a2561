#!/usr/bin/env python3
"""Builds and runs the request-level benchmark.

Usage, from the repository root:

    python3 reqbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny] [--corrupt-oracle]

The first run configures and builds reqbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/reqbench, or .bench_build/reqbench when
the variable is unset; later runs only re-check the build. A traced run
also writes its spans to <build dir>/traces/. The program's output is
passed through; its last line is one JSON object with the keys correct,
attempted, failed and metrics. See reqbench/README.md.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("reqbench: " + message, file=sys.stderr)
    return 1


def build(build_dir):
    """Configures once, then brings the build up to date."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "reqbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                return False
    return True


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        return fail("the library sources (src/) are missing beside reqbench/")
    if shutil.which("cmake") is None:
        return fail("cmake is not installed")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "reqbench")
    if not build(build_dir):
        return fail("build failed (log: %s)" % os.path.join(build_dir, "build.log"))

    command = [os.path.join(build_dir, "reqbench")] + args
    if option(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.spans.jsonl" % (option(args, "--workload"),
                                          option(args, "--seed"))
        command += ["--trace-out", os.path.join(traces, name)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("malformed result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
