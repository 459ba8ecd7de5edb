#!/usr/bin/env python3
"""Build and run the OmegaCount benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only check that the build is up to date.  Build output goes to stderr; the
last line of stdout is the benchmark's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_mix", "dnf_blowup", "omegad_mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Relative to the working directory where possible: the omegad socket
    # lives here and AF_UNIX paths are limited to about 100 bytes.
    path = os.path.join(base, "perfbench")
    if os.path.isabs(path):
        rel = os.path.relpath(path)
        if len(rel) < len(path):
            path = rel
    return path


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {cmd[0]}: {err}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, BUILD_TIMEOUT_S):
            shutil.rmtree(out, ignore_errors=True)
            return None
    if not run_logged(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(out, "omegabench")


def run_binary(binary, args, out):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    cmd = [binary] + args + ["--workdir", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def selftest(binary, out):
    """Determinism and traced-pipeline agreement (in the binary), then a
    short traced run of every workload: each answer must check, and every
    count metric must read nonzero on at least one workload."""
    code, stdout = run_binary(binary, ["--selftest"], out)
    sys.stdout.write(stdout)
    if code != 0:
        return 1
    nonzero = {}
    for workload in WORKLOADS:
        code, stdout = run_binary(
            binary, ["--workload", workload, "--seed", "3", "--seconds", "2",
                     "--trace", "1"], out)
        if code != 0:
            return 1
        result = json.loads(stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"perfbench selftest: {workload}: wrong answers",
                  file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            if metric["unit"].startswith("count"):
                seen = nonzero.get(name, False)
                nonzero[name] = seen or metric["value"] != 0
    dead = sorted(name for name, seen in nonzero.items() if not seen)
    if dead:
        print("perfbench selftest: count metrics that read 0 on every "
              "workload: " + ", ".join(dead), file=sys.stderr)
        return 1
    print("perfbench selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return selftest(binary, out)
    code, stdout = run_binary(
        binary, ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", args.trace], out)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
