#!/usr/bin/env python3
"""Builds and runs the Harmony simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: server_sweep, fleet_dp, job_stream, job_stream_contended. The first run
configures and builds perfbench/ (which compiles ../src) into the build directory named by
CARGO_TARGET_DIR, or .bench_build; later runs rebuild only what changed. Build output goes
to stderr. The benchmark's self-tests run before every measurement, and the benchmark runs
with HARMONY_SIM_THREADS removed from its environment. The last stdout line is the result
JSON; the exit code is non-zero when the build, a self-test or a correctness check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("server_sweep", "fleet_dp", "job_stream", "job_stream_contended")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def source_digest():
    """sha256 over the simulator and benchmark sources, so results name the code they ran."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    if shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=False)
    return result.stdout.strip() if result.returncode == 0 else "none"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources not found under " + ROOT, file=sys.stderr)
        return False
    commands = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.append(configure)
    commands.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for command in commands:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(command), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        return 1

    env = dict(os.environ)
    env.pop("HARMONY_SIM_THREADS", None)
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")], env=env,
                              stdout=sys.stderr, stderr=sys.stderr, timeout=60, check=False)
    if selftest.returncode != 0:
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    if args.trace:
        command += ["--span-dump", os.path.join(
            build_root, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
