#!/usr/bin/env python3
"""Build and run the SAGe data-preparation benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds libsage plus the sage_perfbench program (Release) under
.bench_build/; later calls only re-run the incremental build. Build
output goes to stderr so that the last line of stdout is the program's
JSON result (with --workload all, each workload prints its own report
and result line in turn). Workloads, metrics and their definitions are
documented in perfbench/METRICS.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("prep-dna", "restore", "serve-hot", "serve-cold")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure (once) and build the program; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    project_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(project_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", project_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", project_dir, "--target",
                      "sage_perfbench", "-j", jobs])
        for step in steps:
            result = subprocess.run(step, cwd=root, stdout=sys.stderr,
                                    stderr=sys.stderr)
            if result.returncode != 0:
                log(f"build step failed ({result.returncode}): "
                    f"{' '.join(step)}")
                return None
    binary = os.path.join(project_dir, "sage_perfbench")
    return binary if os.access(binary, os.X_OK) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        return 1

    status = 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        command = [binary, "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--work-dir", os.path.join(build_dir, "work"),
                   "--trace-dir", os.path.join(build_dir, "traces")]
        try:
            # sage_perfbench writes its human-readable report and,
            # last, the JSON result line straight to our stdout.
            result = subprocess.run(command, cwd=root,
                                    timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"{workload} exceeded {RUN_TIMEOUT_S}s and was killed")
            return 1
        status = status or result.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
