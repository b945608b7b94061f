#!/usr/bin/env python3
"""Build and run the pragma repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload managed_rm3d --seed 1 --seconds 15 --trace 0

The first call configures and builds perfbench/ (the pragma library from
src/, tools/trace_check and the perfbench binary) into .bench_build/; later
calls only run an incremental build.  Build output goes to stderr, so the
last line of stdout is the perfbench JSON result.  With --trace 1 the span
trace perfbench exports is validated with the unchanged trace_check tool;
a trace it rejects fails the run.  Journals, checkpoints and the trace live
in a per-process directory under .bench_scratch/ that is removed on exit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("managed_rm3d", "trace_replay", "service_burst")
# Span categories each workload's traced run must contain.
REQUIRED_CATEGORIES = {
    "managed_rm3d": "amr,core,partition,agents,io",
    "trace_replay": "core,partition,octant",
    "service_burst": "service,core,partition",
}
RUN_TIMEOUT_S = 160


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no pragma sources (src/) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    scratch = os.path.join(ROOT, ".bench_scratch", str(os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    trace_path = os.path.join(scratch, "trace.json")
    try:
        command = [os.path.join(BUILD, "perfbench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scratch", scratch]
        if args.trace:
            command += ["--trace-out", trace_path]
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
        lines = run.stdout.splitlines()
        if run.returncode not in (0, 1) or not lines:
            sys.stdout.write(run.stdout)
            sys.exit(f"perfbench: perfbench exited with {run.returncode}")
        result = json.loads(lines[-1])
        if args.trace:
            check = subprocess.run(
                [os.path.join(BUILD, "trace_check"), trace_path, "--require",
                 REQUIRED_CATEGORIES[args.workload]],
                cwd=ROOT, stdout=sys.stderr)
            if check.returncode != 0:
                print("perfbench: trace_check rejected the trace",
                      file=sys.stderr)
                result["correct"] = False
                result["failed"] += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
