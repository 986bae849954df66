#!/usr/bin/env python3
"""MARLin benchmark entry point.

Run from the repository root:

    python3 marlbench/run.py --workload lockstep-pp6 --seed 1 \\
        --seconds 10 --trace 0
    python3 marlbench/run.py --self-test

Builds the benchmark package (marlbench/CMakeLists.txt, which compiles
the library from ../src) into $CARGO_TARGET_DIR (default .bench_build)
under the repository root, runs one workload in a child process and
relays its output. The last stdout line is the run's JSON result;
build logs go to stderr. Exit status: the child's (0 = every output
check passed), or 2 when the build fails, in which case no result is
printed.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lockstep-pp6", "async-cn3", "serve-cn3", "replay-1m")
# The child's own limit; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "marlbench")


def build(bdir):
    """Configure once, then build; False (logged) on any failure."""
    log = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        os.makedirs(bdir, exist_ok=True)
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            # A half-configured tree would be taken as configured next
            # time; start over instead.
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", bdir, "-j", jobs,
           "--target", "marlbench", "marlbench_selftest"]
    return subprocess.call(cmd, stdout=log, stderr=log) == 0


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def validate(line, trace):
    """Problems with the result line, as a list of messages."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    names = declared_metrics(trace)
    if names is not None and sorted(result["metrics"]) != sorted(names):
        problems.append("metrics %s differ from BENCHMARK.json %s"
                        % (sorted(result["metrics"]), sorted(names)))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness self-test")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        print("marlbench: build failed (see above)", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.call([os.path.join(bdir, "marlbench_selftest")])

    work = os.path.join(bdir, "run")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(bdir, "marlbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop_child(signum, _frame):
        # Never leave the workload running behind a killed runner.
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        out, _ = child.communicate()
        sys.stdout.write(out)
        print("marlbench: %s timed out after %d s"
              % (args.workload, CHILD_TIMEOUT_S), file=sys.stderr)
        return 1
    finally:
        # The replay cold tier removes itself; this covers a child that
        # died before its destructors ran.
        for leftover in glob.glob(
                os.path.join(work, "replay-%d-*" % child.pid)):
            shutil.rmtree(leftover, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if child.returncode == 2:
        return 2
    lines = out.strip().splitlines()
    problems = validate(lines[-1], args.trace == "1") if lines else [
        "no output"]
    for p in problems:
        print("marlbench: " + p, file=sys.stderr)
    if problems:
        return 1
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
