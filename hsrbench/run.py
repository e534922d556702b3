#!/usr/bin/env python3
"""Build and run the hsrbench benchmark from the root of a source checkout.

    python3 hsrbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

Configures and builds hsrbench/ (a CMake project that compiles the library
from src/) into $CARGO_TARGET_DIR/hsrbench, default .bench_build/hsrbench,
then runs one workload. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the spans are
written to <build>/traces/<workload>-seed<seed>.trace.json.

Exit status: the benchmark's (0 = every output check passed, 1 = some
failed); any other failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-mixed", "dem-stream", "terrain-solve")
RUN_TIMEOUT_S = 170


def fail(msg, code=3):
    print(f"hsrbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    src = os.path.join(os.path.dirname(BENCH_DIR), "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail(f"library sources not found ({src}): run from a full source checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "hsrbench")


def expected_metrics(traced):
    """Metric names BENCHMARK.json declares for this kind of run, or None."""
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "hsrbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    work_dir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        proc = subprocess.run(cmd + ["--work-dir", work_dir], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the benchmark's last line is not a JSON result")
    want = expected_metrics(bool(args.trace))
    if want is not None and list(result["metrics"]) != want:
        fail("reported metrics do not match BENCHMARK.json")
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
