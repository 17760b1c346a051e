#!/usr/bin/env python3
"""Builds and runs the JXP benchmark.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (the repository's libraries plus the jxp_perfbench binary) in
$CARGO_TARGET_DIR, or .bench_build when it is unset; later runs only rebuild
what changed. Build output and the binary's progress notes go to standard
error. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metric names and units are checked against BENCHMARK.json before the
line is printed; on any build, run or check failure nothing is printed and
the exit code is not 0. Traced runs (--trace 1) also write their spans as
JSON lines to <build dir>/traces/<workload>-<seed>.jsonl.

Extra flags, passed through to the binary: --size small (a seconds-long
smoke size, used by the tests) and --wrong-oracle (corrupts the workload's
oracle, so every correct answer must be counted as a failure).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("converge", "recrawl", "serve", "cluster")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository's src/ is missing; nothing to build")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", out, "--target", "jxp_perfbench", "-j", jobs]
    if subprocess.call(command, stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(out, "jxp_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(line, trace):
    """Returns the parsed result, or fails if it breaks the output contract."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("jxp_perfbench's last line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(key + " is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        if got[name].get("unit") != unit or not isinstance(got[name].get("value"), (int, float)):
            fail("metric %s: expected unit %s and a number, got %s" % (name, unit, got[name]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", choices=("bench", "small"), default="bench")
    parser.add_argument("--wrong-oracle", action="store_true")
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace, "--size", args.size]
    if args.wrong_oracle:
        command.append("--wrong-oracle")
    if args.trace == "1":
        traces = os.path.join(os.path.dirname(binary), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-%d.jsonl" % (args.workload, args.seed))]

    # A session of its own, so a timeout can stop the binary and its daemons.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    if child.returncode != 0:
        fail("jxp_perfbench exited with code %d" % child.returncode)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("jxp_perfbench printed no result")
    check(lines[-1], args.trace == "1")
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
