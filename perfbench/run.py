#!/usr/bin/env python3
"""The pufaging benchmark: one entry point for every workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The script builds the library sources in
src/ together with the benchmark binary (perfbench/src) in Release mode
into the build directory ($CARGO_TARGET_DIR, default .bench_build), runs
the requested workload and prints its lines, ending with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set of BENCHMARK.json, with
--trace 1 the per-layer set; the final line is checked against those
lists before it is printed. Result records, span dumps and scratch files
go to .bench_out/. --selftest builds and runs the benchmark's own helper
tests. Exit status is non-zero, with no result line, on any failure to
build, run or validate.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("campaign-paper", "campaign-field", "auth-batch", "auth-socket")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout, cwd=None, capture=False):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=cwd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout", 2)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cmd += ["-G", "Ninja"]
        code, _ = run_checked(cmd, BUILD_TIMEOUT_S)
        if code != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    code, _ = run_checked(
        ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
        BUILD_TIMEOUT_S,
    )
    if code != 0:
        fail("build failed")
    return build_dir


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def validate(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("attempted < 1")
    want = declared_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        raise ValueError(
            "metric set differs from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want)))
        )
    for name, m in got.items():
        if m.get("unit") != want[name]:
            raise ValueError("unit of %s is %s, not %s" % (name, m.get("unit"), want[name]))
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            raise ValueError("value of %s is not a number" % name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)

    if args.selftest:
        build_dir = build(["perfbench_selftest"])
        code, _ = run_checked([os.path.join(build_dir, "perfbench_selftest")],
                              RUN_TIMEOUT_S, cwd=build_dir)
        sys.exit(code)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required", 2)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    build_dir = build(["perfbench"])
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--config", os.path.join("perfbench", "config.json"),
        "--out", OUT_DIR,
    ]
    code, out = run_checked(cmd, RUN_TIMEOUT_S, capture=True)
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
        fail("workload %s exited with %d" % (args.workload, code))
    try:
        validate(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("invalid result line: %s" % e)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
