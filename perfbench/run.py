#!/usr/bin/env python3
"""End-to-end checkpoint benchmark of LSMIO: build, run, validate.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload kv-4k-per-rank --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

The first form builds perfbench/ (Release, unchecked-Status tracking off)
into $CARGO_TARGET_DIR or .bench_build, runs one workload with its data
under .bench_data/, and passes the program's report through. The last line
of standard output is one JSON object {correct, attempted, failed, metrics};
its metric names must be exactly those BENCHMARK.json declares for the
trace mode (end_to_end for --trace 0, per_layer for --trace 1).

--selfcheck runs the statistics tests, then every workload in both trace
modes at a tiny size, and fails if the emitted metric names differ from the
declared ones or a traced run writes no spans with --trace-out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "manager.h")):
        raise RuntimeError("LSMIO sources not found next to perfbench/ (expected src/)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out


def declared_names(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, seed, seconds, trace, extra_args=()):
    """Runs one workload; returns (exit code, stdout lines)."""
    data = os.path.join(ROOT, ".bench_data", "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--data", data] + list(extra_args)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(data))
        except OSError:
            pass  # another run's data is still there
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines, spec, trace):
    """Parses the last line; returns (result, problem or None)."""
    if not lines:
        return None, "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, "last line is not JSON: %r" % lines[-1][:200]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return result, "unexpected result keys %s" % sorted(result)
    emitted = list(result["metrics"])
    declared = declared_names(spec, trace)
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        return result, "metric names differ from BENCHMARK.json: missing %s, extra %s" % (
            missing, extra)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        if metric["unit"] != units[name]:
            return result, "unit of %s is %s, BENCHMARK.json says %s" % (
                name, metric["unit"], units[name])
    return result, None


def selfcheck(spec, out):
    subprocess.run([os.path.join(out, "stats_test")], check=True, stdout=sys.stderr)
    binary = os.path.join(out, "ckpt_bench")
    ok = True
    spans = os.path.join(ROOT, ".bench_data", "spans-%d.csv" % os.getpid())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            extra = ["--tiny"] + (["--trace-out", spans] if trace else [])
            code, lines = run_workload(binary, workload, 1, 0.2, trace, extra)
            result, problem = check_result(lines, spec, trace)
            if problem is None and (code != 0 or not result["correct"]):
                problem = "exit code %d, correct=%s" % (code, result["correct"])
            if problem is None and trace:
                with open(spans) as f:
                    if f.readline().strip() != "thread,kind,class,begin_ns,end_ns,bytes" or \
                            not f.readline():
                        problem = "no spans written to --trace-out"
                os.remove(spans)
            log("selfcheck %-18s trace=%d: %s" % (workload, trace, problem or "ok"))
            ok = ok and problem is None
    try:
        os.rmdir(os.path.dirname(spans))
    except OSError:
        pass  # another run's data is still there
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    try:
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        out = build()
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as e:
        log("perfbench: cannot build: %s" % e)
        return 2
    if args.selfcheck:
        return selfcheck(spec, out)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload %r" % args.workload)
        return 2

    code, lines = run_workload(os.path.join(out, "ckpt_bench"), args.workload, args.seed,
                               args.seconds, bool(args.trace))
    result, problem = check_result(lines, spec, bool(args.trace))
    for line in lines[:-1]:
        print(line)
    if problem is not None:
        log("perfbench: %s" % problem)
        return code or 3
    print(lines[-1])
    return code


if __name__ == "__main__":
    sys.exit(main())
