#!/usr/bin/env python3
"""Builds the graphbench binary from source and runs one benchmark run.

Usage (from the repository root):

    python3 graphbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 graphbench/run.py --selftest

The binary is configured with CMake into $CARGO_TARGET_DIR (default
`.bench_build`) under `graphbench/`, rebuilt incrementally on every call,
and run with the given arguments; generated inputs, results and Chrome
traces go to `work/` beside it. Build output goes to stderr, so the last
line of stdout is the binary's result object.

--selftest runs every workload at a tiny scale, traced and untraced, and
checks the output against BENCHMARK.json: every named metric present with
its unit and finite, no failed solve, no dropped trace event, the runtime
identity kernel + idle + runtime = threads x solve, and the SimEngine
reference counts repeating bit for bit between two runs of one seed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("graphbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no grapeplus sources beside " + HERE)
    bdir = os.path.join(build_root(), "graphbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "graphbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            fail("build failed: %s" % e)
    return os.path.join(bdir, "graphbench")


def run_binary(binary, args, capture):
    cmd = [binary] + args + ["--work-dir", os.path.join(build_root(), "work")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("graphbench timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("graphbench exited with %d" % proc.returncode)
    return proc.stdout


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    sim_counts = {}
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, repeat in ((0, 0), (1, 0), (1, 1)):
            out = run_binary(binary, ["--workload", wl, "--seed", "7",
                                      "--seconds", "1", "--trace",
                                      str(trace), "--tiny"], capture=True)
            res = json.loads(out.strip().splitlines()[-1])
            tag = "%s trace=%d" % (wl, trace)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
                continue
            if not (res["correct"] is True and res["failed"] == 0
                    and res["attempted"] >= 1):
                problems.append("%s: %d/%d solves failed" %
                                (tag, res["failed"], res["attempted"]))
            got = res["metrics"]
            if set(got) != set(want[trace]):
                problems.append("%s: metric names differ: missing %s, extra %s"
                                % (tag, sorted(set(want[trace]) - set(got)),
                                   sorted(set(got) - set(want[trace]))))
            for name, m in got.items():
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append("%s: %s = %r" % (tag, name, v))
                elif want[trace].get(name) not in (None, m.get("unit")):
                    problems.append("%s: %s unit %r" % (tag, name, m["unit"]))
            if trace == 0 or problems:
                continue
            val = {k: m["value"] for k, m in got.items()}
            if val["trace.dropped"] != 0:
                problems.append("%s: %d trace events dropped" %
                                (tag, val["trace.dropped"]))
            lhs = val["engine.kernel_s"] + val["engine.idle_s"] + \
                val["engine.runtime_s"]
            rhs = val["machine.threads"] * val["engine.solve_s"]
            if not math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12):
                problems.append("%s: kernel+idle+runtime %.9g != threads x "
                                "solve %.9g" % (tag, lhs, rhs))
            counts = (val["engine.sim_work_units"], val["engine.sim_rounds"])
            if repeat and counts != sim_counts[wl]:
                problems.append("%s: sim counts %r then %r" %
                                (tag, sim_counts[wl], counts))
            sim_counts[wl] = counts
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace)], capture=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
