#!/usr/bin/env python3
"""Repository benchmark entry point; run it from the root of a checkout.

One measured run (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload sta-signoff --seed 1 --seconds 30 --trace 0

Steadiness report: run one workload K times with seeds seed..seed+K-1
and print each metric's median, quartiles and (Q3 - Q1) / median:

    python3 perfbench/run.py --report 5 --workload serve-eco --seconds 30

Every invocation first builds the benchmark, `ssd` and the trace checker
with dune, then runs the warm step, which characterizes the coarse cell
library and writes the generated designs under perfbench/_work once.
The measured runs themselves never characterize or generate: they fail
when the warm step's outputs are missing.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

WORK = os.path.join("perfbench", "_work")
BUILD = "_build"
EXE = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
SSD = os.path.join(BUILD, "default", "bin", "ssd.exe")
TRACE_CHECK = os.path.join(BUILD, "default", "tools", "trace_check.exe")
WORKLOADS = ["sta-signoff", "serve-eco"]


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("perfbench: neither dune nor opam is on PATH")


def build_and_warm():
    """Build the three executables, then warm; serialized by a lock."""
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    with open(os.path.join(WORK, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        targets = ["./" + p[len(BUILD + "/default/"):] for p in (EXE, SSD, TRACE_CHECK)]
        build = subprocess.run(
            dune_command()
            + ["build", "--root", ".", "--build-dir", BUILD, "--display", "quiet"]
            + targets,
            stdout=sys.stderr,
            env=env,
        )
        if build.returncode != 0:
            sys.exit("perfbench: build failed")
        warm = subprocess.run([EXE, "warm"], stdout=sys.stderr)
        if warm.returncode != 0:
            sys.exit("perfbench: warm step failed")


def run_once(workload, seed, seconds, trace, capture=False):
    cmd = [
        EXE, "run", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--ssd", SSD, "--trace-check", TRACE_CHECK,
    ]
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def report(workload, first_seed, seconds, k):
    values = {}
    for i in range(k):
        seed = first_seed + i
        proc = run_once(workload, seed, seconds, 0, capture=True)
        if proc.returncode != 0:
            sys.exit("perfbench: run with seed %d failed" % seed)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("perfbench: run with seed %d was not correct" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(result["metrics"])), file=sys.stderr)
    print("%s: %d runs of %d s" % (workload, k, seconds))
    print("%-22s %-6s %14s %14s %14s %8s" % ("metric", "unit", "Q1", "median", "Q3", "IQR/med"))
    for name, (unit, vs) in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        print("%-22s %-6s %14.6g %14.6g %14.6g %8.4f" % (name, unit, q1, med, q3, spread))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--report", type=int, metavar="K",
                    help="steadiness report over K runs instead of one run")
    args = ap.parse_args()
    build_and_warm()
    if args.report:
        report(args.workload, args.seed, args.seconds, args.report)
    else:
        sys.exit(run_once(args.workload, args.seed, args.seconds, args.trace).returncode)


if __name__ == "__main__":
    main()
