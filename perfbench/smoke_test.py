#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes a few seconds after the build.

    python3 perfbench/smoke_test.py      (from the root of a checkout)

Runs every workload at tiny sizes through run.py, untraced and traced, and
requires every output check, the traced-pass reconciliation and the
thread-count spot check to pass. Then runs each workload with --corrupt,
which perturbs every result before its check, and requires the checks to
trip on every job. Exits 0 only if all of that holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("packet-congested", "fault-watch", "flow-shuffle", "plan-query")


def run(workload, trace, corrupt):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "0.3", "--trace", str(trace), "--smoke"]
    if corrupt:
        command.append("--corrupt")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    problems = []
    for workload in WORKLOADS:
        before = len(problems)
        for trace in (0, 1):
            result = run(workload, trace, corrupt=False)
            if result is None or not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} trace={trace}: expected clean, got {result}")
        result = run(workload, 0, corrupt=True)
        if result is None or result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{workload}: corrupted results were not all caught: {result}")
        print(f"smoke: {workload}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
