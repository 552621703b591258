#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke] [--corrupt]

Run from the root of a checkout. The library (src/) and the benchmark
program (perfbench/perfbench.cc) are built in Release into .bench_build/perfbench;
later runs only re-check the build. The workload runs in its own process with
DCN_THREADS = min(4, nproc). Every end-to-end metric (--trace 0) or per-layer
metric (--trace 1) is printed by name with its unit, a record with the run
manifest is written to .bench_build/records/, and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("packet-congested", "fault-watch", "flow-shuffle", "plan-query")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (smoke test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb every result before its check (smoke test)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")
    return args


def pool_threads():
    return min(4, os.cpu_count() or 1)


def build(root):
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the root of a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found on PATH")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *generator,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "-j", str(pool_threads())])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def source_digest(root):
    """sha256 over the sources being measured (works without git; docs excluded)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(f for f in filenames if not f.endswith(".md")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit(root):
    if not os.path.exists(os.path.join(root, ".git")) or shutil.which("git") is None:
        return "none"
    done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    args = parse_args()
    root = os.getcwd()
    binary = build(root)

    env = dict(os.environ, DCN_THREADS=str(pool_threads()))
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--smoke={int(args.smoke)}", f"--corrupt={int(args.corrupt)}"]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"workload exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("workload printed no result")
    for line in lines[:-1]:
        print(line)

    manifest = {
        "commit": commit(root),
        "source_digest": source_digest(root),
        "build_type": result["manifest"]["build_type"],
        "compiler": result["manifest"]["compiler"],
        "nproc": os.cpu_count(),
        "pool_threads": result["manifest"]["pool_threads"],
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "corrupt": args.corrupt,
    }
    records = os.path.join(root, ".bench_build", "records")
    os.makedirs(records, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(records, name), "w") as f:
        json.dump({"manifest": manifest, "result": result}, f, indent=1)

    print(f"manifest: {json.dumps(manifest)}")
    print(f"result_digest: {result['result_digest']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
