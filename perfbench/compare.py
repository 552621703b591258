#!/usr/bin/env python3
"""Summarises benchmark records and compares only like with like.

    python3 perfbench/compare.py [--records .bench_build/records]
                                 [--base <commit|source digest> --head <...>]

Records (written by run.py) are grouped by their manifest: commit, source
digest, build type, compiler, nproc, pool size, workload, run length and
trace mode; the seed is what varies inside a group. For each group and
end-to-end metric it prints the median, the quartiles and the spread
(interquartile range / median) against the metric's bound in
BENCHMARK.json. With --base/--head it compares, per workload, the two groups
that differ only in commit and source digest: the head median may not be
worse than the base median by more than the bound. Groups that differ in
anything else are never compared. Exits 1 if a spread or a comparison is out
of bounds, or if a run failed.
"""
import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("build_type", "compiler", "nproc", "pool_threads", "workload",
             "run_seconds", "trace")


def load(records_dir):
    groups = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(records_dir, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        m = record["manifest"]
        if m.get("smoke") or m.get("corrupt"):
            continue
        key = (m["commit"], m["source_digest"]) + tuple(m[k] for k in HOST_KEYS)
        groups[key].append(record)
    return groups


def spread(values):
    if len(values) < 2:
        return statistics.median(values), values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0


def worse_by(base, head, better):
    change = (head - base) / base if base else 0.0
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", default=os.path.join(".bench_build", "records"))
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--base")
    parser.add_argument("--head")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    ok = True
    groups = load(args.records)
    for key, records in sorted(groups.items(), key=lambda kv: str(kv[0])):
        manifest = dict(zip(("commit", "source_digest") + HOST_KEYS, key))
        failed = sum(r["result"]["failed"] for r in records)
        seeds = sorted(r["manifest"]["seed"] for r in records)
        print(f"\n{manifest['workload']} trace={manifest['trace']} "
              f"commit={manifest['commit'][:12]} source={manifest['source_digest']} "
              f"pool={manifest['pool_threads']} nproc={manifest['nproc']} "
              f"runs={len(records)} failed_jobs={failed} seeds={seeds}")
        ok &= failed == 0 and all(r["result"]["correct"] for r in records)
        if manifest["trace"] != 0:
            continue
        for name, m in spec.items():
            values = [r["result"]["metrics"][name]["value"] for r in records]
            median, q1, q3, s = spread(values)
            within = s <= m["bound"]
            ok &= within
            print(f"  {name:12s} median {median:12.5g} {m['unit']:4s} q1 {q1:12.5g} "
                  f"q3 {q3:12.5g} spread {s:6.3f} (bound {m['bound']}, third "
                  f"{m['bound'] / 3:.3f}){'' if within else '  OUT OF BOUND'}")

    if args.base and args.head:
        def pick(ref):
            return {k[2:]: v for k, v in groups.items() if ref in (k[0], k[1]) or
                    k[0].startswith(ref)}
        base, head = pick(args.base), pick(args.head)
        for host_key in sorted(set(base) & set(head), key=str):
            if host_key[HOST_KEYS.index("trace")] != 0:
                continue
            print(f"\n{host_key[HOST_KEYS.index('workload')]}: head vs base")
            for name, m in spec.items():
                b = statistics.median(r["result"]["metrics"][name]["value"] for r in base[host_key])
                h = statistics.median(r["result"]["metrics"][name]["value"] for r in head[host_key])
                w = worse_by(b, h, m["better"])
                ok &= w <= m["bound"]
                print(f"  {name:12s} base {b:12.5g} head {h:12.5g} worse by {w:+.3f} "
                      f"(bound {m['bound']}){'' if w <= m['bound'] else '  REGRESSION'}")
        for host_key in set(base) ^ set(head):
            print(f"not compared (no like-for-like partner): {dict(zip(HOST_KEYS, host_key))}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
