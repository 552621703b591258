#!/usr/bin/env python3
"""Reach report: which src/ lines and functions the reach set actually runs.

    python3 scripts/reach_report.py > reach_report.txt

The reach set is everything a reader of this repo's results depends on:

  * scripts/check_tables.sh (every deterministic T/F/S table) and
    scripts/check_telemetry.sh (every obs sink), on the repo's benches;
  * scripts/run_examples.sh (every example, plus topo_inspect's exports);
  * each BENCHMARK.json workload's perfbench binary at --smoke=1
    --seconds=0.3, with --trace=0 and --trace=1 and DCN_THREADS =
    min(4, nproc): the runs perfbench/smoke_test.py makes. perfbench/run.py
    always builds Release, so the binary is called directly.

The script configures two -O1 --coverage trees under build-reach/: one of
the repo (benches and examples only) and one of perfbench/ from its own
CMakeLists.txt. Nothing under perfbench/ is written. It removes stale .gcda
files, runs the reach set, and aggregates
`gcov --json-format --stdout` over every .gcda in both trees. It prints, for
each src/ file, executed/total lines and the functions that never ran. A
function whose start line ran under another template instantiation is not
listed. It also lists every src/ object that has a .gcno but no .gcda: an
object never linked into a binary that ran leaves no .gcda, so a pass over
the .gcda files alone would not see it at all.

Blind spot: a header-inline function that nothing calls is never emitted, so
it leaves no coverage record and cannot appear here. Find those with grep
(that is how CsrView::OtherEnd was found).

The report goes to stdout and the progress log to stderr. This is a report,
not a gate. It exits nonzero only if a build or a reach-set run fails. On a shared 4-core x86-64 host (GCC 12.2), the two
coverage builds took 100 s from scratch and the reach set 115 s.
"""
import collections
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
COVERAGE = ["-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS=-O1 --coverage",
            "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]


def log(message):
    print(f"reach: {message}", file=sys.stderr, flush=True)


def run(command, env=None, cwd=ROOT):
    done = subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        sys.exit(f"reach: failed (exit {done.returncode}): {' '.join(command)}")
    return done.stdout


def build(source, tree, targets, jobs):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        run(["cmake", "-S", source, "-B", tree, *generator, *COVERAGE])
    # The per-directory targets skip the test suites, which the reach set
    # never runs; without Ninja everything is built.
    if not generator:
        targets = []
    run(["cmake", "--build", tree, "-j", str(jobs),
         *(arg for target in targets for arg in ("--target", target))])


def files_under(tree, suffix):
    for dirpath, _, filenames in os.walk(tree):
        for name in filenames:
            if name.endswith(suffix):
                yield os.path.join(dirpath, name)


def src_object(gcno):
    """src/-relative source of a library object's .gcno, or None."""
    parts = gcno.split(os.sep)
    for i, part in enumerate(parts[:-1]):
        if part.startswith("dcn_") and part.endswith(".dir") and parts[i - 1] == "CMakeFiles":
            return "src/" + "/".join(parts[i + 1:])[: -len(".gcno")]
    return None


def reach_set(repo_tree, perfbench_tree):
    threads = str(min(4, os.cpu_count() or 1))
    run(["scripts/check_tables.sh", repo_tree])
    run(["scripts/check_telemetry.sh", repo_tree])
    run(["scripts/run_examples.sh", repo_tree])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    env = dict(os.environ, DCN_THREADS=threads)
    binary = os.path.join(perfbench_tree, "perfbench")
    for workload in workloads:
        for trace in (0, 1):
            run([binary, f"--workload={workload}", "--seed=1", "--seconds=0.3",
                 f"--trace={trace}", "--smoke=1", "--corrupt=0"], env=env)
    return [f"scripts/{name}" for name in
            ("check_tables.sh", "check_telemetry.sh", "run_examples.sh")] + [
        f"perfbench {w} (trace 0 and 1)" for w in workloads]


def gcov_records(paths):
    """One gcov JSON document per .gcda (or .gcno: all counts zero)."""
    for begin in range(0, len(paths), 64):
        batch = paths[begin:begin + 64]
        done = subprocess.run(["gcov", "--json-format", "--stdout", *batch],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True)
        for line in done.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def aggregate(documents):
    lines = collections.defaultdict(dict)  # file -> line -> ran
    functions = {}  # (file, start line, name) -> ran
    for doc in documents:
        cwd = doc.get("current_working_directory", ROOT)
        for record in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, record["file"]))
            if not path.startswith(SRC):
                continue
            path = os.path.relpath(path, ROOT)
            for line in record["lines"]:
                number = line["line_number"]
                lines[path][number] = lines[path].get(number, False) or line["count"] > 0
            for fn in record["functions"]:
                key = (path, fn["start_line"], fn.get("demangled_name", fn["name"]))
                functions[key] = functions.get(key, False) or fn["execution_count"] > 0
    return lines, functions


def report(lines, functions, never_linked, ran):
    started = {(path, start) for (path, start, _), hit in functions.items() if hit}
    never_ran = collections.defaultdict(list)
    for (path, start, name), hit in sorted(functions.items()):
        if not hit and (path, start) not in started:
            never_ran[path].append((start, name))
    executed = sum(sum(hit for hit in per.values()) for per in lines.values())
    total = sum(len(per) for per in lines.values())
    out = [f"reach report: {executed:,} of {total:,} src/ lines ran "
           f"({100.0 * executed / max(total, 1):.1f}%)",
           "reach set: " + "; ".join(ran), "",
           "== src/ objects never linked into a binary that ran (.gcno, no .gcda) =="]
    out += [f"  {path}" for path in never_linked] or ["  (none)"]
    out += ["", "== per src/ file: executed/total lines, then functions that never ran =="]
    for path in sorted(lines):
        per = lines[path]
        out.append(f"{path}  {sum(per.values())}/{len(per)}")
        out += [f"    never ran: {name}  (line {start})" for start, name in never_ran[path]]
    listed = sum(len(v) for v in never_ran.values())
    out += ["", f"{listed} functions never ran; {len(never_linked)} objects never linked."]
    return "\n".join(out) + "\n"


def main():
    jobs = os.cpu_count() or 1
    repo_tree = os.path.join(ROOT, "build-reach", "repo")
    perfbench_tree = os.path.join(ROOT, "build-reach", "perfbench")

    started = time.monotonic()
    build(ROOT, repo_tree, ["bench/all", "examples/all"], jobs)
    build(os.path.join(ROOT, "perfbench"), perfbench_tree, ["perfbench"], jobs)
    log(f"coverage builds took {time.monotonic() - started:.0f} s")
    for tree in (repo_tree, perfbench_tree):
        for stale in files_under(tree, ".gcda"):
            os.remove(stale)

    started = time.monotonic()
    ran = reach_set(repo_tree, perfbench_tree)
    log(f"reach set took {time.monotonic() - started:.0f} s")

    gcda = sorted(p for tree in (repo_tree, perfbench_tree) for p in files_under(tree, ".gcda"))
    linked, unlinked = set(), {}
    for tree in (repo_tree, perfbench_tree):
        for gcno in files_under(tree, ".gcno"):
            source = src_object(gcno)
            if source is None:
                continue
            if os.path.exists(gcno[: -len(".gcno")] + ".gcda"):
                linked.add(source)
            else:
                unlinked.setdefault(source, gcno)
    never_linked = sorted(set(unlinked) - linked)
    # A never-linked object's .gcno still yields its lines, all unexecuted.
    documents = gcov_records(gcda + [unlinked[s] for s in never_linked])
    sys.stdout.write(report(*aggregate(documents), never_linked, ran))


if __name__ == "__main__":
    main()
