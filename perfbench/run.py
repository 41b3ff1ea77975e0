#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spec-ref-opt --seed 1 --seconds 10 --trace 0

Builds the driver (perfbench/CMakeLists.txt, which compiles the
repository's libraries from src/) into .bench_build/, runs one workload,
and prints the driver's report. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 1 the driver also writes a Chrome trace-event file under
.perfbench/, which this script checks before printing the result: it must
parse, its spans must nest, and the child spans of every execution must
cover at least 95% of its wall time.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = ".perfbench"
WORKLOADS = ("spec-ref-opt", "gui-startup-xip", "oracle-memtrace",
             "spec-ref-noopt")
RUN_TIMEOUT_S = 170
MIN_COVERAGE = 0.95


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds; both take well under 1 s when up to date."""
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "pcc-perfbench")


def source_commit():
    """Commit of a git checkout, read from .git without running git (which
    would search parent directories), plus a digest of src/ that identifies
    the measured code in checkouts that are not git repositories."""
    commit = "none"
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                head = f.read().strip()
        commit = head[:12]
    except OSError:
        pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "%s+src:%s" % (commit, digest.hexdigest()[:12])


def check_trace(path):
    """Checks that the trace parses and nests; returns (spans, executions,
    minimum child coverage of an execution span)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    by_id = {}
    for e in events:
        if e.get("ph") != "X":
            raise ValueError("unexpected event phase %r" % e.get("ph"))
        by_id[e["args"]["span"]] = e
    children = {}
    eps = 0.001  # timestamps are integral nanoseconds printed in us
    for e in events:
        parent_id = e["args"]["parent"]
        if parent_id == 0:
            continue
        p = by_id.get(parent_id)
        if p is None:
            raise ValueError("span %d has no parent %d" %
                             (e["args"]["span"], parent_id))
        if (e["ts"] < p["ts"] - eps or
                e["ts"] + e["dur"] > p["ts"] + p["dur"] + eps):
            raise ValueError("span %s does not nest in %s" %
                             (e["name"], p["name"]))
        children.setdefault(parent_id, []).append(e)
    coverage = 1.0
    executions = 0
    for e in events:
        if e["name"] != "execution":
            continue
        executions += 1
        covered, cursor = 0.0, e["ts"]
        for c in sorted(children.get(e["args"]["span"], []),
                        key=lambda c: c["ts"]):
            start = max(c["ts"], cursor)
            end = c["ts"] + c["dur"]
            if end > start:
                covered += end - start
                cursor = end
        if e["dur"] > 0:
            coverage = min(coverage, covered / e["dur"])
    if executions == 0:
        raise ValueError("no execution spans")
    return len(events), executions, coverage


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("extra", nargs="*",
                    help="further driver flags after --, e.g. --scale 0.1")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log("perfbench: build failed: %s" % err)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    # The driver takes unsigned seeds; map negative ones onto them.
    seed = args.seed % 2**53
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", source_commit()]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(
            OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    cmd += args.extra

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log("perfbench: driver exited with %d" % proc.returncode)
        return proc.returncode or 1
    json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if trace_path:
        try:
            spans, execs, coverage = check_trace(trace_path)
        except (OSError, ValueError, KeyError) as err:
            log("perfbench: bad trace file %s: %s" % (trace_path, err))
            return 1
        print("trace: %s: %d spans nest, %d executions, child spans cover "
              ">= %.4f of each" % (trace_path, spans, execs, coverage))
        if coverage < MIN_COVERAGE:
            log("perfbench: child spans cover only %.4f of an execution" %
                coverage)
            return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
