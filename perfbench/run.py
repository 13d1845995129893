#!/usr/bin/env python3
"""ns/ref benchmark of the SLIP simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--trace 0|1]   # all four workloads
    python3 perfbench/run.py --record [--seeds 0-10]

Run from the repository root. Builds perfbench/ (the simulator in
Release plus the slip-perfbench program) into .bench_build/, runs each
workload in its own process, checks its outputs, and prints one JSON
object as the last line of standard output. --trace 1 runs the
workload twice, untraced then traced, and reports the per-layer
metrics. --record rewrites perfbench/digests.json from the current
simulator.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CMAKE_DIR = os.path.join(BUILD, "perfbench-cmake")
WORK = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(CMAKE_DIR, "slip-perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("soplex_trace_slip", "shared16_coherent",
             "multicore4_pipelined", "fig09_sweep_cold")
# References per soplex capture; the replay loops over it.
TRACE_REFS = 4_000_000
CHILD_TIMEOUT_S = 85


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The environment must not resize a workload or move its cache."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SLIP_")}
    env["LC_ALL"] = "C"
    # Back malloc with transparent huge pages: without it the run time
    # of one process depended on its page layout (shared16_coherent
    # runs of identical inputs spread 8% instead of 2%; see README).
    env["GLIBC_TUNABLES"] = "glibc.malloc.hugetlb=1"
    return env


def build():
    os.makedirs(CMAKE_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=clean_env()).returncode:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", CMAKE_DIR, "--target", "slip-perfbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr, env=clean_env()).returncode:
        sys.exit("perfbench: build failed")


def run_child(args):
    """Run slip-perfbench; return its JSON line, or exit on a crash."""
    cmd = [BINARY] + [str(a) for a in args]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                           stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out" % " ".join(cmd))
    lines = p.stdout.decode().strip().splitlines()
    if p.returncode or not lines:
        sys.exit("perfbench: %s failed with code %d"
                 % (" ".join(cmd), p.returncode))
    return json.loads(lines[-1])


def trace_file(seed):
    """The soplex capture at @p seed, made once per checkout."""
    path = os.path.join(WORK, "traces", "soplex-seed%d.trc2.gz" % seed)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".%d.tmp.trc2.gz" % os.getpid()
        cmd = [BINARY, "--capture", tmp, "--seed", str(seed),
               "--refs", str(TRACE_REFS)]
        if subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                          timeout=CHILD_TIMEOUT_S).returncode:
            sys.exit("perfbench: trace capture failed")
        os.replace(tmp, path)
    return path


def workload_args(workload, seed, seconds, traced):
    scratch = os.path.join(WORK, "scratch-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    args = ["--workload", workload, "--seed", seed, "--seconds", seconds,
            "--scratch", scratch]
    if workload == "soplex_trace_slip":
        args += ["--trace-file", trace_file(seed)]
    if traced:
        args += ["--traced", "--spans",
                 os.path.join(WORK, "spans-%s-seed%d.json"
                              % (workload, seed))]
    return args, scratch


def run_workload(workload, seed, seconds, traced, extra=()):
    args, scratch = workload_args(workload, seed, seconds, traced)
    try:
        return run_child(args + list(extra))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check(workload, seed, out, stored):
    """Failed operations of one child result (0 when all checks pass)."""
    problems = list(out["errors"])
    want = stored.get(workload, {})
    if workload == "fig09_sweep_cold":
        runs = want.get("runs", [])
        bad = sum(1 for a, b in zip(out["run_digests"], runs) if a != b)
        if len(runs) != len(out["run_digests"]):
            bad = len(out["run_digests"])
        if bad:
            problems.append("%d run digests differ from digests.json" % bad)
        passes = max(1, out["attempted"] // max(1, len(runs)))
        failed = bad * passes
    else:
        expect = want.get("seeds", {}).get(str(seed))
        if expect is not None and expect != out["digest"]:
            problems.append("stats digest %s != stored %s"
                            % (out["digest"], expect))
        failed = out["attempted"] if problems else 0
    if problems and not failed:
        failed = out["attempted"]
    for p in problems:
        log("perfbench: %s: %s" % (workload, p))
    return failed


def commit():
    """The git commit, or outside a git checkout a hash of the sources
    the benchmark builds and reads."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if p.returncode == 0:
            return p.stdout.decode().strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "scenarios", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "source-sha256:" + h.hexdigest()


def record(seeds):
    """Rewrite digests.json from the current simulator. The
    multicore4_pipelined digest is taken from a serial run, so the gate
    proves the pipelined run byte-identical to it."""
    digests = {}
    for w in WORKLOADS[:3]:
        extra = ["--run-threads", "1"] if w == "multicore4_pipelined" else []
        digests[w] = {"seeds": {}}
        for s in seeds:
            out = run_workload(w, s, 0, False, extra)
            if out["errors"]:
                sys.exit("perfbench: %s seed %d: %s" % (w, s, out["errors"]))
            digests[w]["seeds"][str(s)] = out["digest"]
            log("%s seed %d: %s" % (w, s, out["digest"]))
    out = run_workload("fig09_sweep_cold", 0, 0, False)
    if out["errors"]:
        sys.exit("perfbench: fig09_sweep_cold: %s" % out["errors"])
    digests["fig09_sweep_cold"] = {"runs": out["run_digests"]}
    digests["recorded"] = {"commit": commit(), "nproc": os.cpu_count(),
                           "build_type": out["build_type"]}
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(workload, seed, seconds, trace, spec, stored):
    """One workload's result line and provenance; the untraced and
    traced runs each in their own process."""
    plain = run_workload(workload, seed, seconds, False)
    failed = check(workload, seed, plain, stored)
    attempted = plain["attempted"]
    if trace:
        traced = run_workload(workload, seed, seconds, True)
        failed += check(workload, seed, traced, stored)
        attempted += traced["attempted"]
        if traced["digest"] != plain["digest"]:
            log("perfbench: %s: traced stats differ from the untraced run"
                % workload)
            failed = attempted
        values = dict(traced["metrics"])
        values["perf.overhead_pct"] = 100.0 * (
            traced["metrics"]["ns_per_ref"] / plain["metrics"]["ns_per_ref"]
            - 1.0)
        wanted = spec["per_layer"]
    else:
        values = plain["metrics"]
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            sys.exit("perfbench: %s did not report %s"
                     % (workload, m["name"]))
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    provenance = {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "host": platform.machine(),
        "build_type": plain["build_type"], "commit": commit(),
        "command": ["python3"] + sys.argv,
        "digest": plain["digest"], "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": min(failed, attempted), "metrics": metrics}
    with open(os.path.join(WORK, "result-%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as f:
        json.dump({"provenance": provenance, "result": result,
                   "all_metrics": values}, f, indent=1, sort_keys=True)
    return result, provenance


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four, in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--seeds", default="0-10")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    os.makedirs(WORK, exist_ok=True)
    if a.record:
        record(parse_seeds(a.seeds))
        return

    with open(DIGESTS) as f:
        stored = json.load(f)
    if a.workload:
        result, provenance = measure(a.workload, a.seed, a.seconds, a.trace,
                                     spec, stored)
        print(json.dumps({"provenance": provenance}, sort_keys=True))
        print(json.dumps(result, sort_keys=True))
        return

    # All workloads: one line per metric, then the combined result with
    # metrics named workload/metric.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        result, provenance = measure(w, a.seed, a.seconds, a.trace, spec,
                                     stored)
        print(json.dumps({"provenance": provenance}, sort_keys=True))
        for name, m in result["metrics"].items():
            print("%-22s %-36s %14.6g %s" % (w, name, m["value"], m["unit"]))
            total["metrics"][w + "/" + name] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total, sort_keys=True))


if __name__ == "__main__":
    main()
