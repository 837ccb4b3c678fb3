#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

The first run in a checkout configures and builds the benchmark into
.bench_build/perfbench (CMake, Release). Each run then generates its
inputs from --seed, runs the workload for --seconds, checks its outputs,
writes a run record to .bench_build/records/, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics. The exit code is 0 only when every check
passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
RECORDS = ROOT / ".bench_build" / "records"
WORKLOADS = ("serve_steady", "serve_adapt", "protocol", "knn_ann")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the benchmark; build output goes to a log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "build.ninja").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", BUILD_JOBS])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (see .bench_build/perfbench/build.log)")
    return BUILD / "perfbench"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for runs outside git."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*") if p.is_file())
    files.append(ROOT / "bench" / "bench_common.hpp")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build_type():
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    WORK.mkdir(parents=True, exist_ok=True)
    RECORDS.mkdir(parents=True, exist_ok=True)

    load_before = os.getloadavg()
    started = time.time()
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(WORK)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    load_after = os.getloadavg()

    errors = list(out["check_errors"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = out["per_layer"] if args.trace else out["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None and args.trace:
            # A layer this workload never calls: nothing ran, so 0 is measured.
            got = {"value": 0, "unit": m["unit"]}
        if got is None:
            errors.append(f"metric {m['name']} not measured")
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} has unit {got['unit']}, expected {m['unit']}")
        if not math.isfinite(got["value"]):
            errors.append(f"metric {m['name']} is not finite")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    correct = out["failed"] == 0 and not errors
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": out["attempted"],
        "failed": out["failed"], "check_errors": errors,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "build_type": build_type(), "git_commit": git_commit(),
        "source_sha256": source_digest(), "python": platform.python_version(),
        "wall_s": round(time.time() - started, 3),
        "workload_record": out["record"],
        "end_to_end": out["end_to_end"], "per_layer": out["per_layer"],
    }
    record_path = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print("record " + json.dumps({k: record[k] for k in (
        "workload", "seed", "nproc", "loadavg_before", "loadavg_after", "cpu_model",
        "build_type", "git_commit", "workload_record")}))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
