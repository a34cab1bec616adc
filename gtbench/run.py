#!/usr/bin/env python3
"""Repository benchmark entry point (see gtbench/README.md).

Builds gt_perfbench from the checkout's sources (CMake, into .bench_build or
$CARGO_TARGET_DIR), runs one workload, and prints the workload's report
followed, as the last line of standard output, by one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

holding exactly the end-to-end metrics (--trace 0) or per-layer metrics
(--trace 1) that BENCHMARK.json declares. Exits non-zero without a result
when the build fails or a declared metric is missing, and with code 1 after
the result when an answer was wrong or an operation failed.

    python3 gtbench/run.py --workload rmat-deep --seed 1 --seconds 10 --trace 0
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures (once) and builds gt_perfbench; returns the binary path."""
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", cmake_dir, "--target", "gt_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(cmake_dir, "gt_perfbench")


def source_id():
    """Git commit when available, plus a digest of the benchmarked sources."""
    h = hashlib.sha256()
    for top in ("src", "bench", "gtbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    commit = "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"{commit}+src-{h.hexdigest()[:12]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="self-test: the correctness gate must trip")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = build(out)
    if binary is None:
        log("build failed")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(out, "run"), "--commit", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"gt_perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"gt_perfbench exited {proc.returncode} without a result line")
        return proc.returncode or 4
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            log(f"metric {m['name']} missing or without unit {m['unit']}: {got}")
            return 5
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
