#!/usr/bin/env python3
"""Self-test of the repository benchmark at smoke size.

For every workload in BENCHMARK.json:
  * an untraced and a traced run must succeed, and the result line must
    carry every declared end-to-end (resp. per-layer) metric with its unit;
  * the traced run must write a parseable Chrome trace with spans in it;
  * a run against a deliberately corrupted oracle must trip the
    correctness gate: non-zero exit and "correct": false.

    python3 gtbench/tests/selftest.py      # from the repository root
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 1


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "gtbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "2", "--trace", str(trace), "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    try:
        result = json.loads(p.stdout.strip().split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return p, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = build if os.path.isabs(build) else os.path.join(ROOT, build)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            p, result = run(wl, trace)
            check(p.returncode == 0 and result is not None and result["correct"],
                  f"{wl} --trace {trace}: clean run (exit {p.returncode})")
            if result is None:
                sys.stderr.write(p.stderr[-3000:])
                continue
            for m in spec[kind]:
                got = result["metrics"].get(m["name"])
                check(got is not None and got.get("unit") == m["unit"] and
                      isinstance(got.get("value"), (int, float)),
                      f"{wl} --trace {trace}: {m['name']} [{m['unit']}] reported")
            if trace:
                path = os.path.join(build, "run", f"trace-{wl}-{SEED}.json")
                try:
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    check(any(e.get("ph") == "X" for e in events), f"{wl}: trace has spans")
                except (OSError, ValueError, KeyError) as e:
                    check(False, f"{wl}: trace file {path} readable ({e})")
        p, result = run(wl, 0, "--corrupt-oracle")
        check(p.returncode != 0 and (result is None or not result["correct"]),
              f"{wl}: corrupted oracle trips the correctness gate (exit {p.returncode})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
