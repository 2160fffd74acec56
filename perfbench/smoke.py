#!/usr/bin/env python3
"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload at the tiny size with tracing off and on, and checks
that the last line names exactly the metrics of BENCHMARK.json with their
units, that no op failed, that the result file carries the run context and
the summary metrics (op_p50_ms and error_rate everywhere, op_p99_ms on
fuzz), and that a directory holding only BENCHMARK.json and perfbench/
makes run.py fail without printing a result.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SUMMARY_UNITS = {"op_p50_ms": "ms", "error_rate": "ratio"}
FUZZ_SUMMARY_UNITS = {"op_p99_ms": "ms"}
CONTEXT_KEYS = ("python", "nproc", "cpu_model", "caches", "git_commit", "seed")


def expect(cond, what):
    if not cond:
        raise SystemExit(f"smoke: FAIL: {what}")


def bench(cwd, workload, trace, tiny=True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + (["--tiny"] if tiny else []), cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_workload(workload):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = bench(ROOT, workload, trace)
        what = f"{workload} trace={trace}"
        expect(done.returncode == 0, f"{what} exited {done.returncode}: {done.stderr}")
        last = json.loads(done.stdout.strip().splitlines()[-1])
        expect(set(last) == {"correct", "attempted", "failed", "metrics"},
               f"{what}: keys {sorted(last)}")
        expect(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
               f"{what}: {last['failed']} of {last['attempted']} ops failed")
        units = {k: m["unit"] for k, m in last["metrics"].items()}
        expect(units == {m["name"]: m["unit"] for m in listed},
               f"{what}: metrics {units}")
        report = json.loads((WORK / f"BENCH_{workload}_seed1_trace{trace}.json")
                            .read_text(encoding="utf-8"))
        expect(all(k in report["context"] for k in CONTEXT_KEYS),
               f"{what}: context {sorted(report['context'])}")
        if trace:
            continue
        summary = dict(SUMMARY_UNITS)
        if workload == "fuzz":
            summary.update(FUZZ_SUMMARY_UNITS)
        for name, unit in summary.items():
            expect(report["metrics"].get(name, {}).get("unit") == unit,
                   f"{what}: {name} missing or not in {unit}")
        expect(report["metrics"]["error_rate"]["value"] == 0, f"{what}: errors")
        print(f"smoke: {workload} ok", flush=True)


def check_bare_directory():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(bare, "fuzz", 0, tiny=False)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and not done.stdout.strip(),
           f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print("smoke: bare directory refused", flush=True)


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_workload(workload)
    check_bare_directory()
    print("smoke: ok")


if __name__ == "__main__":
    main()
