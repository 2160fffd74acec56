#!/usr/bin/env python3
"""Benchmark of the gendual CLI and its modules.  Run from the repository root:

    python3 perfbench/run.py --workload fuzz|audit|reject|transform \\
        --seed N --seconds S --trace 0|1

The seed fixes every input.  Inputs are written under perfbench/work/, then
one fresh single-threaded worker process (worker.py) runs the workload as a
closed loop with one client for about S seconds, the last round finishing
past the deadline.  Every output is checked here, after the worker exits.
With --trace 0 the end-to-end metrics are printed; with --trace 1 the worker
also runs the same ops with spans around each module's public calls, and
the per-layer metrics are printed.  Each metric is printed on its own line
with its unit, and the last line is one JSON object.  Every run also writes
perfbench/work/BENCH_<workload>_seed<N>_trace<T>.json with the run context.
--tiny shrinks every instance, for smoke.py.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import gen
from stats import metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_PROBES = 7
RUN_LIMIT_S = 175.0

AUDIT_FLAGS = (
    "inequality (-L upper-add R >= c)",
    "minimality probe",
    "item (ii) transform equations",
    "item (iii) conjugate dual pair",
    "item (iv) rows of R c-convex",
    "item (v) rows of -L c'-convex",
    "items (ii)-(v) agree",
)

# Importing gendual, then building the CLI parser: what a workload process
# must do before its first op.  Prints three perf_counter readings, which
# share one clock with this process.
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import gendual.cli; "
    "t1 = time.perf_counter(); gendual.cli.build_parser(); "
    "print(t0, t1, time.perf_counter())"
)


def child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def probe_setup(deadline):
    """(setup seconds, import seconds) of fresh interpreters.  Set-up time
    is scaled to the reference speed by a calibration pass before and after
    each interpreter; the first, which may compile bytecode, is discarded."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        before = calibrate.passes(1)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, check=True,
            timeout=max(deadline - start, 1.0))
        t0, t1, t2 = map(float, done.stdout.split())
        speed = calibrate.factor(before + calibrate.passes(1))
        if i:
            samples.append(((t2 - start) * speed, t1 - t0))
    return samples


def audit_fields(text):
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and not line.startswith("witness"):
            fields[key.strip()] = value.strip()
    return fields


def op_failed(rec, oracles):
    """True when a CLI op's output is wrong."""
    op, code = rec["op"], rec["exit"]
    if op["expect"] == "couple":
        fields = audit_fields(rec["stdout"])
        return not (code == 0 and fields.get("verdict") == "couple"
                    and all(fields.get(f) == "yes" for f in AUDIT_FLAGS))
    if op["expect"] == "reject":
        fields = audit_fields(rec["stdout"])
        return not (code == 1 and fields.get("verdict") == "not a couple"
                    and fields.get("items (ii)-(v) agree") == "yes")
    out = Path(rec["argv"][rec["argv"].index("--output") + 1])
    if code != 0 or not out.is_file():
        return True
    doc = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    table = np.array([[float(v) for v in row] for row in doc.get(op["table"], [])])
    return not np.array_equal(table, oracles[op["oracle"]])


def judge(records, oracles):
    """(ops attempted, ops failed) over every record."""
    attempted = failed = 0
    for rec in records:
        if rec["op"]["kind"] == "fuzz":
            attempted += len(rec["lat"])
            failed += len(rec["failed_instances"])
        else:
            attempted += 1
            if op_failed(rec, oracles):
                failed += 1
                print(f"wrong output: {' '.join(rec['argv'])} exit={rec['exit']}\n"
                      f"{rec['stderr']}", file=sys.stderr)
    return attempted, failed


def run_context(args):
    ctx = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None, "caches": {},
        "git_commit": None,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                ctx["cpu_model"] = line.partition(":")[2].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            ctx["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        ctx["git_commit"] = done.stdout.strip() or None
    return ctx


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("fuzz", "audit", "reject", "transform"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny instances, for the smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "gendual" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'gendual'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    deadline = started + RUN_LIMIT_S

    inputs = WORK / f"inputs-{args.workload}"
    shutil.rmtree(inputs, ignore_errors=True)
    (inputs / "out").mkdir(parents=True)
    plan, oracles = gen.make_plan(args.workload, args.seed, inputs,
                                  args.trace, args.tiny)
    plan["spans_file"] = str(WORK / f"spans-{args.workload}.tsv.gz")
    plan_path, result_path = inputs / "plan.json", inputs / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    setup = probe_setup(deadline)
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.perf_counter(), 1.0))
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}\n{worker.stderr}",
              file=sys.stderr)
        return 3
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["gendual_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: worker imported gendual from {result['gendual_file']}",
              file=sys.stderr)
        return 3

    records = result["records"]
    attempted, failed = judge(records, oracles)
    summary = {}
    if args.trace:
        metrics = result["metrics"]
        metrics["cli.import_ms"] = metric([s[1] for s in setup], "ms", 1e3)
        if result["missing_targets"]:
            print("missing trace targets (zero calls): "
                  + ", ".join(result["missing_targets"]), file=sys.stderr)
    else:
        lat = [t for rec in records for t in rec["lat"]]
        speed = calibrate.factor(result["cal_s"])
        metrics = {
            "ops_per_s": metric([len(lat) / (result["busy_s"] * speed)], "ops/s"),
            "setup_s": metric([s[0] for s in setup], "s"),
            "peak_rss_mb": metric([result["maxrss_kb"] / 1024], "MB"),
        }
        summary["op_p50_ms"] = metric(lat, "ms", 1e3 * speed)
        summary["error_rate"] = metric([failed / attempted], "ratio")
        if args.workload == "fuzz":
            summary["op_p99_ms"] = metric(
                [statistics.quantiles(lat, n=100)[98] * 1e3 * speed], "ms")
            summary["op_p99_ms"]["n"] = len(lat)
        summary["raw.ops_per_s"] = metric([len(lat) / result["busy_s"]], "ops/s")
        summary["raw.op_p50_ms"] = metric(lat, "ms", 1e3)
        summary["calibration.pass_ms"] = metric(result["cal_s"], "ms", 1e3)

    report = {"context": run_context(args), "attempted": attempted,
              "failed": failed, "metrics": {**metrics, **summary}}
    bench = WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    bench.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed -> {bench.relative_to(ROOT)}")
    for name, m in report["metrics"].items():
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']:6s} "
              f"n={m['n']} q1={m['q1']:.6g} q3={m['q3']:.6g}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
