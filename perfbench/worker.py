"""Workload process: runs one benchmark plan against the package.

Started by run.py in a fresh, single-threaded interpreter with only the
checkout's src/ on the import path.  It is a closed loop with one client:
each op starts when the previous one has returned.  Outputs are recorded
but judged by run.py afterwards, outside every timed region.

    python worker.py PLAN RESULT --seconds S --trace 0|1
"""

import argparse
import contextlib
import io
import itertools
import json
import random
import resource
import time
import traceback
from pathlib import Path

import gendual
import gendual.cli
import gendual.extreal
import gendual.fuzz

import calibrate
import tracing
from stats import metric

# Share of --seconds the traced run spends on the untraced pass; the traced
# pass repeats the same ops.  Kept small so that fuzz spans stay in memory.
TRACED_SHARE = 1 / 8
# Calibration passes take at most about 4% of the time spent in rounds.
CAL_EVERY_S = 0.5
CAL_MAX = 5
CAL_ENDS = 3


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = gendual.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Executes ops; ``numbers`` names their output files, so that runners
    sharing it never write the same file twice."""

    def __init__(self, out_dir, numbers, tracer=None):
        self.out_dir = Path(out_dir)
        self.numbers = numbers
        self.tracer = tracer

    def run(self, op):
        if op["kind"] == "fuzz":
            return self._fuzz(op)
        out_path = str(self.out_dir / f"op{next(self.numbers)}.json")
        argv = [a.replace("{out}", out_path) for a in op["argv"]]
        tracer = self.tracer
        start = time.perf_counter()
        if tracer is None:
            code, out, err = run_cli(argv)
        else:
            code, out, err = tracer.span(tracing.OP_SPAN, run_cli, argv)
            tracer.op += 1
        lat = time.perf_counter() - start
        rec = {"op": op, "argv": argv, "lat": [lat], "exit": code,
               "stderr": err[-2000:]}
        if op["expect"] != "transform":
            rec["stdout"] = out
        return rec

    def _fuzz(self, op):
        lat = []
        clock = time.perf_counter
        last = clock()
        tracer = self.tracer

        def tick(_index):
            nonlocal last
            now = clock()
            lat.append(now - last)
            last = now
            if tracer is not None:
                tracer.op += 1

        report = gendual.fuzz.run_fuzz(op["count"], op["max_set_size"], op["seed"],
                                       on_instance=tick)
        return {"op": op, "lat": lat,
                "failed_instances": sorted({i for i, _, _ in report.failures})}


def closed_loop(runner, rounds, seconds=None, limit=None, cal=None):
    """Run rounds in order, cycling.  With ``limit``, run exactly that many;
    otherwise run until ``seconds`` have been spent in rounds, checked
    between rounds.  With ``cal``, extend it with calibration passes: a few
    before the first round and after the last, and between rounds one per
    CAL_EVERY_S of rounds since the last passes, at most CAL_MAX at once.
    Returns the records, the rounds run and the seconds in rounds."""
    records = []
    done = 0
    busy = owed = 0.0

    def more():
        if limit is not None:
            return done < limit
        return not done or busy < seconds

    if cal is not None:
        cal.extend(calibrate.passes(CAL_ENDS))
    while more():
        if cal is not None and owed >= CAL_EVERY_S:
            cal.extend(calibrate.passes(min(CAL_MAX, int(owed / CAL_EVERY_S))))
            owed = 0.0
        start = time.perf_counter()
        for op in rounds[done % len(rounds)]:
            records.append(runner.run(op))
        spent = time.perf_counter() - start
        busy += spent
        owed += spent
        done += 1
    if cal is not None:
        cal.extend(calibrate.passes(CAL_ENDS))
    return records, done, busy


def _is_check(rec):
    return rec.get("argv", [None])[0] == "check-couple"


def traced_phases(rounds, out_dir, numbers, tracer, seconds=None, limit=None):
    """An untraced pass, the same ops again traced, then the six public
    audit items on every check-couple input of the traced pass.

    Returns the records of both passes, the summed op seconds of each pass
    and the untraced op seconds of the check-couple ops."""
    plain, done, _ = closed_loop(Runner(out_dir, numbers), rounds, seconds, limit)
    inputs = {}
    for rec in filter(_is_check, plain):
        if rec["argv"][1] not in inputs:
            p = gendual.load_problem(rec["argv"][1], allow_both=True)
            inputs[rec["argv"][1]] = (p.lagrangian, p.rockafellian, p.coupling)
    tracer.install()
    try:
        traced, _, _ = closed_loop(Runner(out_dir, numbers, tracer), rounds,
                                   limit=done)
        for rec in filter(_is_check, traced):
            tracer.span(tracing.ITEMS_SPAN, _call_items, inputs[rec["argv"][1]])
            tracer.op += 1
    finally:
        tracer.uninstall()

    def op_seconds(recs):
        return sum(sum(r["lat"]) for r in recs)

    return (plain + traced, op_seconds(plain), op_seconds(traced),
            op_seconds(filter(_is_check, plain)))


def _call_items(args):
    couple = gendual.couple
    for name in tracing.ITEMS:
        getattr(couple, name)(*args)


def _timed_reps(call, budget=0.2):
    """Seconds of each ``call()`` over repetitions filling ``budget``."""
    times = []
    while sum(times) < budget or not times:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times


def sweep(entries):
    """Per-call milliseconds of each kernel at each size, untraced."""
    out = {}
    for e in entries:
        p = gendual.load_problem(e["file"], allow_both=True)
        c = p.coupling
        if e["fn"] == "conjugate":
            f = gendual.partial_rockafellian(p.rockafellian, p.decisions.labels[0])
            fn, args = gendual.conjugacy.conjugate, (f, c)
        elif e["fn"] == "lagrangian_of":
            fn, args = gendual.duality.lagrangian_of, (p.rockafellian, c)
        elif e["fn"] == "rockafellian_of":
            fn, args = gendual.duality.rockafellian_of, (p.lagrangian, c)
        else:
            fn, args = gendual.couple.audit, (p.lagrangian, p.rockafellian, c)
        out[f"sweep.{e['fn']}.n{e['n']}_ms"] = metric(
            _timed_reps(lambda: fn(*args)), "ms", 1e3)
    return out


def extreal_costs(seed, pairs=4096, reps=7):
    """Per-call nanoseconds of the scalar kernels, net of loop overhead."""
    x = gendual.extreal
    rng = random.Random(seed)

    def draw():
        roll = rng.random()
        if roll < 0.1:
            return float("-inf")
        if roll < 0.2:
            return float("inf")
        return float(rng.randint(-10, 10))

    raw = [(draw(), draw()) for _ in range(pairs)]
    ext = [(x.ExtReal(a), x.ExtReal(b)) for a, b in raw]
    low_add, upp_add, neg, as_extreal = x.low_add, x.upp_add, x.neg, x.as_extreal

    def loop_base():
        for a, b in ext:
            pass

    def loop_low():
        for a, b in ext:
            low_add(a, b)

    def loop_upp():
        for a, b in ext:
            upp_add(a, b)

    def loop_lt():
        for a, b in ext:
            a < b

    def loop_neg():
        for a, b in ext:
            neg(a)

    def loop_as():
        for a, b in raw:
            as_extreal(a)

    def per_call(loop):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            loop()
            mid = time.perf_counter()
            loop_base()
            times.append((mid - start) - (time.perf_counter() - mid))
        return metric(times, "ns", 1e9 / pairs)

    return {
        "extreal.low_add_ns": per_call(loop_low),
        "extreal.upp_add_ns": per_call(loop_upp),
        "extreal.lt_ns": per_call(loop_lt),
        "extreal.neg_ns": per_call(loop_neg),
        "extreal.as_extreal_ns": per_call(loop_as),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one benchmark plan.")
    ap.add_argument("plan")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    out_dir = plan["out_dir"]
    numbers = itertools.count(1)
    result = {"gendual_file": gendual.__file__}
    if not args.trace:
        cal = []
        records, rounds, busy = closed_loop(Runner(out_dir, numbers), plan["rounds"],
                                            args.seconds, cal=cal)
        result.update(records=records, rounds=rounds, busy_s=busy, cal_s=cal)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        tracer = tracing.Tracer()
        records, plain_s, traced_s, checks_s = traced_phases(
            plan["rounds"], out_dir, numbers, tracer, seconds=args.seconds * TRACED_SHARE)
        tiny, _, _, tiny_checks_s = traced_phases(
            plan["tiny_rounds"], out_dir, numbers, tracer,
            limit=len(plan["tiny_rounds"]))
        metrics = {
            name: metric([value], unit)
            for name, (value, unit) in tracing.layer_metrics(
                tracer, checks_s=checks_s + tiny_checks_s,
                overhead=traced_s / plain_s - 1.0).items()
        }
        tracer.write(plan["spans_file"])
        metrics.update(sweep(plan["sweep"]))
        metrics.update(extreal_costs(plan["extreal_seed"]))
        result["records"] = records + tiny
        result["metrics"] = metrics
        result["missing_targets"] = tracer.missing
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
