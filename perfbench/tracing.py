"""Spans recorded from outside the package, around each module's public calls.

``Tracer.install`` replaces every binding of a target function inside the
``gendual`` package (the defining module, the package namespace and every
module that imported it by name) with a timing wrapper, so calls are caught
whichever binding the workload reaches them through.  A target that no
longer exists is listed in ``missing`` and its metrics read zero calls.
Spans live in memory until ``write`` is called after the run.
"""

import gzip
import importlib
import sys
import time


def _cells(args, kwargs, result):
    """|X|*|Y| of a conjugate call: the coupling is the second argument."""
    c = args[1]
    return len(c.rows) * len(c.rows[0])


def _triples(args, kwargs, result):
    """|U|*|X|*|Y| of a transform call: the table, then the coupling."""
    table, c = args[0], args[1]
    return len(table.rows) * len(c.rows) * len(c.rows[0])


def _text_in(args, kwargs, result):
    return len(args[0].encode("utf-8"))


def _text_out(args, kwargs, result):
    return len(result.encode("utf-8"))


# (layer, module, attribute path, work counter)
TARGETS = (
    ("spaces", "gendual.spaces", "partial_rockafellian", None),
    ("spaces", "gendual.spaces", "partial_lagrangian", None),
    ("spaces", "gendual.spaces", "pointwise_min", None),
    ("spaces", "gendual.spaces", "pointwise_max", None),
    ("spaces", "gendual.spaces", "SetFunction.__init__", None),
    ("spaces", "gendual.spaces", "SetFunction.negated", None),
    ("spaces", "gendual.spaces", "Coupling.__init__", None),
    ("spaces", "gendual.spaces", "Rockafellian.__init__", None),
    ("spaces", "gendual.spaces", "Lagrangian.__init__", None),
    ("conjugacy", "gendual.conjugacy", "conjugate", _cells),
    ("conjugacy", "gendual.conjugacy", "reverse_conjugate", _cells),
    ("duality", "gendual.duality", "lagrangian_of", _triples),
    ("duality", "gendual.duality", "rockafellian_of", _triples),
    ("duality", "gendual.duality", "weak_duality_report", None),
    ("couple", "gendual.couple", "inequality_holds", None),
    ("couple", "gendual.couple", "minimality_probe", None),
    ("couple", "gendual.couple", "check_item_ii", None),
    ("couple", "gendual.couple", "check_item_iii", None),
    ("couple", "gendual.couple", "check_item_iv", None),
    ("couple", "gendual.couple", "check_item_v", None),
    ("couple", "gendual.couple", "audit", None),
    ("problems", "gendual.problems", "load_problem", None),
    ("problems", "gendual.problems", "save_problem", None),
    ("problems", "gendual.problems", "parse_problem", _text_in),
    ("problems", "gendual.problems", "serialize_problem", _text_out),
    ("fuzz", "gendual.fuzz", "random_instance", None),
    ("fuzz", "gendual.fuzz", "check_conjugacy_laws", None),
    ("fuzz", "gendual.fuzz", "check_transform_identity", None),
    ("fuzz", "gendual.fuzz", "check_transform_inequality", None),
    ("fuzz", "gendual.fuzz", "check_roundtrips", None),
    ("fuzz", "gendual.fuzz", "check_weak_duality", None),
    ("fuzz", "gendual.fuzz", "check_couple_theorem", None),
)

ITEMS = ("inequality_holds", "minimality_probe", "check_item_ii",
         "check_item_iii", "check_item_iv", "check_item_v")

OP_SPAN = "cli.op"
ITEMS_SPAN = "bench.items"


class Tracer:
    """Span recorder.  A span is (name id, start, end, parent, op id, work)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.stack = []
        self.op = 0
        self.missing = []
        self._restore = []
        self._span_fns = {}
        for name in (OP_SPAN, ITEMS_SPAN):
            self._name(name)

    def _name(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, work=None):
        idx = self._name(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def timed(*args, **kwargs):
            pos = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(pos)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[pos] = (idx, start, end, parent, self.op, 0)
            if work is not None:
                spans[pos] = (idx, start, end, parent, self.op,
                              work(args, kwargs, result))
            return result

        timed.__wrapped__ = fn
        return timed

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        key = (name, fn)
        if key not in self._span_fns:
            self._span_fns[key] = self.wrap(name, fn)
        return self._span_fns[key](*args)

    def install(self):
        for layer, module_name, path, work in TARGETS:
            name = f"{layer}.{path}"
            owner_name, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                self._name(name)
                continue
            wrapper = self.wrap(name, original, work)
            if owner_name:
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "gendual" and not mod_name.startswith("gendual."):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        self._restore.append((mod, binding, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        """Write the spans as gzipped TSV, times in ns from the first start."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\twork\n")
            for idx, start, end, parent, op, work in self.spans:
                out.write(f"{self.names[idx]}\t{round((start - base) * 1e9)}\t"
                          f"{round((end - base) * 1e9)}\t{parent}\t{op}\t{work}\n")

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds, work."""
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, op, work in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0, 0] for name in self.names}
        for pos, (idx, start, end, parent, op, work) in enumerate(self.spans):
            row = out[self.names[idx]]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[pos]
            row[3] += work
        return out


def layer_metrics(tracer, checks_s, overhead):
    """The per-layer metrics of one traced run, as name -> (value, unit).

    ``checks_s`` is the untraced time of the check-couple ops whose inputs
    the six public items were called on; ``overhead`` is the traced over
    the untraced op time, minus 1."""
    t = tracer.totals()

    def calls(*names):
        return sum(t[n][0] for n in names)

    def secs(*names):
        return sum(t[n][1] for n in names)

    def self_secs(*names):
        return sum(t[n][2] for n in names)

    def work(*names):
        return sum(t[n][3] for n in names)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    spaces = [n for n in t if n.startswith("spaces.")]
    conj = ("conjugacy.conjugate", "conjugacy.reverse_conjugate")
    dual = ("duality.lagrangian_of", "duality.rockafellian_of")
    m = {
        "spaces.self_s": (self_secs(*spaces), "s"),
        "spaces.calls": (calls(*spaces), "count"),
        "conjugacy.conjugate_s": (secs("conjugacy.conjugate"), "s"),
        "conjugacy.reverse_conjugate_s": (secs("conjugacy.reverse_conjugate"), "s"),
        "conjugacy.calls": (calls(*conj), "count"),
        "conjugacy.entries": (work(*conj), "count"),
        "conjugacy.entries_per_s": (ratio(work(*conj), secs(*conj)), "1/s"),
        "duality.lagrangian_of_s": (secs("duality.lagrangian_of"), "s"),
        "duality.rockafellian_of_s": (secs("duality.rockafellian_of"), "s"),
        "duality.weak_duality_s": (secs("duality.weak_duality_report"), "s"),
        "duality.entries": (work(*dual), "count"),
        "duality.entries_per_s": (ratio(work(*dual), secs(*dual)), "1/s"),
        "couple.inequality_s": (secs("couple.inequality_holds"), "s"),
        "couple.probe_s": (secs("couple.minimality_probe"), "s"),
        "couple.item_ii_s": (secs("couple.check_item_ii"), "s"),
        "couple.item_iii_s": (secs("couple.check_item_iii"), "s"),
        "couple.item_iv_s": (secs("couple.check_item_iv"), "s"),
        "couple.item_v_s": (secs("couple.check_item_v"), "s"),
        "couple.audit_s": (secs("couple.audit"), "s"),
        "couple.items_coverage": (
            ratio(secs(*(f"couple.{name}" for name in ITEMS)), checks_s), "ratio"),
        "problems.parse_s": (secs("problems.parse_problem"), "s"),
        "problems.parse_mb_per_s": (
            ratio(work("problems.parse_problem") / 1e6, secs("problems.parse_problem")),
            "MB/s"),
        "problems.serialize_s": (secs("problems.serialize_problem"), "s"),
        "problems.serialize_mb_per_s": (
            ratio(work("problems.serialize_problem") / 1e6,
                  secs("problems.serialize_problem")),
            "MB/s"),
        "cli.self_s": (self_secs(OP_SPAN), "s"),
        "fuzz.generate_s": (secs("fuzz.random_instance"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.missing_targets": (len(tracer.missing), "count"),
    }
    for check in ("conjugacy", "transform_identity", "transform_inequality",
                  "roundtrips", "weak_duality", "couple_theorem"):
        name = "check_conjugacy_laws" if check == "conjugacy" else f"check_{check}"
        m[f"fuzz.check_{check}_s"] = (secs(f"fuzz.{name}"), "s")
    return m

