"""Command-line front end.

Subcommands: conjugate, to-lagrangian, to-rockafellian, check-couple,
weak-duality, fuzz.  Exit codes: 0 success (check-couple: the pair is a
couple), 1 check-couple verdict "not a couple" or fuzz failures, 2 parse or
argument errors, 3 domain/label mismatches, 4 required table missing from
the problem file, 5 internal consistency alarm (equivalent audit items
disagreed, weak-duality found the dual value above the primal one, or any
other unexpected exception, reported as one line without a traceback; each
indicates a bug in this package or rounding at large magnitudes, not a fault
in the input).

Building the parser loads no module that computes: its defaults come from
``defaults``.  Each command and render helper imports the modules it runs
when it runs, and reads their functions from the defining modules at call
time, so ``to-lagrangian`` never loads ``couple`` or ``fuzz``, and a
function replaced in its module (by a test or a tracer) is the one called.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

from .defaults import DEFAULT_GRID, DEFAULT_INF_PROB, DEFAULT_TOL, VALUE_FAMILY_NAMES
from .errors import (
    DomainMismatchError,
    MissingTableError,
    ProblemFormatError,
    UnknownLabelError,
)

EXIT_OK = 0
EXIT_NOT_COUPLE = 1
EXIT_FORMAT = 2
EXIT_DOMAIN = 3
EXIT_MISSING_TABLE = 4
EXIT_INTERNAL_ALARM = 5

FORMATS = ("text", "csv", "structured")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _grid(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
        float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected LO:HI, e.g. -10:10") from None
    except OverflowError:
        raise argparse.ArgumentTypeError("grid ends must lie within the double range") from None
    if lo > hi:
        raise argparse.ArgumentTypeError("grid low end exceeds high end")
    return lo, hi


def _number(within, rule: str):
    """Option type: a number for which ``within`` holds, else the error ``rule``."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected a number") from None
        if not within(value):
            raise argparse.ArgumentTypeError(rule)
        return value
    return parse


_tolerance = _number(lambda v: 0.0 <= v < float("inf"), "must be finite and nonnegative")
_inf_prob = _number(lambda v: 0.0 <= v <= 0.4, "must lie in [0, 0.4]")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one diagnostic line, like every other error.
    No option starts with "-" and a digit, so an argument that does is a
    value, as in ``--grid -2:2``; argparse's own pattern, an internal that
    tests/test_cli.py pins, admits only plain negative numbers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.exit(EXIT_FORMAT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gendual",
        description=(
            "Generalized conjugate duality on finite sets: conjugates, "
            "Lagrangian/Rockafellian transforms, couple audits, weak duality."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=False, tol=False):
        if tol:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                           help="finite nonnegative tolerance for finite comparisons "
                                "(default 1e-9)")
        p.add_argument("--format", choices=FORMATS, default="text",
                       help="output rendering (default text)")
        if output:
            p.add_argument("--output", help="also write the result as a problem file")

    p = sub.add_parser("conjugate", help="conjugate a function through the coupling")
    p.add_argument("problem", help="problem file providing the sets and coupling")
    p.add_argument("--side", choices=("primal", "dual"), default="primal",
                   help="primal: f over X -> f^c over Y; dual: g over Y -> g^c' over X")
    p.add_argument("--function", required=True,
                   help="comma-separated values (inf/-inf allowed) or a JSON array file")
    common(p)
    p.set_defaults(func=cmd_conjugate)

    for name, help_text in (("to-lagrangian", "Lagrangian of the file's Rockafellian"),
                            ("to-rockafellian", "Rockafellian of the file's Lagrangian")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem")
        common(p, output=True)
        p.set_defaults(func=cmd_transform)

    p = sub.add_parser("check-couple",
                       help="audit a (Lagrangian, Rockafellian) pair")
    p.add_argument("problem_r", help="file with the Rockafellian (or both tables)")
    p.add_argument("problem_l", nargs="?",
                   help="file with the Lagrangian; omit if the first file has both")
    common(p, tol=True)
    p.set_defaults(func=cmd_check_couple)

    p = sub.add_parser("weak-duality", help="primal vs dual value at a base point")
    p.add_argument("problem")
    p.add_argument("--base-point",
                   help="label in X (default: the file's base_point, else the first label)")
    common(p, tol=True)
    p.set_defaults(func=cmd_weak_duality)

    p = sub.add_parser("fuzz", help="run the randomized invariant suite")
    p.add_argument("--count", type=_positive_int, default=1000)
    p.add_argument("--max-set-size", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--grid", type=_grid, default=DEFAULT_GRID,
                   help="integer value grid LO:HI (default -10:10)")
    p.add_argument("--inf-prob", type=_inf_prob, default=DEFAULT_INF_PROB,
                   help="probability of each infinity per entry (default 0.1)")
    p.add_argument("--values", choices=VALUE_FAMILY_NAMES, default="integer",
                   help="family of the finite entries (default integer, on the "
                        "grid; fractional also reads the grid)")
    p.add_argument("--output", default=".",
                   help="directory for reproduction files (default .)")
    common(p, tol=True)
    p.set_defaults(func=cmd_fuzz)

    return parser


# ---------------------------------------------------------------------------
# rendering helpers

def _csv_field(text: str) -> str:
    """``text`` as one CSV field (RFC 4180): quoted, with its quotes
    doubled, only if it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_function(labels, values, fmt: str) -> str:
    from .problems import _array, _object, _row_block, _string, table_tokens

    (rendered,) = table_tokens((values,))
    if fmt == "csv":
        lines = ["label,value"]
        lines += [f"{_csv_field(lab)},{val}" for lab, val in zip(labels, rendered)]
        return "\n".join(lines) + "\n"
    if fmt == "structured":
        return _object([
            ("labels", _array(map(_string, labels), 1)),
            ("values", _row_block(rendered, 1)),
        ], 0) + "\n"
    w_lab = max(len(lab) for lab in labels)
    w_val = max(len(v) for v in rendered)
    return "".join(
        f"{lab:<{w_lab}}  {val:>{w_val}}\n" for lab, val in zip(labels, rendered)
    )


def _render_matrix(row_labels, col_labels, rendered, fmt: str) -> str:
    """A table given as its ``table_tokens``.  The structured format is the
    ``json.dumps(..., indent=2)`` layout, written row by row as problem
    files are."""
    from .problems import _array, _object, _string, table_block

    if fmt == "csv":
        lines = ["," + ",".join(map(_csv_field, col_labels))]
        lines += [
            f"{_csv_field(lab)}," + ",".join(row) for lab, row in zip(row_labels, rendered)
        ]
        return "\n".join(lines) + "\n"
    if fmt == "structured":
        return _object([
            ("row_labels", _array(map(_string, row_labels), 1)),
            ("col_labels", _array(map(_string, col_labels), 1)),
            ("entries", table_block(rendered)),
        ], 0) + "\n"
    w_lab = max(map(len, row_labels))
    widths = [max(map(len, col)) for col in zip(col_labels, *rendered)]
    out = [" " * w_lab + "  " + "  ".join(map(str.rjust, col_labels, widths))]
    out += [
        lab.ljust(w_lab) + "  " + "  ".join(map(str.rjust, row, widths))
        for lab, row in zip(row_labels, rendered)
    ]
    return "\n".join(out) + "\n"


def _render_pairs(pairs, fmt: str) -> str:
    """pairs: (key, display text) for the text and csv formats."""
    if fmt == "csv":
        return "\n".join(f"{k},{_csv_field(v)}" for k, v in pairs) + "\n"
    width = max(len(k) for k, _ in pairs) + 1
    return "".join(f"{k + ':':<{width}}  {v}\n" for k, v in pairs)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _write_json(payload) -> None:
    import json

    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands

def _load_function(spec: str, domain, what: str) -> SetFunction:
    from .extreal import parse_extreal
    from .problems import finite_number, read_json, read_text
    from .spaces import SetFunction

    # os.path.isfile is False, not an error, for an inline list too long
    # to be a file name
    if os.path.isfile(spec):
        items = read_json(read_text(spec), spec)
        if not isinstance(items, list):
            raise ProblemFormatError(f"{spec}: expected a JSON array of entries")
    else:
        items = [t.strip() for t in spec.split(",")]
    values = []
    for i, item in enumerate(items):
        if isinstance(item, str):
            try:
                values.append(float(parse_extreal(item)))
            except ValueError as exc:
                raise ProblemFormatError(f"{what} entry {i}: {exc}") from None
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ProblemFormatError(
                f"{what} entry {i}: expected a number or 'inf'/'-inf'"
            )
        else:
            values.append(finite_number(item, f"{what} entry {i}"))
    if len(values) != len(domain):
        raise DomainMismatchError(
            f"{what} has {len(values)} entries but the set has {len(domain)} labels"
        )
    return SetFunction._unchecked(domain, tuple(values))


def cmd_conjugate(args) -> int:
    from .conjugacy import conjugate
    from .problems import load_problem

    c = load_problem(args.problem, allow_both=True).coupling
    if args.side == "dual":  # g^{c'} is the conjugate of g through c^T
        c = c.transposed
    result = conjugate(_load_function(args.function, c.primal, "function"), c)
    sys.stdout.write(
        _render_function(result.domain.labels, result.values, args.format)
    )
    return EXIT_OK


def cmd_transform(args) -> int:
    """``to-lagrangian`` and ``to-rockafellian``: render the transform of the
    file's table to stdout and, with ``--output``, save the file with the
    result in that table's place.  One formatting pass serves both: the
    file's table block is built from the same tokens, which are dropped
    before the file is assembled."""
    from . import duality
    from .problems import load_problem, save_problem, table_block, table_tokens

    problem = load_problem(args.problem)
    if args.command == "to-lagrangian":
        key = "lagrangian"
        table = duality.lagrangian_of(problem.require_rockafellian(), problem.coupling)
    else:
        key = "rockafellian"
        table = duality.rockafellian_of(problem.require_lagrangian(), problem.coupling)
    tokens = table_tokens(table.rows)
    sys.stdout.write(
        _render_matrix(table.row_set.labels, table.col_set.labels, tokens, args.format)
    )
    if args.output:
        block = table_block(tokens)
        del tokens
        save_problem(problem._replace(**{"rockafellian": None, "lagrangian": None, key: table}),
                     args.output, blocks={key: block})
    return EXIT_OK


def cmd_check_couple(args) -> int:
    from .couple import audit
    from .problems import load_problem

    # one file holding both tables is the pair of files (it, it), which
    # agrees with itself on the sets and the coupling
    problem_r = load_problem(args.problem_r, allow_both=True)
    problem_l = (problem_r if args.problem_l is None
                 else load_problem(args.problem_l, allow_both=True))
    r = problem_r.require_rockafellian()
    lag = problem_l.require_lagrangian()
    c = problem_r.coupling
    if problem_l is not problem_r:
        if (
            problem_l.decisions != problem_r.decisions
            or problem_l.primal != problem_r.primal
            or problem_l.dual != problem_r.dual
        ):
            raise DomainMismatchError("the two problem files index different sets")
        if not problem_l.coupling.isclose(c, args.tol):
            raise DomainMismatchError("the two problem files carry different couplings")

    result = audit(lag, r, c, tol=args.tol)
    if args.format == "structured":
        payload = result._asdict()
        payload["is_couple"] = result.is_couple
        # after is_couple
        payload["witnesses"] = [w._asdict() for w in payload.pop("witnesses")]
        _write_json(payload)
    else:
        sys.stdout.write(_render_pairs([
            ("inequality (-L upper-add R >= c)", _yesno(result.item_i_inequality)),
            ("minimality probe", _yesno(result.item_i_minimality_probe)),
            ("item (ii) transform equations", _yesno(result.item_ii)),
            ("item (iii) conjugate dual pair", _yesno(result.item_iii)),
            ("item (iv) rows of R c-convex", _yesno(result.item_iv)),
            ("item (v) rows of -L c'-convex", _yesno(result.item_v)),
            ("items (ii)-(v) agree", _yesno(result.items_agree)),
            ("verdict", "couple" if result.is_couple else "not a couple"),
        ], args.format))
        for w in result.witnesses:  # in csv: witness,item,u,x,y,description
            fields = ("" if f is None else _csv_field(f) for f in w)
            sys.stdout.write(f"witness,{','.join(fields)}\n" if args.format == "csv"
                             else f"witness [{w.item}] {w.description}\n")
    if not result.items_agree:
        return EXIT_INTERNAL_ALARM
    return EXIT_OK if result.is_couple else EXIT_NOT_COUPLE


def cmd_weak_duality(args) -> int:
    from .duality import weak_duality_report
    from .extreal import render_extreal
    from .problems import extreal_to_jsonable, load_problem

    problem = load_problem(args.problem)
    r = problem.require_rockafellian()
    base = next(b for b in (args.base_point, problem.base_point, problem.primal.labels[0])
                if b is not None)
    try:
        report = weak_duality_report(r, problem.coupling, base, tol=args.tol)
    except ArithmeticError as exc:  # dual above primal
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ALARM
    if args.format == "structured":
        _write_json({
            k: extreal_to_jsonable(v) if isinstance(v, float) else v
            for k, v in report._asdict().items()
        })
    else:
        gap = report.gap
        sys.stdout.write(_render_pairs([
            ("base point", report.base_point),
            ("primal value", render_extreal(report.primal_value)),
            ("dual value", render_extreal(report.dual_value)),
            ("tight", _yesno(report.tight)),
            ("gap", render_extreal(gap) if gap is not None else "n/a"),
        ], args.format))
    return EXIT_OK


def cmd_fuzz(args) -> int:
    from pathlib import Path

    from .fuzz import run_fuzz, values_note
    from .problems import save_problem

    started = time.perf_counter()
    report = run_fuzz(
        count=args.count,
        max_set_size=args.max_set_size,
        seed=args.seed,
        grid=args.grid,
        inf_prob=args.inf_prob,
        tol=args.tol,
        values=args.values,
    )
    elapsed = time.perf_counter() - started
    repro_path = None
    if report.first_failure is not None:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        repro_path = out_dir / f"fuzz-repro-seed{report.seed}.json"
        save_problem(report.first_failure, repro_path)

    if args.format == "structured":
        payload = {
            "count": report.count,
            "max_set_size": report.max_set_size,
            "seed": report.seed,
            "grid": list(report.grid),
            "inf_prob": report.inf_prob,
            "tol": report.tol,
            "failures_by_check": report.failures_by_check,
            "failures": [
                {"instance": i, "check": name, "detail": detail}
                for i, name, detail in report.failures
            ],
            "strict_inequality_instances": report.strict_inequality_instances,
            "passed": report.passed,
            "reproduction_file": str(repro_path) if repro_path else None,
        }
        if values_note(report.values):
            payload["values"] = report.values
        _write_json(payload)
    else:
        lines = [
            f"fuzz count={report.count} max-set-size={report.max_set_size} "
            f"seed={report.seed} grid={report.grid[0]}:{report.grid[1]} "
            f"inf-prob={report.inf_prob} tol={report.tol}{values_note(report.values)}"
        ]
        width = max(len(n) for n in report.failures_by_check)
        for name, bad in report.failures_by_check.items():
            lines.append(f"{name:<{width}}  failures={bad}")
        lines.append(
            "instances with a strict transform inequality: "
            f"{report.strict_inequality_instances}"
        )
        for i, name, detail in report.failures[:20]:
            lines.append(f"FAIL instance {i} [{name}]: {detail}")
        if repro_path is not None:
            lines.append(f"seed {report.seed}; reproduction file: {repro_path}")
        lines.append(
            "result: PASS" if report.passed
            else f"result: FAIL ({len(report.failures)} failures)"
        )
        sys.stdout.write("\n".join(lines) + "\n")
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_NOT_COUPLE


# the input errors and their exit codes; anything else is a fault in this package
_INPUT_ERRORS = (
    (ProblemFormatError, EXIT_FORMAT), ((DomainMismatchError, UnknownLabelError), EXIT_DOMAIN),
    (MissingTableError, EXIT_MISSING_TABLE), (OSError, EXIT_FORMAT))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for kinds, code in _INPUT_ERRORS:
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        text = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {text} (at {os.path.basename(where.filename)}:"
              f"{where.lineno})",
              file=sys.stderr)
        return EXIT_INTERNAL_ALARM


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
