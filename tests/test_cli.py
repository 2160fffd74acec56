import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gendual.cli import main
from gendual.problems import load_problem, parse_problem


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- conjugate ----------------------------------------------------------------

def test_conjugate_inline(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                           "--function", "5,3")
    assert code == 0
    assert out.splitlines() == ["y0  -2.0", "y1  -1.0"]


def test_conjugate_all_inf(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                           "--function", "inf,inf")
    assert code == 0
    assert [line.split()[-1] for line in out.splitlines()] == ["-inf", "-inf"]


def test_conjugate_dual_side(problems_dir, capsys):
    # values starting with '-' need the --function=... spelling
    code, out, _ = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                           "--side", "dual", "--function=-2,-1")
    assert code == 0
    assert out.splitlines() == ["x0  2.0", "x1  3.0"]


def test_conjugate_wrong_case_inf_exits_2(problems_dir, capsys):
    code, _, err = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                           "--function", "Inf,3")
    assert code == 2
    assert "entry 0" in err


def test_conjugate_function_from_file(problems_dir, tmp_path, capsys):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps([5.0, "3"]))
    code, out, _ = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                           "--function", str(fn))
    assert code == 0
    assert out.splitlines() == ["y0  -2.0", "y1  -1.0"]


def test_conjugate_function_file_beyond_double_range_exits_2(
    problems_dir, tmp_path, capsys
):
    fn = tmp_path / "f.json"
    fn.write_text("[1e400, 3]")
    code, _, err = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                           "--function", str(fn))
    assert code == 2
    assert "function entry 0" in err


def test_conjugate_inline_beyond_double_range_exits_2(problems_dir, capsys):
    code, _, err = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                           "--function", "1e400,0")
    assert code == 2
    assert "function entry 0" in err


def test_conjugate_inline_longer_than_a_file_name(tmp_path, capsys):
    # 64 entries make an inline list of 319 bytes, beyond the 255-byte limit
    # on a file name; it must still be read as values
    n = 64
    problem = {
        "sets": {"U": ["u0"], "X": [f"x{i}" for i in range(n)], "Y": ["y0", "y1"]},
        "coupling": [[float(i), float(-i)] for i in range(n)],
        "rockafellian": [[0.0] * n],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(problem))
    inline = ",".join(["1.25"] * n)
    assert len(inline) > 255
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps([1.25] * n))
    code, out, err = run_cli(capsys, "conjugate", str(path), "--function", inline)
    assert (code, err) == (0, "")
    assert out == "y0  61.75\ny1  -1.25\n"
    assert run_cli(capsys, "conjugate", str(path), "--function", str(fn)) == (0, out, "")


def test_conjugate_wrong_length_exits_3(problems_dir, capsys):
    code, _, err = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                           "--function", "1,2,3")
    assert code == 3


def test_conjugate_formats(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                           "--function", "5,3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["label,value", "y0,-2.0", "y1,-1.0"]
    code, out, _ = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                           "--function", "5,3", "--format", "structured")
    assert code == 0
    assert json.loads(out) == {"labels": ["y0", "y1"], "values": [-2.0, -1.0]}


# --- to-lagrangian / to-rockafellian -------------------------------------------

def test_to_lagrangian(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "to-lagrangian", str(problems_dir / "e1.json"),
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == [",y0,y1", "u0,2.0,1.0", "u1,0.0,0.0"]


def test_to_lagrangian_missing_table_exits_4(problems_dir, capsys):
    code, _, err = run_cli(capsys, "to-lagrangian",
                           str(problems_dir / "e1_lagrangian.json"))
    assert code == 4


def test_to_rockafellian(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "to-rockafellian",
                           str(problems_dir / "e1_lagrangian.json"),
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == [",x0,x1", "u0,2.0,3.0", "u1,0.0,2.0"]


def test_to_rockafellian_missing_table_exits_4(problems_dir, capsys):
    code, *_ = run_cli(capsys, "to-rockafellian", str(problems_dir / "e1.json"))
    assert code == 4


def test_to_rockafellian_all_minus_inf(tmp_path, capsys):
    problem = {
        "sets": {"U": ["u0"], "X": ["x0", "x1"], "Y": ["y0"]},
        "coupling": [[0.0], [1.0]],
        "lagrangian": [["-inf"]],
    }
    path = tmp_path / "bottom.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "to-rockafellian", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines() == [",x0,x1", "u0,-inf,-inf"]


def test_to_lagrangian_output_round_trip(problems_dir, tmp_path, capsys):
    out_file = tmp_path / "lag.json"
    code, *_ = run_cli(capsys, "to-lagrangian", str(problems_dir / "e1.json"),
                       "--output", str(out_file))
    assert code == 0
    derived = load_problem(out_file)
    reference = load_problem(problems_dir / "e1_lagrangian.json")
    assert derived.lagrangian == reference.lagrangian
    assert derived.coupling == reference.coupling
    # and back again: the rebuilt Rockafellian is the E1 couple one
    code, out, _ = run_cli(capsys, "to-rockafellian", str(out_file),
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == [",x0,x1", "u0,2.0,3.0", "u1,0.0,2.0"]


@pytest.mark.parametrize("argv", [
    ("to-lagrangian",),
    ("to-rockafellian",),
    ("conjugate", "--function", "1,-2"),
    ("conjugate", "--side", "dual", "--function", "0,3"),
    ("weak-duality", "--base-point", "a,b"),
    ("weak-duality", "--base-point", 'q"1'),
])
def test_csv_output_quotes_labels(tmp_path, capsys, argv):
    # labels holding a comma or a quote are quoted by RFC 4180, so that
    # csv.reader reads back one field per label; other fields are as before
    import csv

    labels = ["a,b", 'q"1']
    problem = tmp_path / "p.json"
    name, *rest = argv
    table = "lagrangian" if name == "to-rockafellian" else "rockafellian"
    problem.write_text(json.dumps({
        "sets": {"U": labels, "X": labels, "Y": labels},
        "coupling": [[0.0, 1.0], [2.0, 0.0]],
        table: [[0.0, 1.0], [2.0, 3.0]],
    }))
    code, out, _ = run_cli(capsys, name, str(problem), *rest, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    if name == "weak-duality":
        assert rows[0] == ["base point", rest[1]]
        assert all(len(row) == 2 for row in rows)
    elif name == "conjugate":
        assert rows[0] == ["label", "value"]
        assert [row[0] for row in rows[1:]] == labels
        assert all(len(row) == 2 for row in rows)
    else:
        assert rows[0] == ["", *labels]
        assert [row[0] for row in rows[1:]] == labels
        assert all(len(row) == 3 for row in rows)
    # csv.reader also reads q"1 unquoted, so the quoted form is checked too
    quoted = {"a,b": '"a,b"', 'q"1': '"q""1"'}
    assert all(quoted[lab] in out for lab in (rest[1:] if name == "weak-duality" else labels))


# --- check-couple ---------------------------------------------------------------

def test_check_couple_combined_file(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "check-couple",
                           str(problems_dir / "e1_couple.json"))
    assert code == 0
    assert "verdict:" in out and "couple" in out


@pytest.mark.parametrize("files", [["e1.json", "e1_lagrangian.json"], ["quoted.json"]],
                         ids=["e1-pair", "quoted-labels"])
def test_check_couple_csv_witnesses_read_back(problems_dir, tmp_path, capsys, files):
    # each witness is one csv row, witness,item,u,x,y,description, with an
    # empty field for a missing label, so csv.reader reads back the
    # witnesses of the structured format; quoted.json is the E1 couple with
    # L(u0,y0) raised, over labels that hold a comma or a quote
    import csv

    if files == ["quoted.json"]:
        labels = ["a,b", 'q"1']
        (tmp_path / "quoted.json").write_text(json.dumps({
            "sets": {"U": labels, "X": labels, "Y": labels},
            "coupling": [[0.0, 0.0], [1.0, 2.0]],
            "rockafellian": [[2.0, 3.0], [0.0, 2.0]],
            "lagrangian": [[3.0, 1.0], [0.0, 0.0]],
        }))
        paths = [str(tmp_path / "quoted.json")]
    else:
        paths = [str(problems_dir / name) for name in files]
    code, out, _ = run_cli(capsys, "check-couple", *paths, "--format", "structured")
    assert code == 1
    want = [["witness", w["item"], *("" if w[k] is None else w[k] for k in "uxy"),
             w["description"]] for w in json.loads(out)["witnesses"]]
    assert len(want) == 5 + (files == ["quoted.json"])
    code, out, _ = run_cli(capsys, "check-couple", *paths, "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[-len(want):] == want
    assert all(len(row) == 2 for row in rows[:-len(want)])


def test_check_couple_two_files_not_a_couple(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "check-couple", str(problems_dir / "e1.json"),
                           str(problems_dir / "e1_lagrangian.json"))
    assert code == 1
    assert "not a couple" in out
    assert "witness" in out


def test_check_couple_set_mismatch_exits_3(problems_dir, tmp_path, capsys):
    mangled = (problems_dir / "e1_lagrangian.json").read_text().replace("y0", "z0")
    parse_problem(mangled)  # still a valid file on its own
    bad = tmp_path / "bad.json"
    bad.write_text(mangled)
    code, *_ = run_cli(capsys, "check-couple", str(problems_dir / "e1.json"),
                       str(bad))
    assert code == 3


def test_check_couple_structured(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "check-couple",
                           str(problems_dir / "e1_couple.json"),
                           "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_couple"] is True
    assert payload["items_agree"] is True
    assert payload["witnesses"] == []


# --- weak-duality ----------------------------------------------------------------

def test_weak_duality_default_base_point(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "weak-duality", str(problems_dir / "e1.json"))
    assert code == 0
    assert "base point:    x0" in out
    assert "tight:         yes" in out


def test_weak_duality_gap(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "weak-duality", str(problems_dir / "e1.json"),
                           "--base-point", "x1", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "base_point": "x1",
        "primal_value": 3.0,
        "dual_value": 2.0,
        "tight": False,
        "gap": 1.0,
    }


def test_weak_duality_unknown_base_point_exits_3(problems_dir, capsys):
    code, *_ = run_cli(capsys, "weak-duality", str(problems_dir / "e1.json"),
                       "--base-point", "x9")
    assert code == 3


@pytest.mark.parametrize("argv", [(), ("--base-point", "")], ids=["file", "option"])
def test_weak_duality_empty_label_is_a_base_point(tmp_path, capsys, argv):
    # "" is a label of X: as the file's base_point and as --base-point it is
    # the base point, not a fallback to the first label
    problem = tmp_path / "p.json"
    problem.write_text('{"sets": {"U": ["u0"], "X": ["a", ""], "Y": ["b"]}, '
                       '"base_point": "", "coupling": [[1.0], [2.0]], '
                       '"rockafellian": [[0.0, 1.0]]}')
    code, out, _ = run_cli(capsys, "weak-duality", str(problem), *argv,
                           "--format", "structured")
    assert code == 0
    assert json.loads(out)["base_point"] == ""
    assert json.loads(out)["primal_value"] == 1.0


def test_weak_duality_violated_by_rounding_exits_5(tmp_path, capsys):
    # L = R - c and then c + L each round up by 1/16, so the dual value lands
    # one ulp (0.125) above the primal one
    problem = tmp_path / "p.json"
    problem.write_text('{"sets": {"U": ["u0"], "X": ["x0"], "Y": ["y0"]}, '
                       '"coupling": [[-504686855817390.8]], '
                       '"rockafellian": [[583798657415576.1]]}')
    code, out, err = run_cli(capsys, "weak-duality", str(problem))
    assert (code, out) == (5, "")
    assert err.splitlines() == [
        "error: weak duality violated at 'x0': "
        "dual 583798657415576.2 > primal 583798657415576.1"
    ]


def test_unexpected_exception_exits_5_on_one_line(problems_dir, capsys, monkeypatch):
    # the CLI reads audit from its defining module at call time
    from gendual import couple

    def broken(*args, **kwargs):
        raise RuntimeError("kernel fault\nsecond line")

    monkeypatch.setattr(couple, "audit", broken)
    code, out, err = run_cli(capsys, "check-couple", str(problems_dir / "e1_couple.json"))
    assert (code, out) == (5, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: internal: RuntimeError: kernel fault second line (at ")
    assert "Traceback" not in err


# --- fuzz --------------------------------------------------------------------------

def test_fuzz_small_run_passes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "fuzz", "--count", "25", "--seed", "7",
                           "--output", str(tmp_path))
    assert code == 0
    assert "result: PASS" in out
    assert not list(tmp_path.glob("fuzz-repro-*.json"))


def test_fuzz_deterministic_output(capsys, tmp_path):
    args = ("fuzz", "--count", "10", "--seed", "3", "--output", str(tmp_path))
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_fuzz_rejects_count_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--count", "0"])
    assert exc.value.code == 2


def test_fuzz_sign_flip_writes_reproduction(capsys, tmp_path, monkeypatch):
    # harness self-test: a deliberately broken transform must be caught and
    # produce a loadable reproduction file
    from gendual import duality

    from gendual.extreal import neg

    true_transform = duality.lagrangian_of

    def flipped(r, c):
        lag = true_transform(r, c)
        rows = [[neg(v) for v in row] for row in lag.rows]
        return type(lag)(lag.decisions, lag.dual, rows)

    monkeypatch.setattr(duality, "lagrangian_of", flipped)
    code, out, _ = run_cli(capsys, "fuzz", "--count", "5", "--seed", "11",
                           "--output", str(tmp_path))
    assert code == 1
    assert "result: FAIL" in out
    assert "seed 11" in out
    repro = list(tmp_path.glob("fuzz-repro-*.json"))
    assert len(repro) == 1
    problem = load_problem(repro[0], allow_both=True)
    assert problem.rockafellian is not None and problem.lagrangian is not None


def test_fuzz_off_grid_family_is_named_in_report_and_reproduction(capsys, tmp_path):
    # wide entries break identities by rounding at seed 7 (ROADMAP item 2)
    args = ("fuzz", "--count", "20", "--seed", "7", "--values", "wide",
            "--output", str(tmp_path))
    code, out, _ = run_cli(capsys, *args)
    assert code == 1
    assert out.splitlines()[0].endswith(" tol=1e-09 values=wide")
    (repro,) = tmp_path.glob("fuzz-repro-*.json")
    assert load_problem(repro, allow_both=True).comment.endswith(" values=wide")
    _, out, _ = run_cli(capsys, *args, "--format", "structured")
    assert json.loads(out)["values"] == "wide"


# --- entry point -------------------------------------------------------------------

def test_module_entry_point(problems_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "gendual", "weak-duality",
         str(problems_dir / "e1.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "primal value:  0.0" in proc.stdout


# --- start-up: what each command loads ------------------------------------------

# Runs the CLI in a fresh interpreter and prints, on its last line, the
# modules that importing and running it added to those the interpreter
# had loaded at start.  With no arguments it only builds the parser, as
# the benchmark's set-up probe does.  The interpreter runs with -S: site's
# .pth files may preload modules such as typing or pathlib, which would
# hide a command's own import of them.
LOADED_SCRIPT = """
import sys
before = set(sys.modules)
import gendual.cli
if sys.argv[1:]:
    gendual.cli.main(sys.argv[1:])
else:
    gendual.cli.build_parser()
print()
print(*sorted(set(sys.modules) - before))
"""
KERNEL_MODULES = {f"gendual.{name}" for name in
                  ("spaces", "conjugacy", "duality", "couple", "problems", "fuzz")}


def loaded_modules(*argv):
    import gendual

    src = str(Path(gendual.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_SCRIPT, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_building_the_parser_loads_no_kernel_and_no_dataclasses():
    loaded = loaded_modules()
    assert {"gendual.cli", "gendual.defaults"} <= loaded
    assert not loaded & (KERNEL_MODULES | {"dataclasses", "inspect", "typing"})


@pytest.mark.parametrize("argv, absent", [
    (("to-lagrangian", "e1.json"), {"gendual.couple", "gendual.fuzz"}),
    (("to-rockafellian", "e1_lagrangian.json"), {"gendual.couple", "gendual.fuzz"}),
    (("conjugate", "e1.json", "--function", "0,1"),
     {"gendual.duality", "gendual.couple", "gendual.fuzz"}),
    (("weak-duality", "e1.json"), {"gendual.couple", "gendual.fuzz"}),
    (("check-couple", "e1_couple.json"), {"gendual.fuzz"}),
    (("fuzz", "--count", "2"), set()),
])
def test_each_command_loads_only_what_it_runs(problems_dir, tmp_path, argv, absent):
    name, *rest = argv
    rest = [str(problems_dir / a) if a.endswith(".json") else a for a in rest]
    if name == "fuzz":
        rest += ["--output", str(tmp_path)]
    loaded = loaded_modules(name, *rest)
    assert "gendual.extreal" in loaded
    assert not loaded & absent
    assert not loaded & {"dataclasses", "inspect", "typing"}
    # only fuzz builds a path, for its reproduction file
    assert ("pathlib" in loaded) == (name == "fuzz")


def test_every_public_name_resolves():
    import gendual

    namespace = {}
    exec("from gendual import *", namespace)
    assert set(gendual.__all__) <= namespace.keys()
    assert set(gendual.__all__) <= set(dir(gendual))
    for name in gendual.__all__:
        assert namespace[name] is getattr(gendual, name) is not None
    assert gendual.DEFAULT_TOL == 1e-9
    with pytest.raises(AttributeError):
        gendual.no_such_name
    # a submodule is an attribute of the package before anything loads it
    proc = subprocess.run(
        [sys.executable, "-c", "import gendual; print(gendual.couple.audit.__module__)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(gendual.__file__).parent.parent)},
    )
    assert proc.stdout == "gendual.couple\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "weak-duality", str(bad))
    assert code == 2
    assert "error:" in err


SETS_1X1 = '"sets": {"U": ["u0"], "X": ["a"], "Y": ["b"]}, "rockafellian": [[0.0]]'


@pytest.mark.parametrize("body, where", [
    # json reads 1e400 as float inf and a 400-digit integer as an int that
    # no double can hold; neither may pass for an infinity
    ('"coupling": [[1e400]]', "coupling row 0 column 0"),
    ('"coupling": [[-1' + "0" * 400 + ']]', "coupling row 0 column 0"),
    ('"embedding": {"X": [[1e400]], "Y": [[1.0]]}', "embedding.X point 0"),
    # a dot product that meets inf + (-inf) has no value
    ('"embedding": {"X": [[1e300, 1e300]], "Y": [[1e300, -1e300]]}',
     "X point 'a' and Y point 'b'"),
], ids=["float", "integer", "embedding-point", "embedding-dot-product"])
def test_unrepresentable_numbers_exit_2(tmp_path, capsys, body, where):
    bad = tmp_path / "bad.json"
    bad.write_text("{" + SETS_1X1 + ", " + body + "}")
    code, _, err = run_cli(capsys, "to-lagrangian", str(bad))
    assert code == 2
    assert where in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("table, i, j, raw, message", [
    ("coupling", 1, 1, "1e400", "number outside the double range"),
    ("rockafellian", 0, 1, "-1e400", "number outside the double range"),
    ("coupling", 0, 1, "true",
     'invalid entry True (only numbers or "inf"/"-inf")'),
    ("rockafellian", 1, 0, '"nan"',
     'invalid entry \'nan\' (only numbers or "inf"/"-inf")'),
])
def test_bad_table_entry_is_located(tmp_path, capsys, table, i, j, raw, message):
    tables = {name: [["0", "0"], ["0", "0"]] for name in ("coupling", "rockafellian")}
    tables[table][i][j] = raw
    body = ", ".join(
        f'"{name}": [' + ", ".join(f"[{', '.join(row)}]" for row in rows) + "]"
        for name, rows in tables.items()
    )
    bad = tmp_path / "bad.json"
    bad.write_text('{"sets": {"U": ["u0", "u1"], "X": ["a", "b"], "Y": ["c", "d"]}, '
                   + body + "}")
    code, _, err = run_cli(capsys, "to-lagrangian", str(bad))
    assert code == 2
    assert err == f"error: {table} row {i} column {j}: {message}\n"


WORDS_AND_ZEROS = ['"inf"', '"-inf"', "0", "-0.0"]


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1E400", "1e309"])
@pytest.mark.parametrize("table", ["coupling", "rockafellian", "lagrangian"])
def test_overflowing_literal_among_words_is_located(tmp_path, capsys, table, literal):
    # json reads the literal as an infinity, in a row that also holds both
    # words and both zeros: the row read must reject it, not take it for a
    # word, and the entry read names it
    labels = {key: [f"{key.lower()}{i}" for i in range(5)] for key in "UXY"}
    rows = [WORDS_AND_ZEROS + ["1"] for _ in range(5)]
    rows[2] = WORDS_AND_ZEROS[:2] + [literal] + WORDS_AND_ZEROS[2:]
    plain = [WORDS_AND_ZEROS + ["1"] for _ in range(5)]
    second = "lagrangian" if table == "lagrangian" else "rockafellian"
    tables = {"coupling": plain, second: plain, table: rows}
    body = ", ".join(
        f'"{name}": [' + ", ".join(f"[{', '.join(row)}]" for row in t) + "]"
        for name, t in tables.items()
    )
    bad = tmp_path / "bad.json"
    bad.write_text('{"sets": ' + json.dumps(labels) + ", " + body + "}")
    command = "to-rockafellian" if second == "lagrangian" else "to-lagrangian"
    code, out, err = run_cli(capsys, command, str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {table} row 2 column 2: number outside the double range\n"


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command, problem", [
    ("check-couple", "e1_couple.json"),
    ("weak-duality", "e1.json"),
])
def test_tol_must_be_finite_and_nonnegative(problems_dir, capsys, command, problem, tol):
    with pytest.raises(SystemExit) as exc:
        main([command, str(problems_dir / problem), f"--tol={tol}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"gendual {command}: error: argument --tol: must be finite and nonnegative"
    ]


@pytest.mark.parametrize("command, problem, extra", [
    ("conjugate", "e1.json", ["--function", "5,3"]),
    ("to-lagrangian", "e1.json", []),
    ("to-rockafellian", "e1_lagrangian.json", []),
])
def test_tol_only_where_a_comparison_reads_it(problems_dir, capsys, command, problem,
                                              extra):
    with pytest.raises(SystemExit) as exc:
        main([command, str(problems_dir / problem), *extra, "--tol=1e-9"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "gendual: error: unrecognized arguments: --tol=1e-9"
    ]


def test_deltas_is_not_an_option(problems_dir, capsys):
    # minimality is decided exactly, with no probe steps to choose
    with pytest.raises(SystemExit) as exc:
        main(["check-couple", str(problems_dir / "e1_couple.json"), "--deltas", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "gendual: error: unrecognized arguments: --deltas 1"
    ]


LONG_INT = "1" * 5000  # beyond the default int() digit limit of 4300


@pytest.mark.parametrize("site, body, message", [
    ("problem", "{" + SETS_1X1 + ', "coupling": [[1.0]], "coupling": [[2.0]]}',
     "duplicate key 'coupling'"),
    ("function", '[1.0, {"k": 1, "k": 2}]', "duplicate key 'k'"),
    ("problem", "{" + SETS_1X1 + ', "coupling": [[' + LONG_INT + "]]}",
     "integer literal outside the double range"),
    ("function", "[" + LONG_INT + ", 3]", "integer literal outside the double range"),
], ids=["duplicate-key-problem", "duplicate-key-function",
        "long-integer-problem", "long-integer-function"])
def test_unreadable_json_exits_2_naming_the_file(
    problems_dir, tmp_path, capsys, site, body, message
):
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    if site == "problem":
        code, _, err = run_cli(capsys, "to-lagrangian", str(bad))
    else:
        code, _, err = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                               "--function", str(bad))
    assert code == 2
    assert err.splitlines() == [f"error: {bad}: {message}"]


@pytest.mark.parametrize("site", ["problem", "function"])
@pytest.mark.parametrize("content, message", [
    (b"[" * 200000, "invalid JSON: nesting too deep"),
    (b'{"comment": "\xff"}', "not UTF-8 text"),
], ids=["deep-nesting", "not-utf8"])
def test_input_faults_exit_2_naming_the_file(
    problems_dir, tmp_path, capsys, site, content, message
):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if site == "problem":
        code, _, err = run_cli(capsys, "to-lagrangian", str(bad))
    else:
        code, _, err = run_cli(capsys, "conjugate", str(problems_dir / "e1.json"),
                               "--function", str(bad))
    assert code == 2
    assert err.splitlines() == [f"error: {bad}: {message}"]



# --- malformed input: one diagnostic line, never a traceback ------------------

GALLERY = Path(__file__).resolve().parent.parent / "problems"
GALLERY_FILES = sorted(p.name for p in GALLERY.glob("*.json"))
BAD_TOKENS = ("true", "null", '"nan"', '"Inf"', "1e400", "-1e400", "1" + "0" * 400,
              "[]", "{}", '"x"', "-0", "0")
# a JSON string or number in the text
JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')
TABLES = ("coupling", "rockafellian", "lagrangian")


@st.composite
def mutated_files(draw):
    """A gallery file with one fault: truncated, a token swapped for a bad
    one, a key dropped, or a table row lengthened or shortened."""
    text = (GALLERY / draw(st.sampled_from(GALLERY_FILES))).read_text(encoding="utf-8")
    kind = draw(st.sampled_from(["truncate", "swap", "drop_key", "row_length"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "swap":
        token = draw(st.sampled_from(list(JSON_TOKEN.finditer(text))))
        return text[:token.start()] + draw(st.sampled_from(BAD_TOKENS)) + text[token.end():]
    doc = json.loads(text)
    if kind == "drop_key":
        owners = [doc] + [v for v in doc.values() if isinstance(v, dict)]
        owner = draw(st.sampled_from(owners))
        del owner[draw(st.sampled_from(sorted(owner)))]
    else:
        table = doc[draw(st.sampled_from([k for k in TABLES if k in doc]))]
        row = table[draw(st.integers(0, len(table) - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(st.sampled_from([1.0, "inf", 2])))
    return json.dumps(doc, indent=2) + "\n"


def run_in_fresh_dir(argv, files=None):
    """Exit code, stdout and stderr of ``main(argv)``, run in a temporary
    directory holding copies of the gallery files and ``files``."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in GALLERY_FILES:
            shutil.copy(GALLERY / name, tmp)
        for name, text in (files or {}).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def assert_one_line_diagnostic(code, out, err):
    assert code in range(6)
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in out + err
    assert "error: internal:" not in err, err


FILE_COMMANDS = [
    ["to-lagrangian", "m.json"],
    ["to-rockafellian", "m.json"],
    ["to-lagrangian", "m.json", "--output", "out.json"],
    ["weak-duality", "m.json"],
    ["check-couple", "m.json"],
    ["check-couple", "e1.json", "m.json"],
    ["conjugate", "m.json", "--function", "1,inf"],
    ["conjugate", "m.json", "--side", "dual", "--function=-1,0,2.5"],
    ["conjugate", "e1.json", "--function", "m.json"],
]


@given(mutated_files(), st.sampled_from(FILE_COMMANDS),
       st.sampled_from(["text", "csv", "structured"]))
@settings(max_examples=300, deadline=None)
def test_mutated_gallery_file_gives_one_line_and_no_internal_error(text, argv, fmt):
    code, out, err = run_in_fresh_dir(argv + ["--format", fmt], {"m.json": text})
    assert_one_line_diagnostic(code, out, err)


COMMAND_NAMES = ("conjugate", "to-lagrangian", "to-rockafellian", "check-couple",
                 "weak-duality", "fuzz")
FLAG_VALUES = {
    "--function": ("1,2", "inf,-inf", "1e400,0", "Inf,3", "x", "e1.json", "1,2,3"),
    "--side": ("primal", "dual", "sideways"),
    "--format": ("text", "csv", "structured", "yaml"),
    "--tol": ("1e-9", "0", "-1", "nan"),
    "--base-point": ("x0", "x1", "zz"),
    "--output": ("out.json", "no/such/dir/out.json", "."),
    "--count": ("0", "1", "2"),
    "--max-set-size": ("1", "3"),
    "--seed": ("7", "x"),
    "--grid": ("-2:2", "3:1", "x"),
    "--inf-prob": ("0.5", "0.1", "nan"),
    "--values": ("integer", "fractional", "tiny", "wide", "near-overflow", "decimal"),
}


@st.composite
def argvs(draw):
    """A command, zero to two files, some flags with values, and now and
    then a stray word."""
    command = draw(st.sampled_from(COMMAND_NAMES))
    # fuzz runs 1000 instances by default; a later --count still wins
    argv = [command] + (["--count", "2"] if command == "fuzz" else [])
    argv += draw(st.lists(st.sampled_from(GALLERY_FILES + ["missing.json", "."]),
                          max_size=2))
    for flag in draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), max_size=3)):
        argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(["-h", "", "x", "--nope", "-1"])))
    return argv


@given(argvs())
@settings(max_examples=300, deadline=None)
def test_random_argv_gives_one_line_and_no_internal_error(argv):
    code, out, err = run_in_fresh_dir(argv)
    if argv[0] == "fuzz" and code in (0, 1):
        err = "".join(line for line in err.splitlines(True)
                      if not line.startswith("elapsed: "))
    assert_one_line_diagnostic(code, out, err)
