import importlib.util
import json
import math

import pytest

from gendual import ExtReal, ProblemFormatError
from gendual.problems import (
    Problem,
    load_problem,
    parse_problem,
    save_problem,
    serialize_problem,
)

MINIMAL = {
    "sets": {"U": ["u0"], "X": ["x0", "x1"], "Y": ["y0"]},
    "coupling": [[0.0], [1.0]],
    "rockafellian": [[2.0, "inf"]],
}


def as_text(obj):
    return json.dumps(obj)


def test_parse_minimal():
    p = parse_problem(as_text(MINIMAL))
    assert p.decisions.labels == ("u0",)
    assert p.coupling("x1", "y0") == ExtReal(1.0)
    assert p.rockafellian("u0", "x1") == math.inf
    assert p.lagrangian is None and p.base_point is None


def test_round_trip_identity_in_memory():
    text = serialize_problem(parse_problem(as_text(MINIMAL)))
    p1 = parse_problem(text)
    p2 = parse_problem(serialize_problem(p1))
    assert p1.coupling == p2.coupling
    assert p1.rockafellian == p2.rockafellian
    # canonical text is a fixed point
    assert serialize_problem(p1) == serialize_problem(p2) == text


def test_round_trip_preserves_infinities_and_precision(tmp_path):
    raw = dict(MINIMAL)
    raw["rockafellian"] = [[0.1 + 0.2, "-inf"]]
    path = tmp_path / "p.json"
    path.write_text(serialize_problem(parse_problem(as_text(raw))))
    p = load_problem(path)
    assert p.rockafellian("u0", "x0") == ExtReal(0.1 + 0.2)
    assert p.rockafellian("u0", "x1") == -math.inf


def test_gallery_round_trips_byte_identically(problems_dir):
    files = sorted(problems_dir.glob("*.json"))
    assert len(files) == 5
    for path in files:
        original = path.read_text(encoding="utf-8")
        reloaded = parse_problem(original, allow_both=True)
        assert serialize_problem(reloaded) == original, path.name


def test_embedding_builds_bilinear_coupling(problems_dir):
    p = load_problem(problems_dir / "fenchel_quadratic.json")
    assert p.embedding is not None
    assert p.coupling("2", "-3") == ExtReal(-6.0)
    assert p.coupling("0", "3") == ExtReal(0.0)


def test_invalid_json_reports_position():
    with pytest.raises(ProblemFormatError, match=r"line \d+ column \d+"):
        parse_problem("{\n  \"sets\": }")


def test_wrong_case_infinity_rejected_with_location():
    raw = dict(MINIMAL)
    raw["rockafellian"] = [[2.0, "Inf"]]
    with pytest.raises(ProblemFormatError, match=r"rockafellian row 0 column 1"):
        parse_problem(as_text(raw))


def test_json_infinity_token_rejected():
    text = as_text(MINIMAL).replace('"inf"', "Infinity")
    with pytest.raises(ProblemFormatError, match="Infinity"):
        parse_problem(text)


def test_bool_entry_rejected():
    raw = dict(MINIMAL)
    raw["coupling"] = [[True], [1.0]]
    with pytest.raises(ProblemFormatError):
        parse_problem(as_text(raw))


def test_unknown_keys_rejected():
    raw = dict(MINIMAL)
    raw["extra"] = 1
    with pytest.raises(ProblemFormatError, match="unknown keys"):
        parse_problem(as_text(raw))


def test_sets_must_be_exactly_uxy():
    raw = dict(MINIMAL)
    raw["sets"] = {"U": ["u0"], "X": ["x0", "x1"]}
    with pytest.raises(ProblemFormatError):
        parse_problem(as_text(raw))


def test_ragged_table_rejected():
    raw = dict(MINIMAL)
    raw["rockafellian"] = [[1.0]]
    with pytest.raises(ProblemFormatError, match="rockafellian"):
        parse_problem(as_text(raw))


def test_duplicate_labels_rejected():
    raw = dict(MINIMAL)
    raw["sets"] = {"U": ["u0"], "X": ["x0", "x0"], "Y": ["y0"]}
    with pytest.raises(ProblemFormatError, match="duplicate"):
        parse_problem(as_text(raw))


def test_both_tables_need_opt_in():
    raw = dict(MINIMAL)
    raw["lagrangian"] = [[0.0]]
    with pytest.raises(ProblemFormatError, match="mutually exclusive"):
        parse_problem(as_text(raw))
    p = parse_problem(as_text(raw), allow_both=True)
    assert p.rockafellian is not None and p.lagrangian is not None


def test_neither_table_rejected():
    raw = {k: v for k, v in MINIMAL.items() if k != "rockafellian"}
    with pytest.raises(ProblemFormatError, match="required"):
        parse_problem(as_text(raw))


def test_coupling_and_embedding_mutually_exclusive():
    raw = dict(MINIMAL)
    raw["embedding"] = {"X": [[0.0], [1.0]], "Y": [[1.0]]}
    with pytest.raises(ProblemFormatError, match="exactly one"):
        parse_problem(as_text(raw))


def test_embedding_dimension_mismatch():
    raw = {k: v for k, v in MINIMAL.items() if k != "coupling"}
    raw["embedding"] = {"X": [[0.0, 1.0], [1.0, 2.0]], "Y": [[1.0]]}
    with pytest.raises(ProblemFormatError, match="dimension"):
        parse_problem(as_text(raw))


def test_base_point_must_be_in_x():
    raw = dict(MINIMAL)
    raw["base_point"] = "y0"
    with pytest.raises(ProblemFormatError, match="base_point"):
        parse_problem(as_text(raw))


def test_save_and_load(tmp_path, problems_dir):
    p = load_problem(problems_dir / "e1.json")
    out = tmp_path / "copy.json"
    save_problem(p, out)
    assert out.read_text() == (problems_dir / "e1.json").read_text()


def test_require_helpers(problems_dir):
    from gendual import MissingTableError

    p = load_problem(problems_dir / "e1.json")
    assert p.require_rockafellian() is p.rockafellian
    with pytest.raises(MissingTableError):
        p.require_lagrangian()


def test_make_gallery_reproduces_problems_dir(problems_dir, tmp_path, monkeypatch):
    script = problems_dir.parent / "tools" / "make_gallery.py"
    spec = importlib.util.spec_from_file_location("make_gallery", script)
    make_gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_gallery)
    monkeypatch.setattr(make_gallery, "OUT", tmp_path)
    make_gallery.main()
    want = sorted(p.name for p in problems_dir.glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for name in want:
        assert (tmp_path / name).read_bytes() == (problems_dir / name).read_bytes(), name
