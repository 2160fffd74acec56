"""Gallery CLI output, byte for byte.

Runs ``gendual.cli.main`` in-process on the files in ``problems/`` and on
two fixed-seed fuzz runs, and compares each command's exit code and stdout
with ``golden_cli.json``.  Each case runs in a temporary directory, so a
failing fuzz case leaves its repro files there.  A change meant to alter
this output regenerates that file from the repository root with

    PYTHONPATH=src:tests python -c "import json, test_golden_cli as g; open('tests/golden_cli.json', 'w').write(json.dumps(g.record(), indent=1) + '\\n')"

and says why the output changed.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from gendual.cli import main

HERE = Path(__file__).resolve().parent
PROBLEMS = HERE.parent / "problems"
GOLDEN = HERE / "golden_cli.json"

COMMANDS = [
    ["check-couple", "e1_couple.json"],
    ["check-couple", "e1.json", "e1_lagrangian.json"],
    ["weak-duality", "e1.json"],
    ["weak-duality", "fenchel_quadratic.json"],
    ["weak-duality", "spike.json"],
    ["to-lagrangian", "e1.json"],
    ["to-lagrangian", "fenchel_quadratic.json"],
    ["to-lagrangian", "spike.json"],
    ["to-rockafellian", "e1_lagrangian.json"],
    ["conjugate", "e1.json", "--function", "5,3"],
    ["conjugate", "e1.json", "--side", "dual", "--function=-2,inf"],
    ["conjugate", "fenchel_quadratic.json", "--function", "4.5,2,0.5,0,0.5,2,4.5"],
    ["conjugate", "fenchel_quadratic.json", "--side", "dual",
     "--function", "4.5,2,0.5,0,0.5,2,inf"],
    ["conjugate", "spike.json", "--function", "1,inf,-inf"],
    ["conjugate", "spike.json", "--side", "dual", "--function=-1,0,2.5"],
    ["fuzz", "--count", "100", "--max-set-size", "5", "--seed", "0"],
    ["fuzz", "--count", "100", "--max-set-size", "5", "--seed", "1"],
]
FORMATS = ("text", "csv", "structured")


def _key(command, fmt):
    return " ".join(command + ["--format", fmt])


def run(command, fmt):
    argv = [str(PROBLEMS / a) if a.endswith(".json") else a for a in command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", fmt])
    return {"exit": code, "stdout": out.getvalue()}


def record():
    return {_key(cmd, fmt): run(cmd, fmt) for cmd in COMMANDS for fmt in FORMATS}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS, ids="-".join)
def test_gallery_output_is_unchanged(command, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run(command, fmt) == golden[_key(command, fmt)]
