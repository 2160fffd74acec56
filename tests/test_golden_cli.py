"""Gallery CLI output, byte for byte.

Runs ``gendual.cli.main`` in-process on the files in ``problems/``, on one
file made from them (``MADE``) and on two fixed-seed fuzz runs, and
compares each command's exit code and stdout with ``golden_cli.json``.
The transform commands also run with ``--output``, and the file they write
is compared too.  Each case runs in a temporary directory, so a failing fuzz
case leaves its repro files there.
A change meant to alter this output regenerates that file from the
repository root with

    PYTHONPATH=src:tests python -c "import json, test_golden_cli as g; open('tests/golden_cli.json', 'w').write(json.dumps(g.record(), indent=1) + '\\n')"

and says why the output changed.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from gendual.cli import main

HERE = Path(__file__).resolve().parent
PROBLEMS = HERE.parent / "problems"
GOLDEN = HERE / "golden_cli.json"


def _nudged_e1_couple():
    """e1_couple.json with R(u0,x0) raised from 2.0 to 2.0001, a slack of
    1e-4 above its least feasible value that item (i) must name."""
    doc = json.loads((PROBLEMS / "e1_couple.json").read_text(encoding="utf-8"))
    doc["rockafellian"][0][0] = 2.0001
    return json.dumps(doc)


# files written into the working directory of the command that reads them
MADE = {"e1_couple_nudged.json": _nudged_e1_couple}

COMMANDS = [
    ["check-couple", "e1_couple.json"],
    ["check-couple", "e1_couple_nudged.json"],
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
# the transform commands, run again with --output: the file is pinned too
OUTPUT_COMMANDS = [
    cmd + ["--output", "out.json"] for cmd in COMMANDS if cmd[0].startswith("to-")
]


def _key(command, fmt):
    return " ".join(command + ["--format", fmt])


def run(command, fmt):
    """Exit code and stdout, plus the text of ``out.json`` for a command
    that writes it; an --output path and the ``MADE`` files are taken
    relative to the current directory."""
    for a in command:
        if a in MADE:
            Path(a).write_text(MADE[a](), encoding="utf-8")
    gallery = {a for a in command if a.endswith(".json")} - set(MADE) - {"out.json"}
    argv = [str(PROBLEMS / a) if a in gallery else a for a in command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", fmt])
    result = {"exit": code, "stdout": out.getvalue()}
    if "out.json" in command:
        result["output"] = Path("out.json").read_text(encoding="utf-8")
    return result


def record():
    """The golden entries, run in a temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            golden = {_key(cmd, fmt): run(cmd, fmt) for cmd in COMMANDS for fmt in FORMATS}
            golden.update((_key(cmd, "text"), run(cmd, "text")) for cmd in OUTPUT_COMMANDS)
        finally:
            os.chdir(cwd)
    return golden


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS, ids="-".join)
def test_gallery_output_is_unchanged(command, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run(command, fmt) == golden[_key(command, fmt)]


@pytest.mark.parametrize("command", OUTPUT_COMMANDS, ids="-".join)
def test_transform_output_file_is_unchanged(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run(command, "text") == golden[_key(command, "text")]
