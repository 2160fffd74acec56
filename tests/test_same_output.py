"""Every command of the byte-identity harness, ``tools/same_output.py``,
does on ``src`` what its record, ``tests/same_output.json``, says.

A change meant to alter the output regenerates the record from the
repository root with

    python3 tools/same_output.py --record src

and lists the changed commands, and why they changed, in CHANGES.md.  The
two-tree mode of the harness shows the first differing line.
"""

import importlib.util
import json
import platform
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "same_output", REPO_ROOT / "tools" / "same_output.py")
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)


def _minor(version):
    return version.split(".")[:2]


def test_every_harness_command_matches_its_record():
    recorded = json.loads(same_output.RECORD.read_text(encoding="utf-8"))["python"]
    if _minor(recorded) != _minor(platform.python_version()):
        # argparse's help and usage text differs between minor versions
        pytest.skip(f"the record was made with Python {recorded}; regenerate it")
    changed = same_output.changed_commands(REPO_ROOT / "src")
    assert not changed, "\n".join([f"{len(changed)} commands differ from the record:",
                                    *changed])
