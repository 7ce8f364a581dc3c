"""Golden output: the exact stdout and exit code of small commands.

``tests/golden/commands.json`` lists each command's name, arguments and
exit code; ``tests/golden/<name>.out`` holds its stdout byte for byte.
Arguments are resolved from inside ``tests/golden/``, so the sweep command
reads ``sweep.cfg`` there. A change to any document shows up as a diff of
these files. To rewrite them after a deliberate change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from modulidim.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("command", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_golden_output(command, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out = _run(command["argv"])
    expected = (GOLDEN / f"{command['name']}.out").read_bytes()
    assert out.encode("utf-8") == expected
    assert code == command["exit"]


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for command in COMMANDS:
        command["exit"], out = _run(command["argv"])
        Path(f"{command['name']}.out").write_bytes(out.encode("utf-8"))
    Path("commands.json").write_text(json.dumps(COMMANDS, indent=2) + "\n", encoding="utf-8")
