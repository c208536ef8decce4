"""Byte-for-byte CLI transcript on the golden scenarios.

The transcript records the stdout and exit code of every command below; a
refactor of the engine must leave it unchanged.  To re-record it after an
intended change of output, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import difflib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rabinowitz.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = Path(__file__).resolve().parent / "golden" / "cli_transcript.txt"

SCENARIOS = ("aspherical4", "c0", "c1", "cp1", "neg2", "neg4")
# (scenario, degree of its xi0, level window); c0's slices are infinite.
ENUMERATE_WINDOWS = (
    ("aspherical4", 5, "-2:2"),
    ("c1", 3, "-12:12"),
    ("cp1", 3, "-10:10"),
    ("neg2", 3, "-8:8"),
    ("neg4", 5, "-8:8"),
)


def commands() -> list[tuple[str, ...]]:
    cmds: list[tuple[str, ...]] = []
    for name in SCENARIOS:
        path = f"scenarios/{name}.scn"
        primitive = ("primitive", "--scenario", path, "--cycle", "xi0")
        cmds += [
            ("validate", "--scenario", path),
            ("diff", "--scenario", path, "--cycle", "xi0"),
            primitive,
            primitive + ("--random-table",),
            primitive + ("--random-table", "--seed", "1"),
            primitive + ("--random-table", "--seed", "2"),
        ]
        for seed in ((), ("--seed", "1"), ("--seed", "2")):
            cmds.append(("check", "--scenario", path) + seed)
    for name, degree, window in ENUMERATE_WINDOWS:
        for twice_mu in (degree, degree + 2):
            cmds.append((
                "enumerate", "--scenario", f"scenarios/{name}.scn",
                "--degree", str(twice_mu), "--floor=-3/2", f"--window={window}",
            ))
    for command in ("diff", "primitive"):
        cmds.append((command, "--scenario", "scenarios/cp1.scn", "--cycle", "notclosed"))
    return cmds


def transcript() -> str:
    blocks = []
    for argv in commands():
        absolute = [str(ROOT / a) if a.startswith("scenarios/") else a for a in argv]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(absolute)
        blocks.append(f"$ rabinowitz {' '.join(argv)}\n{buf.getvalue()}[exit {code}]\n")
    return "\n".join(blocks)


def test_cli_transcript_unchanged():
    expected, actual = TRANSCRIPT.read_text(), transcript()
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            str(TRANSCRIPT.relative_to(ROOT)),
            "actual",
        )
        pytest.fail("CLI transcript changed:\n" + "".join(diff), pytrace=False)


if __name__ == "__main__":
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(transcript())
