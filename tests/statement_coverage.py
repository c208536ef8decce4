"""Statement coverage of ``src/rabinowitz`` by the tier-1 suite, stdlib only.

Run from anywhere, with pytest installed:

    python tests/statement_coverage.py

The script runs the tier-1 suite (``pytest -q`` at the repository root) in
this process under ``sys.settrace`` and prints every statement of
``src/rabinowitz`` that no test ran, as ``file:line: source``.  It exits 0
when every statement ran, apart from the allowlist below, and 1 when one did
not, when an allowlisted statement ran or is gone, or when the suite itself
fails.  Tracing makes the suite about three times slower.  The file name does
not start with ``test_``, so pytest does not collect it.

A statement ran if a line event fell on one of its own lines: the whole of a
simple statement, and the header of a compound one (decorators included, its
body excluded).  Docstrings are not statements here.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rabinowitz"

# (file, statement source) -> why the statement emits no line event when run.
ALLOWED = {
    ("cli.py", "sys.exit(main())"): (
        "the __main__ guard runs only in the subprocess of "
        "test_scenario_cli.py::test_module_runs_main, which this tracer does not see"
    ),
}


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of every statement of one file."""
    found = []
    for parent in ast.walk(ast.parse(path.read_text())):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)
            for node in block if isinstance(block, list) else ():
                if _is_docstring(node, parent):
                    continue
                body = getattr(node, "body", None)
                last = body[0].lineno - 1 if body else node.end_lineno
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                found.append((node.lineno, set(range(first, last + 1))))
    return sorted(found)


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 in process; return pytest's exit code and the lines run per file."""
    hits: dict[str, set[int]] = {str(path): set() for path in SRC.glob("*.py")}
    by_name: dict[str, set[int] | None] = {}  # code file name -> its hits, if traced

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hits.get(str(Path(name).resolve()))
        lines = by_name[name]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    os.chdir(ROOT)  # pytest then reads its testpaths from pyproject.toml
    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imports nothing of the package, so its module code is traced

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main() -> int:
    status, hits = run_traced()
    missing, stale = [], set(ALLOWED)
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        ran = hits[str(path)]
        for lineno, own in statements(path):
            text = source[lineno - 1].strip()
            if own & ran:
                continue
            if (path.name, text) in ALLOWED:
                stale.discard((path.name, text))
            else:
                missing.append(f"{path.relative_to(ROOT)}:{lineno}: {text}")
    print(f"\n{len(missing)} statement(s) of src/rabinowitz not run by tier-1")
    for line in missing:
        print(line)
    for name, text in sorted(stale):
        print(f"allowlisted but run or gone: {name}: {text}")
    if status:
        print(f"tier-1 failed (pytest exit code {status})")
    return 1 if missing or stale or status else 0


if __name__ == "__main__":
    sys.exit(main())
