import ast
import importlib
import json
import re
import types
from pathlib import Path

import rabinowitz

SRC = Path(rabinowitz.__file__).resolve().parent
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_all_lists_resolvable_non_module_names():
    assert len(set(rabinowitz.__all__)) == len(rabinowitz.__all__)
    for name in rabinowitz.__all__:
        assert not isinstance(getattr(rabinowitz, name), types.ModuleType), name


def test_all_is_exactly_what_the_package_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(rabinowitz.__all__) == imported


def test_every_import_is_used():
    # __init__.py imports only to re-export.
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports unused {sorted(imported - used)}"


def test_benchmark_traced_layers_exist():
    # The traced benchmark wraps each public function by name; a layer
    # whose function is gone makes its per-layer lookup fail.
    pattern = re.compile(r"(\w+)\.(\w+)\.(?:calls|self_ref)")
    names = (m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"])
    traced = {match.groups() for match in map(pattern.fullmatch, names) if match}
    assert traced
    for module, function in traced:
        if (module, function) == ("bundle", "crit"):
            assert callable(rabinowitz.BundleParams.crit)
            continue
        mod = importlib.import_module(f"rabinowitz.{module}")
        fn = getattr(mod, function, None)
        assert isinstance(fn, types.FunctionType), f"{module}.{function}"
        assert fn.__module__ == mod.__name__, f"{module}.{function}"


def test_every_public_name_has_a_reason():
    # The package docstring's rule: a name stays public if the CLI or engine
    # needs it, tests/test_acceptance.py imports it, or the per-layer spec
    # names it as module.name.  Field stores, keyword arguments and
    # attributes that share a name do not count.
    engine = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                engine.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                engine.update(alias.name for alias in node.names)
    acceptance = {
        alias.name
        for node in ast.walk(ast.parse((Path(__file__).parent / "test_acceptance.py").read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rabinowitz")
        for alias in node.names
    }
    pattern = re.compile(r"(\w+)\.(\w+)\.\w+")
    names = (m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"])
    spec = {match.groups() for match in map(pattern.fullmatch, names) if match}
    for name in rabinowitz.__all__:
        module = getattr(rabinowitz, name).__module__.rpartition(".")[2]
        reasons = (name in engine, name in acceptance, (module, name) in spec)
        assert any(reasons), f"{module}.{name} is public for no reason"


def test_every_lru_cache_is_bounded():
    # A memo without a finite maxsize keeps every key and value for the life
    # of the process.  An unbounded ``cache`` is allowed only on a function
    # without parameters, which it maps to one value.
    memos = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call) and _named(node.func) == "lru_cache":
                sizes = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
                assert len(sizes) == 1, f"{where}: lru_cache without maxsize"
                size = sizes[0]
                assert isinstance(size, ast.Constant) and isinstance(size.value, int), (
                    f"{where}: maxsize must be a finite int"
                )
                memos += 1
            elif isinstance(node, ast.Call) and _named(node.func) == "cache":
                raise AssertionError(f"{where}: unbounded cache")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    assert _named(dec) != "lru_cache", f"{where}: lru_cache without maxsize"
                    if _named(dec) == "cache":
                        assert not ast.unparse(node.args), f"{where}: unbounded cache"
    # _pool and _certified_bound; the candidate memo is bounded by the codes
    # it holds (test_randomized.py::test_candidate_memo_is_bounded_by_the_codes_it_holds).
    assert memos >= 2


def test_scenario_reads_each_value_type_in_one_reader():
    # A bare int() or Fraction() lets a value the interpreter cannot convert
    # (a 5,000-digit integer) escape as a ValueError traceback instead of a
    # parse error with its line and exit code 4.
    tree = ast.parse((SRC / "scenario.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def calls(root, name):
        return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == name for node in ast.walk(root))

    for value_type, reader in (("int", "_parse_int"), ("Fraction", "parse_fraction")):
        assert calls(tree, value_type) == calls(functions[reader], value_type) == 1, (
            f"scenario.py calls {value_type} outside {reader}"
        )


def test_no_module_imports_dataclasses():
    # Every engine record is a named tuple; ``dataclasses`` (and ``inspect``
    # through it) would add to the import time of every CLI call.
    for path in sorted(SRC.glob("*.py")):
        for lineno, module in _imported_modules(path):
            assert module != "dataclasses", f"{path.name}:{lineno} imports dataclasses"


def _named(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_checker_imports_nothing_from_the_engine():
    # bench/checker.py is the reference the tests compare the engine
    # against; an engine fault that reached it through an import would pass.
    checker = BENCHMARK.parent / "bench" / "checker.py"
    for lineno, module in _imported_modules(checker):
        assert module != "rabinowitz", f"checker.py:{lineno} imports the engine"


def _imported_modules(path: Path):
    """(line, top-level package) of every module a file imports from."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, (node.module or "").split(".")[0]
