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
