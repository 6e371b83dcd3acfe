"""The benchmark under `bench/` imports names from the package; each of
them must keep resolving, so that trimming the package's exports cannot
break the benchmark without a test failing."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _imported_names():
    """(module, name, file) for every `from tandemdup... import name` in bench/*.py."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "tandemdup" or node.module.startswith("tandemdup."):
                    found += [(node.module, alias.name, path.name) for alias in node.names]
    return found


def test_every_name_the_benchmark_imports_resolves():
    found = _imported_names()
    names = {name for _, name, _ in found}
    assert {"seed_regex", "regex_to_nfa", "LabeledAutomaton"} <= names
    missing = []
    for module, name, where in found:
        if not hasattr(importlib.import_module(module), name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{where}: from {module} import {name}")
    assert not missing, missing
