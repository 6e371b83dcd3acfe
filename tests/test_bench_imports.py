"""The benchmark under `bench/` imports names from the package; each of
them must keep resolving, so that trimming the package's exports cannot
break the benchmark without a test failing.  Its traced run replays
`build_automaton` through public calls, which must keep giving the same
machine."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from tandemdup import DuplicationSystem, build_automaton
from helpers import canonical_patterns

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


def _patched_pairs():
    """(module, name) for every `(module_alias, "name", ...)` tuple in
    bench/tracing.py whose alias is a `from tandemdup import module as alias`."""
    path = BENCH / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    aliases = {
        alias.asname: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tandemdup"
        for alias in node.names
        if alias.asname
    }
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            owner, name = node.elts[:2]
            if (
                isinstance(owner, ast.Name)
                and owner.id in aliases
                and isinstance(name, ast.Constant)
                and isinstance(name.value, str)
            ):
                pairs.add((aliases[owner.id], name.value))
    return pairs


def test_every_name_the_traced_run_patches_exists():
    # the traced run swaps these module globals for wrappers; a missing one
    # would crash only that run
    pairs = _patched_pairs()
    assert ("tandemdup.cli", "build_automaton") in pairs
    assert ("tandemdup.capacity", "transfer_matrix") in pairs
    missing = [
        f"{module}.{name}"
        for module, name in sorted(pairs)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing


def test_the_traced_closure_hook_reads_a_sized_certificate():
    # the traced run wraps `cli.verify_duplication_closure` and counts
    # `len(result.checks)` as `automaton.closure_checks`
    from tandemdup import cli

    system = DuplicationSystem.parse("012", "012", 3)
    machine = build_automaton(system, minimize=True)
    checks = cli.verify_duplication_closure(machine, system.kmax).checks
    assert len(checks) == len(machine.states)


def _tracing_module():
    """bench/tracing.py, imported by path: bench/ is not a package."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kmax", [1, 2, 3])
def test_the_traced_build_replays_build_automaton(kmax):
    # the traced run answers every build through `replay_build` and then
    # checks it against `build_automaton`; both must keep giving one machine
    replay_build = _tracing_module().replay_build
    for pattern in canonical_patterns(5):
        system = DuplicationSystem.parse("0123", pattern, kmax)
        for minimize in (False, True):
            replayed = replay_build(system, minimize)
            assert replayed == build_automaton(system, minimize=minimize), (pattern, minimize)
            assert replayed.to_json() == build_automaton(system, minimize=minimize).to_json()
