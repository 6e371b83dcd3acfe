"""The package's modules import one another without a cycle, and `core`,
which holds the words and the one square engine, imports none of them.
Imports inside functions count as much as those at module level: a cycle
through one still ties the two modules together."""

import ast
from pathlib import Path

import tandemdup

PACKAGE = Path(tandemdup.__file__).resolve().parent


def _targets(source, modules):
    """The package modules that the relative imports in `source` name, at
    any depth; `from . import name` names the module `name`, or the
    package's `__init__` when `name` is no module of it."""
    targets = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module:
            targets.add(node.module.split(".")[0])
        else:
            targets.update(a.name if a.name in modules else "__init__" for a in node.names)
    return targets


def _graph():
    """Module name -> the package modules it imports."""
    modules = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
    return {name: _targets(path.read_text(), modules) for name, path in modules.items()}


def _cycle(graph):
    """One import cycle as a list of modules, first module last again, or
    None; a depth-first search that keeps the modules on its path."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name) :] + [name]
        if name in done:
            return None
        path.append(name)
        for target in sorted(graph.get(name, ())):
            found = visit(target)
            if found:
                return found
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        found = visit(name)
        if found:
            return found
    return None


def test_the_graph_counts_imports_inside_functions():
    source = "from . import __version__, cli\n\ndef f():\n    from .enumeration import _Peeling\n"
    assert _targets(source, {"cli", "enumeration"}) == {"__init__", "cli", "enumeration"}
    assert {"automaton", "core", "enumeration"} <= _graph()["__init__"]
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_core_imports_nothing_from_the_package():
    assert _graph()["core"] == set()


def test_the_package_imports_have_no_cycle():
    assert _cycle(_graph()) is None
