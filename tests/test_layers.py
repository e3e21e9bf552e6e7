"""The package's layering: the relative imports among the modules of k3lat,
at module level or inside a function, form a graph with no cycle."""

import ast
from pathlib import Path

import k3lat

PACKAGE = Path(k3lat.__file__).resolve().parent


def relative_imports(source):
    """The sibling modules that `from .x import ...` and `from . import x`
    name anywhere in the source, function bodies included."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def import_graph():
    return {path.stem: relative_imports(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def find_cycle(graph):
    """A closed path [m, ..., m] of the graph, or None, by depth-first search."""
    done, path = set(), []

    def visit(m):
        if m in path:
            return path[path.index(m):] + [m]
        if m in done:
            return None
        path.append(m)
        for n in sorted(graph.get(m, ())):
            cycle = visit(n)
            if cycle:
                return cycle
        path.pop()
        done.add(m)
        return None

    for m in sorted(graph):
        cycle = visit(m)
        if cycle:
            return cycle
    return None


def test_relative_imports_include_function_level_ones():
    source = ("from .errors import K3LatError\n"
              "from . import cli\n"
              "def f():\n"
              "    from .lattice import parse_lattice\n"
              "import json\n")
    assert relative_imports(source) == {"errors", "cli", "lattice"}


def test_find_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"a"}}) == ["a", "a"]


def test_package_imports_have_no_cycle():
    graph = import_graph()
    assert {"lattice", "finiteform", "exactalg", "weil"} <= set(graph)
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))
