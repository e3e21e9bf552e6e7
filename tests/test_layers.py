"""The package's layering: the relative imports among the modules of k3lat,
at module level or inside a function, form a graph with no cycle, and no
private helper is left with no caller."""

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


def private_definitions(tree):
    """The single-underscore functions at module level and methods of
    module-level classes, dunders left out."""
    nodes = [(None, node) for node in tree.body]
    nodes += [(node, item) for node in tree.body if isinstance(node, ast.ClassDef)
              for item in node.body]
    return [node for _, node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def name_uses(tree):
    """(name, line) of every name, attribute and imported name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def unreferenced_private_definitions(sources):
    """module:name of each private definition in sources (module -> text)
    that no line of the sources names outside the definition itself."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    uses = {module: list(name_uses(tree)) for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        for node in private_definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (m == module and line in inside)
                       for m, found in uses.items() for name, line in found):
                out.append(f"{module}:{node.name}")
    return out


def test_unreferenced_private_definitions():
    """A use inside the definition itself does not count; a method call, an
    import from another module and a plain call do; dunders are exempt."""
    sources = {"a": ("def _used():\n    return 1\n"
                     "def _recursive(n):\n    return _recursive(n - 1)\n"
                     "def _imported():\n    pass\n"
                     "class C:\n    def _method(self):\n        return self._other()\n"
                     "    def _other(self):\n        return _used()\n"
                     "    def __init__(self):\n        pass\n"),
               "b": "from .a import _imported\n"}
    assert unreferenced_private_definitions(sources) == ["a:_recursive", "a:_method"]


def test_every_private_definition_is_referenced():
    """No private helper of the package is left behind by a refactor: each
    one is named somewhere in k3lat outside its own definition."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(len(private_definitions(ast.parse(text))) for text in sources.values()) >= 80
    assert unreferenced_private_definitions(sources) == []
