"""graphs._built makes a graph, subgroup graph or 2-complex without its
constructor's checks, so it may build only what the library makes for
itself, valid by construction.  Outside data keeps every check where it
enters: from_json, circle, rose, wedge_of_words, the CLI's loaders and the
constructors themselves.  This test reads the sources and pins the
functions that call _built, so that outside data is never routed around
the checks."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "wordcycles"

SITES = {
    ("graphs", "component_containing"),
    ("graphs", "fold"),
    ("graphs", "core"),
    ("graphs", "fiber_product"),
    ("graphs", "_bfs_form"),
    ("generators", "random_inverse_automaton"),
    ("subgroups", "check_restated_inequality"),
    ("subgroups", "stallings_graph"),
    ("subgroups", "conjugate"),
    ("subgroups", "intersect"),
    ("complexes", "build_gamma_w"),
}
ENTRY_POINTS = {
    ("graphs", "from_json"),
    ("graphs", "loads"),
    ("graphs", "circle"),
    ("graphs", "rose"),
    ("graphs", "wedge_of_words"),
    ("cli", "_complex_from_json"),
    ("cli", "_load_graph"),
    ("cli", "_load_subgroup"),
}
CONSTRUCTORS = {"__init__", "__new__", "__post_init__"}


def references(name: str) -> list[tuple[str, str, ast.AST, bool]]:
    """(module, enclosing function, node, called) for each load of name,
    as a bare name or an attribute, in the package's sources.  The
    enclosing function is dotted through classes and functions, "" at
    module level; called is whether the reference is a call's callee."""
    found = []

    def visit(node, module, scope, callee):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) \
                and (node.id if isinstance(node, ast.Name) else node.attr) == name:
            found.append((module, ".".join(scope), node, node is callee))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        inner = node.func if isinstance(node, ast.Call) else None
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, [], None)
    return found


def defined(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_called_exactly_at_the_listed_sites():
    callers = {(module, scope) for module, scope, _, called in references("_built")
               if called}
    assert callers == SITES


def test_only_ever_called():
    # an alias or an argument would carry _built where this test cannot see
    loose = [(module, scope, node.lineno)
             for module, scope, node, called in references("_built") if not called]
    assert not loose


@pytest.mark.parametrize("module, function", sorted(ENTRY_POINTS))
def test_entry_points_keep_the_checks(module, function):
    assert function in defined(module)
    callers = {(m, s.rpartition(".")[2]) for m, s, _, _ in references("_built")}
    assert (module, function) not in callers


def test_no_constructor_calls_it():
    scopes = [(module, scope) for module, scope, _, _ in references("_built")
              if CONSTRUCTORS & set(scope.split("."))]
    assert not scopes


def test_object_new_only_in_built():
    makers = {(module, scope) for module, scope, node, _ in references("__new__")
              if isinstance(node, ast.Attribute)}
    assert makers == {("graphs", "_built")}
