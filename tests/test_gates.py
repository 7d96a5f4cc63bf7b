"""Each hypothesis of the counting theorems has one gate in the library:
connectivity is require_connected's, a word's shape is require_cyclic's,
and a zero letter is rejected by the few functions that read raw letters.
The tests below check that the callers share the gate's message, and pin,
from the sources, where each check is made, so that no new function grows
its own copy of one."""

import ast

import pytest

from test_built_sites import PACKAGE, references
from wordcycles.cycles import decompose
from wordcycles.graphs import circle, rose
from wordcycles.words import primitive_root, require_simple_cyclic

WORD_CHECKS = {
    "circle": circle,
    "primitive_root": primitive_root,
    "require_simple_cyclic": require_simple_cyclic,
    "decompose": lambda word: decompose(rose(2), word),
}


def message(f, word) -> str:
    with pytest.raises(ValueError) as exc:
        f(word)
    return str(exc.value)


@pytest.mark.parametrize("word", [(), (1, 0), (1, 2, -1)])
def test_word_checks_share_the_gate_message(word):
    messages = {name: message(f, word) for name, f in WORD_CHECKS.items()}
    assert len(set(messages.values())) == 1, messages


def raised() -> list[tuple[str, str, str]]:
    """(module, enclosing function, message text) for each raise in the
    package's sources; the text joins the string constants of the raised
    expression, an f-string's literal parts included."""
    found = []

    def visit(node, module, function):
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = "".join(n.value for n in ast.walk(node.exc)
                           if isinstance(n, ast.Constant) and isinstance(n.value, str))
            found.append((module, function, text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "")
    return found


def raisers(*phrases: str) -> set[tuple[str, str]]:
    return {(module, function) for module, function, text in raised()
            if any(phrase in text for phrase in phrases)}


def test_connectivity_is_tested_in_one_place():
    callers = {(module, scope) for module, scope, _, called in references("is_connected")
               if called}
    assert callers == {("graphs", "require_connected")}


def test_one_connectivity_raise_besides_canonical_form():
    # canonical_form sees disconnection as a search that misses a vertex
    assert raisers("must be connected") == {("graphs", "require_connected"),
                                            ("graphs", "canonical_form")}


def test_word_shape_raised_only_by_its_gate():
    assert raisers("word must be nonempty", "empty word", "cyclically reduced") == {
        ("words", "require_cyclic")}


def test_zero_letter_raised_where_raw_letters_are_read():
    assert raisers("letters must be nonzero") == {
        ("words", "free_reduce"),
        ("words", "require_cyclic"),
        ("graphs", "walk"),
        ("subgroups", "_require_letters"),
    }
