"""Any JSON value, placed anywhere in a graph, complex, subgroup or
staggered-presentation file, gives exit 0 or 2 from every command that
reads the file: never a traceback, which exits 1, the code verify keeps
for a counterexample.  Exit 2 prints one line, "Error: ...", on stderr and
nothing on stdout, whichever check rejected the input.  Values include
huge integers, so a declared alphabet of 10^9 or more must cost no more
than a small one.  The same holds for the letters in use: a subgroup file
and -w words read the letter 10^6, under a matching alphabet, so a
letter's value must cost no more than a small letter's.  The -w word and
the --attach specs are drawn too, bad ones included: a letter past the
alphabet, an unreduced word, a proper power, the empty word, and
out-of-range or malformed attachments.  The library's graph loader, fed
the same values or text nested past the JSON decoder's depth, raises
ValueError and nothing else."""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcycles import graphs
from wordcycles.cli import main

BIG = 10**6  # a letter in use, bounded so that a table indexed by letter stays small
GRAPH = {"alphabet": 2, "vertices": ["v0", "v1"], "basepoint": "v0",
         "edges": [{"src": "v0", "dst": "v1", "label": 1},
                   {"src": "v1", "dst": "v0", "label": 1},
                   {"src": "v1", "dst": "v1", "label": 2}]}
FILES = {
    "graph": (GRAPH, [["graph", "validate"], ["graph", "betti"], ["graph", "fold"],
                      ["graph", "core"], ["graph", "canon"], ["graph", "fiber", "-", "GRAPH"],
                      ["wcycles", "count", "-w", "WORD"],
                      ["wcycles", "decompose", "-w", "WORD"],
                      ["complex", "gamma-w", "-w", "WORD"],
                      ["complex", "npi", "-w", "WORD", "ATTACH"]]),
    "complex": ({"skeleton": GRAPH, "cells": [[{"edge": 0, "dir": 1}, {"edge": 1, "dir": 1}]]},
                [["complex", "collapse"]]),
    "subgroup": ({"alphabet": 2, "generators": ["ab", "bA", "aa"]},
                 [["subgroup", "build"], ["subgroup", "rank"],
                  ["subgroup", "conjugates", "-w", "WORD"],
                  ["subgroup", "intersect", "-", "SUBGROUP"], ["subgroup", "shnc", "-", "SUBGROUP"]]),
    "big_subgroup": ({"alphabet": BIG, "generators": [f"a{BIG}", f"ba{BIG}B"]},
                     [["subgroup", "build"], ["subgroup", "rank"],
                      ["subgroup", "conjugates", "-w", "WORD"],
                      ["subgroup", "intersect", "-", "BIG_SUBGROUP"],
                      ["subgroup", "shnc", "-", "BIG_SUBGROUP"]]),
    "staggered": ({"alphabet": 3, "relators": ["ab", "bc"], "ordered_letters": [1, 2, 3]},
                  [["complex", "staggered"]]),
}
WORDS = st.sampled_from(["a", "ab", "abAB", "c", "a3", "aA", "abBA", "aa", "abab", "",
                        f"a{BIG}", f"a{BIG}b", f"ba{BIG}a{BIG}"])
ATTACH = st.lists(st.sampled_from(["0:1", "0:2", "1:1", "5:1", "-1:2", "0:0", "0-1", "0:"]),
                  max_size=3)
HUGE = st.sampled_from([10**6, 10**9, 2**31, 2**63, 10**30, -10**9])
DELETE = object()  # a key or item removed rather than replaced

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | HUGE
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
    | st.sampled_from(["v0", "v1", "a", "ab", "A"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["src", "dst", "label", "edge", "dir"]) | st.text(max_size=3),
        inner, max_size=3),
    max_leaves=8)


def paths(doc, prefix=()):
    """Every place in doc, the whole document first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from paths(value, prefix + (key,))


def placed(doc, path, value):
    """A copy of doc with value at path (or, for DELETE, with path removed)."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The unfuzzed graph and subgroups, as second operands of two-file commands."""
    root = tmp_path_factory.mktemp("valid")
    out = {}
    for kind in ("graph", "subgroup", "big_subgroup"):
        out[kind.upper()] = str(root / f"{kind}.json")
        (root / f"{kind}.json").write_text(json.dumps(FILES[kind][0]))
    return out


@st.composite
def fuzzed(draw):
    """A file of one kind and a word, the file's alphabet made huge, or made
    BIG if the word reads the letter BIG, or left; then one value placed or
    removed, or none; and attachment specs for the commands that take them."""
    kind = draw(st.sampled_from(sorted(FILES)))
    doc, commands = FILES[kind]
    word = draw(WORDS)
    alphabet = next(p for p in paths(doc) if p[-1:] == ("alphabet",))
    if draw(st.booleans()):
        doc = placed(doc, alphabet, draw(HUGE))
    elif str(BIG) in word:
        doc = placed(doc, alphabet, BIG)
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(paths(doc))))
        removal = st.just(DELETE) if path else st.nothing()  # the document itself stays
        doc = placed(doc, path, draw(json_values | HUGE | removal))
    options = {"WORD": [word],
               "ATTACH": [arg for spec in draw(ATTACH) for arg in ("--attach", spec)]}
    return kind, doc, [[b for a in c for b in options.get(a, [a])] for c in commands]


@settings(max_examples=400, deadline=2000)
@given(fuzzed())
def test_exit_0_or_2(valid_files, case):
    kind, doc, commands = case
    text = json.dumps(doc)
    runner = CliRunner()
    for command in commands:
        args = [valid_files.get(a, a) for a in command]
        if "-" not in args:
            args.append("-")
        result = runner.invoke(main, args, input=text)
        assert result.exit_code in (0, 2), (kind, args, text, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.exit_code == 2:
            assert result.stdout == "", (kind, args, text, result.output)
            assert result.stderr.startswith("Error: "), (kind, args, text, result.stderr)
            assert result.stderr.count("\n") == 1, (kind, args, text, result.stderr)


@settings(max_examples=400, deadline=2000)
@given(st.data())
def test_graph_loader_raises_value_error_alone(data):
    # one value placed or removed as fuzzed() does, read with no CLI around it
    path = data.draw(st.sampled_from(list(paths(GRAPH))))
    removal = st.just(DELETE) if path else st.nothing()
    doc = placed(GRAPH, path, data.draw(json_values | HUGE | removal))
    for load in (graphs.from_json, lambda obj: graphs.loads(json.dumps(obj))):
        try:
            load(doc)
        except ValueError:
            pass


def test_graph_loader_rejects_deep_nesting_with_value_error():
    with pytest.raises(ValueError):
        graphs.loads("[" * 100_000 + "]" * 100_000)
