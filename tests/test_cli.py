import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from conftest import plant_failing_check

from wordcycles.cli import main
from wordcycles import graphs
from wordcycles.graphs import LabeledDigraph, circle, dumps, loads, rose, to_json
from wordcycles.words import parse_word


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def rose_file(tmp_path):
    path = tmp_path / "rose.json"
    path.write_text(dumps(rose(2)))
    return str(path)


def test_words_normalize(runner):
    result = runner.invoke(main, ["words", "normalize", "baB"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["cyclic_core"] == "a"
    assert obj["conjugator"] == "b"
    assert obj["simple"] is True


def test_words_normalize_power(runner):
    obj = json.loads(runner.invoke(main, ["words", "normalize", "abab"]).output)
    assert obj["primitive_root"] == "ab" and obj["exponent"] == 2
    assert obj["simple"] is False


def test_graph_validate(runner, rose_file):
    result = runner.invoke(main, ["graph", "validate", rose_file])
    assert result.exit_code == 0
    assert json.loads(result.output)["valid"] is True


def test_graph_betti(runner, rose_file):
    obj = json.loads(runner.invoke(main, ["graph", "betti", rose_file]).output)
    assert obj["total"] == 2


def test_graph_fold_stdin(runner):
    wedge = {
        "alphabet": 1,
        "vertices": ["v0", "v1"],
        "edges": [
            {"src": "v0", "dst": "v0", "label": 1},
            {"src": "v0", "dst": "v1", "label": 1},
            {"src": "v1", "dst": "v0", "label": 1},
        ],
        "basepoint": "v0",
    }
    result = runner.invoke(main, ["graph", "fold", "-"], input=json.dumps(wedge))
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert len(obj["vertices"]) == 1


def test_graph_fiber(runner, rose_file, tmp_path):
    result = runner.invoke(main, ["graph", "fiber", rose_file, rose_file])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["edges"]) == 2


def test_graph_dot(runner, rose_file):
    result = runner.invoke(main, ["graph", "canon", rose_file, "--dot"])
    assert result.output.startswith("digraph")


def test_library_key_error_is_not_invalid_input(runner, rose_file, monkeypatch):
    # only ValueError means invalid input; a KeyError from the library is a
    # bug, so it escapes rather than exiting 2
    def betti(g):
        raise KeyError("planted")
    monkeypatch.setattr(graphs, "betti", betti)
    result = runner.invoke(main, ["graph", "betti", rose_file])
    assert isinstance(result.exception, KeyError)
    assert result.exit_code != 2


@pytest.mark.parametrize("command", [["graph", "betti"], ["wcycles", "count", "-w", "a"]])
def test_component_vertices_in_numeric_order(runner, tmp_path, command):
    path = tmp_path / "c12.json"
    path.write_text(dumps(circle(parse_word("a" * 11 + "b"), 2)))
    obj = json.loads(runner.invoke(main, [*command, str(path)]).output)
    assert obj["per_component"][0]["vertices"] == [f"v{i}" for i in range(12)]


def test_wcycles_count(runner, rose_file):
    result = runner.invoke(main, ["wcycles", "count", "-w", "abAB", rose_file])
    obj = json.loads(result.output)
    assert obj["class_count"] == 1 and obj["betti"] == 2
    assert obj["inequality_holds"] is True


def test_wcycles_rejects_power(runner, rose_file):
    result = runner.invoke(main, ["wcycles", "count", "-w", "abab", rose_file])
    assert result.exit_code == 2


def test_complex_roundtrip(runner, rose_file, tmp_path):
    result = runner.invoke(main, ["complex", "gamma-w", "-w", "abAB", rose_file])
    assert result.exit_code == 0
    complex_path = tmp_path / "torus.json"
    complex_path.write_text(result.output)
    result = runner.invoke(main, ["complex", "collapse", str(complex_path)])
    obj = json.loads(result.output)
    assert obj["euler_characteristic"] == 0
    assert obj["collapses_to_tree"] is False


def test_complex_collapse_wedge_of_13_tori(runner, tmp_path):
    # a valid complex with no free face: a verdict and exit 0, at any size
    n = 13
    skeleton = LabeledDigraph(2 * n, 1, tuple((0, 0, l) for l in range(1, 2 * n + 1)))
    cells = [[{"edge": e, "dir": d}
              for e, d in ((a, 1), (a + 1, 1), (a, -1), (a + 1, -1))]
             for a in range(0, 2 * n, 2)]
    path = tmp_path / "tori.json"
    path.write_text(json.dumps({"skeleton": to_json(skeleton), "cells": cells}))
    result = runner.invoke(main, ["complex", "collapse", str(path)])
    assert result.exit_code == 0, result.output
    obj = json.loads(result.output)
    assert obj["collapses_to_tree"] is False
    assert obj["sequence"] == [] and obj["free_faces"] == []


ONE_EDGE = to_json(LabeledDigraph(1, 1, ((0, 0, 1),)))


@pytest.mark.parametrize("obj", [
    {"skeleton": ONE_EDGE, "cells": [[{"edge": 5, "dir": 1}]]},
    {"skeleton": ONE_EDGE, "cells": [[{"edge": -1, "dir": 1}]]},
    {"skeleton": ONE_EDGE, "cells": [[{"edge": 0, "dir": 7}]]},
    {"cells": 5},
    {"skeleton": ONE_EDGE},
    {"skeleton": ONE_EDGE, "cells": [[{"edge": 0}]]},
    {"skeleton": ONE_EDGE, "cells": [[{"edge": 0.9, "dir": 1}]]},
    {"skeleton": ONE_EDGE, "cells": [[{"edge": 0, "dir": 1.0}]]},
    {"skeleton": ONE_EDGE, "cells": [[{"edge": False, "dir": 1}]]},
    {"skeleton": {**ONE_EDGE, "edges": [{"src": "v0", "dst": "v0", "label": 1.7}]},
     "cells": []},
    {"skeleton": ONE_EDGE, "cells": ""},
    {"skeleton": ONE_EDGE, "cells": {}},
    {"skeleton": {**ONE_EDGE, "edges": {}}, "cells": []},
])
def test_malformed_complex_file(runner, tmp_path, obj):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["complex", "collapse", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "bad complex file" in result.output
    assert "Traceback" not in result.output


def test_cell_must_be_an_array(runner, tmp_path):
    # a step where a cell belongs: iterating it would read its keys as steps
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"skeleton": ONE_EDGE, "cells": [{"edge": 0, "dir": 1}]}))
    result = runner.invoke(main, ["complex", "collapse", str(path)])
    assert result.exit_code == 2 and "cell must be an array" in result.output


def test_complex_npi(runner, rose_file):
    result = runner.invoke(
        main, ["complex", "npi", "-w", "abAB", "--attach", "0:1", rose_file]
    )
    obj = json.loads(result.output)
    assert obj["branch"] == "chi" and obj["passed"] is True


def test_complex_staggered(runner, tmp_path):
    path = tmp_path / "pres.json"
    path.write_text(
        json.dumps(
            {"alphabet": 2, "relators": ["ab", "ba"], "ordered_letters": [1, 2]}
        )
    )
    obj = json.loads(runner.invoke(main, ["complex", "staggered", str(path)]).output)
    assert obj["staggered"] is False
    assert obj["diagnostics"]


def _subgroup_file(tmp_path, gens, alphabet=2):
    path = tmp_path / f"sub_{'_'.join(gens) or 'trivial'}.json"
    path.write_text(json.dumps({"alphabet": alphabet, "generators": gens}))
    return str(path)


def test_subgroup_build_and_rank(runner, tmp_path):
    path = _subgroup_file(tmp_path, ["aa", "b"])
    obj = json.loads(runner.invoke(main, ["subgroup", "build", path]).output)
    assert len(obj["vertices"]) == 2
    obj = json.loads(runner.invoke(main, ["subgroup", "rank", path]).output)
    assert obj["rank"] == 2


def test_subgroup_conjugates(runner, tmp_path):
    path = _subgroup_file(tmp_path, ["aa", "b"])
    result = runner.invoke(main, ["subgroup", "conjugates", "-w", "a", path])
    obj = json.loads(result.output)
    assert obj["conjugates_meeting"] == 1 and obj["bound_holds"] is True


def test_subgroup_intersect(runner, tmp_path):
    p1 = _subgroup_file(tmp_path, ["a"])
    p2 = _subgroup_file(tmp_path, ["b"])
    obj = json.loads(runner.invoke(main, ["subgroup", "intersect", p1, p2]).output)
    assert len(obj["vertices"]) == 1 and obj["edges"] == []


def test_subgroup_shnc(runner, tmp_path):
    path = _subgroup_file(tmp_path, ["aa", "b"])
    obj = json.loads(runner.invoke(main, ["subgroup", "shnc", path, path]).output)
    assert obj["lhs"] == 1 and obj["rhs"] == 1 and obj["inequality_holds"]


def test_verify_pass(runner, tmp_path):
    result = runner.invoke(
        main,
        ["verify", "main", "--seed", "3", "--trials", "20", "--max-vertices", "8"],
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["passes"] == 20 and obj["failures"] == []


def test_verify_failure_exits_1_and_dumps_the_payloads(runner, tmp_path, monkeypatch):
    # exit 1 means a counterexample: the report's failures, written to --out
    plant_failing_check(monkeypatch, "main")
    out = tmp_path / "c.json"
    result = runner.invoke(main, ["verify", "main", "--trials", "3", "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr.endswith(f"failures dumped to {out}\n")
    failures = json.loads(result.stdout)["failures"]
    assert len(failures) == 3
    assert json.loads(out.read_text()) == failures


def test_verify_unknown_suite(runner):
    result = runner.invoke(main, ["verify", "nope"])
    assert result.exit_code == 2


@pytest.mark.parametrize("suite, code", [("main", 0), ("strict", 2)])
def test_verify_one_letter_alphabet(runner, tmp_path, suite, code):
    result = runner.invoke(main, ["verify", suite, "--alphabet", "1", "--trials", "50",
                                  "--out", str(tmp_path / "ce.json")])
    assert result.exit_code == code


@pytest.mark.parametrize("out", ["", "missing/ce.json"], ids=["directory", "no-parent"])
def test_verify_unwritable_out(runner, tmp_path, out):
    # rejected before the first trial, though a passing run writes nothing
    def verify(path):
        return runner.invoke(main, ["verify", "main", "--trials", "1", "--out", path])

    result = verify(str(tmp_path / out))
    assert result.exit_code == 2
    assert result.output.count("\n") == 1 and "cannot write --out" in result.output
    assert verify(str(tmp_path / "ce.json")).exit_code == 0
    assert list(tmp_path.iterdir()) == []


def test_verify_bad_config(runner):
    result = runner.invoke(main, ["verify", "main", "--trials", "0"])
    assert result.exit_code == 2


def test_bad_graph_file(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["graph", "betti", str(path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("content", [
    b"\xff\xfe",  # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # nested past the decoder's recursion limit
    b'{"alphabet": ' + b"9" * 5000 + b', "num_vertices": 1, "edges": []}',  # int digits
], ids=["bytes", "depth", "digits"])
def test_unreadable_graph_file(runner, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    result = runner.invoke(main, ["graph", "validate", str(path)])
    assert result.exit_code == 2
    assert f"cannot read {path}: " in result.output


@pytest.mark.parametrize("obj", [
    {"alphabet": 2},
    {"generators": ["a"]},
    {"alphabet": 2, "generators": 5},
    {"alphabet": 2, "generators": [5]},
    {"alphabet": "two", "generators": ["a"]},
    {"alphabet": 0, "generators": ["a"]},
    ["a", "b"],
    {"alphabet": 2.9, "generators": ["a"]},
    {"alphabet": True, "generators": ["a"]},
    {"alphabet": "2", "generators": ["a"]},
    {"alphabet": 2, "generators": "ab"},
    {"alphabet": 2, "generators": {"ab": 1}},
    {"alphabet": 2, "generators": ["B", "c"]},
    {"alphabet": 2, "generators": ["cC", "a"]},
])
def test_malformed_subgroup_file(runner, tmp_path, obj):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["subgroup", "rank", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("obj", [
    {"alphabet": 2, "relators": ["ab"]},
    {"alphabet": 2, "relators": 5, "ordered_letters": [1, 2]},
    {"alphabet": 2, "relators": [7], "ordered_letters": [1, 2]},
    {"alphabet": 2, "relators": ["ab"], "ordered_letters": ["x"]},
    {"alphabet": 2.5, "relators": ["ab"], "ordered_letters": [1, 2]},
    {"alphabet": 2, "relators": ["ab"], "ordered_letters": [1.9, 2]},
    {"alphabet": 2, "relators": "ab", "ordered_letters": [1, 2]},
    {"alphabet": 2, "relators": ["ab"], "ordered_letters": ""},
    {"alphabet": 2, "relators": ["ab"], "ordered_letters": {}},
    {"alphabet": 2, "relators": ["ae"], "ordered_letters": [1]},
])
def test_malformed_staggered_file(runner, tmp_path, obj):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["complex", "staggered", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


MALFORMED_GRAPHS = [
    ({"edges": [{"src": "v0", "dst": "v0", "label": 1.7}]}, "must be an integer"),
    ({"edges": [{"src": "v0", "dst": "v0", "label": True}]}, "must be an integer"),
    ({"edges": [{"src": "v0", "dst": "v0", "label": "1"}]}, "must be an integer"),
    ({"alphabet": 1.0}, "must be an integer"),
    ({"alphabet": True}, "must be an integer"),
    ({"edges": [{"src": "v0", "dst": "v0"}]}, "edge is missing key 'label'"),
    ({"edges": [{"dst": "v0", "label": 1}]}, "edge is missing key 'src'"),
    ({"vertices": {"v0": 1, "v1": 2}, "edges": {}}, "vertices must be an array"),
    ({"vertices": "v0", "edges": []}, "vertices must be an array"),
    ({"edges": {}}, "edges must be an array"),
    ({"edges": "e"}, "edges must be an array"),
]


@pytest.mark.parametrize("edit, message", MALFORMED_GRAPHS,
                         ids=[f"edit{i}" for i in range(len(MALFORMED_GRAPHS))])
def test_malformed_graph_file(runner, tmp_path, edit, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**ONE_EDGE, **edit}))
    result = runner.invoke(main, ["graph", "betti", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "bad graph file" in result.output and message in result.output
    assert "unknown vertex id" not in result.output
    assert "Traceback" not in result.output


def test_missing_generators_names_the_key(runner, tmp_path):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"alphabet": 2}))
    result = runner.invoke(main, ["subgroup", "rank", str(path)])
    assert "bad subgroup file" in result.output and "'generators'" in result.output


def test_readme_graph_example_loads(runner, tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    g = loads(block)
    assert g.num_vertices == 2 and g.basepoint == 0 and len(g.edges) == 2
    path = tmp_path / "g.json"
    path.write_text(block)
    assert runner.invoke(main, ["graph", "validate", str(path)]).exit_code == 0


def test_readme_examples_parse(runner):
    # --help exits 0 only once click has resolved every command and option
    # name on the line; it stops before the files are read
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line for block in readme.split("```sh\n")[1:]
             for line in block.split("```", 1)[0].splitlines()
             if line.startswith("wordcycles ")]
    assert len(lines) >= 17
    for line in lines:
        result = runner.invoke(main, shlex.split(line, comments=True)[1:] + ["--help"])
        assert result.exit_code == 0, line
    for bad in (["graph", "nope"], ["verify", "main", "--nope"]):
        assert runner.invoke(main, bad + ["--help"]).exit_code == 2


GRAPH = to_json(rose(2))
ONE_LINE_FAILURES = {
    # id: (args, {file name: content}, the one line on stderr, {path} for tmp_path)
    "missing-file": (["graph", "betti", "{path}/none.json"], {},
                     "Error: cannot read {path}/none.json: [Errno 2] No such file or "
                     "directory: '{path}/none.json'"),
    "not-json": (["graph", "betti", "{path}/g.json"], {"g.json": "{not json"},
                 "Error: cannot read {path}/g.json: Expecting property name enclosed in "
                 "double quotes: line 1 column 2 (char 1)"),
    "graph": (["graph", "fold", "{path}/g.json"],
              {"g.json": {**GRAPH, "edges": [{"src": "v0", "dst": "v9", "label": 1}]}},
              "Error: bad graph file {path}/g.json: unknown vertex id 'v9'"),
    "complex": (["complex", "collapse", "{path}/x.json"],
                {"x.json": {"skeleton": GRAPH, "cells": ""}},
                "Error: bad complex file {path}/x.json: cells must be an array, got ''"),
    "duplicate-vertex": (["graph", "betti", "{path}/g.json"],
                         {"g.json": {**GRAPH, "vertices": ["v0", "v0"]}},
                         "Error: bad graph file {path}/g.json: duplicate vertex ids"),
    "duplicate-ordered-letter": (["complex", "staggered", "{path}/p.json"],
                                 {"p.json": {"alphabet": 2, "relators": ["ab"],
                                             "ordered_letters": [1, 1]}},
                                 "Error: bad presentation file {path}/p.json: ordered "
                                 "letters must be distinct"),
    "presentation": (["complex", "staggered", "{path}/p.json"],
                     {"p.json": {"alphabet": 2, "relators": ["ab"], "ordered_letters": {}}},
                     "Error: bad presentation file {path}/p.json: ordered_letters must be "
                     "an array, got {{}}"),
    "subgroup": (["subgroup", "rank", "{path}/s.json"],
                 {"s.json": {"alphabet": "two", "generators": ["a"]}},
                 "Error: bad subgroup file {path}/s.json: alphabet must be an integer, "
                 "got 'two'"),
    "word-option": (["wcycles", "count", "-w", "a#", "{path}/g.json"], {"g.json": GRAPH},
                    "Error: bad character '#' at position 1 in word"),
    "word-in-presentation": (["complex", "staggered", "{path}/p.json"],
                             {"p.json": {"alphabet": 2, "relators": ["a#"],
                                         "ordered_letters": [1]}},
                             "Error: bad presentation file {path}/p.json: bad character "
                             "'#' at position 1 in word"),
    "word-in-subgroup": (["subgroup", "rank", "{path}/s.json"],
                         {"s.json": {"alphabet": 2, "generators": [5]}},
                         "Error: bad subgroup file {path}/s.json: word must be a string, "
                         "got 5"),
    "attach": (["complex", "npi", "-w", "ab", "--attach", "0-1", "{path}/g.json"],
               {"g.json": GRAPH}, "Error: bad attachment '0-1'; expected V:N"),
    "kernel": (["graph", "canon", "{path}/g.json"],
               {"g.json": to_json(LabeledDigraph(1, 2, ()))},
               "Error: canonical_form: graph must be connected"),
    "unknown-suite": (["verify", "nope"], {},
                      "Error: unknown suite 'nope'; choose from conjugate-intersection, "
                      "conjugates, equality-collapse, fold-confluence, main, npi, oracle, "
                      "restated, shnc, staggered, strict"),
    "config": (["verify", "main", "--trials", "0"], {},
               "Error: trials must be a positive integer"),
    "suite-config": (["verify", "conjugate-intersection", "--alphabet", "1"], {},
                     "Error: conjugate-intersection suite needs alphabet >= 2"),
    "out": (["verify", "main", "--out", "{path}"], {},
            "Error: cannot write --out {path}: not a writable file path"),
}


@pytest.mark.parametrize("case", ONE_LINE_FAILURES)
def test_invalid_input_fails_in_one_line(tmp_path, case):
    # click 8.2+ keeps stdout and stderr apart
    args, files, line = ONE_LINE_FAILURES[case]
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    result = CliRunner().invoke(main, [a.format(path=tmp_path) for a in args])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == line.format(path=tmp_path) + "\n"


UNREDUCED = {"alphabet": 2, "generators": ["aA", "b"]}
WARNING = "Warning: generator aA was not freely reduced; using (empty)\n"


def run_cli(tmp_path, *args):
    """`python -m wordcycles.cli ARGS` in a fresh process, where Python's
    own warning display is in force (pytest records warnings in process)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-m", "wordcycles.cli", *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)


class TestWarningsInOneLine:
    def test_success(self, tmp_path):
        (tmp_path / "s.json").write_text(json.dumps(UNREDUCED))
        res = run_cli(tmp_path, "subgroup", "rank", "s.json")
        assert res.returncode == 0
        assert res.stderr == WARNING
        assert res.stdout == json.dumps({"rank": 1, "trivial": False}, indent=2) + "\n"

    def test_before_the_error_line(self, tmp_path):
        (tmp_path / "s3.json").write_text(json.dumps({**UNREDUCED, "alphabet": 3}))
        (tmp_path / "s.json").write_text(json.dumps({"alphabet": 2, "generators": ["a"]}))
        res = run_cli(tmp_path, "subgroup", "intersect", "s3.json", "s.json")
        assert res.returncode == 2
        assert res.stderr == WARNING + "Error: alphabet mismatch\n"
        assert res.stdout == ""
