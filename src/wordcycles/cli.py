"""Command-line interface.

All graph/complex/subgroup commands read JSON from a file argument (or '-'
for standard input) and write JSON to standard output.  `verify` runs a
named property suite; exit code 0 means no failures, 1 means failures
(counterexamples are dumped to --out), 2 means invalid input, reported in
one line on standard error (_Fail).
"""

from __future__ import annotations

import json
import os
import sys
import warnings

import click

from . import complexes, cycles, graphs, subgroups, verify
from .generators import TrialConfig
from .words import (
    cyclic_reduce,
    format_word,
    free_reduce,
    invert,
    parse_word,
    primitive_root,
)


class _Fail(click.ClickException):
    """Invalid input: one line, "Error: ...", on standard error, and exit 2."""

    exit_code = 2


class _Main(click.Group):
    def invoke(self, ctx):
        """Every command runs here, so the library's ValueError, its one
        signal of invalid input, fails in one place."""
        with warnings.catch_warnings():  # a warning in one line, not Python's two
            warnings.showwarning = lambda msg, *_: click.echo(f"Warning: {msg}", err=True)
            try:
                return super().invoke(ctx)
            except ValueError as exc:
                raise _Fail(str(exc))


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad bytes, digits, depth
        raise _Fail(f"cannot read {path}: {exc}")


def _load(path: str, kind: str, build):
    """build(obj) from the JSON in path; malformed content, bad words
    included, fails naming the file."""
    obj = _read_json(path)
    try:
        return build(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise _Fail(f"bad {kind} file {path}: {exc}")


def _load_graph(path: str) -> graphs.LabeledDigraph:
    return _load(path, "graph", graphs.from_json)


def _emit(obj) -> None:
    click.echo(json.dumps(obj, indent=2))


def _emit_graph(g: graphs.LabeledDigraph, dot: bool) -> None:
    if dot:
        click.echo(graphs.to_dot(g))
    else:
        _emit(graphs.to_json(g))


def _components(g: graphs.LabeledDigraph) -> list[list[str]]:
    """Each component's vertex names, in numeric order."""
    return [[f"v{v}" for v in sorted(comp)] for comp in graphs.components(g)]


@click.group(cls=_Main)
def main():
    """Cycle counting in inverse automata, collapsible complexes, and
    subgroup graphs of free groups."""


# -- words -------------------------------------------------------------------


@main.group()
def words():
    """Free-group word algebra."""


@words.command("normalize")
@click.argument("word")
def words_normalize(word):
    """Reduce, cyclically reduce, and factor WORD."""
    w = parse_word(word)
    reduced = free_reduce(w)
    core_word, conj = cyclic_reduce(w)
    obj = {
        "input": word,
        "reduced": format_word(reduced),
        "inverse": format_word(invert(reduced)),
        "cyclic_core": format_word(core_word),
        "conjugator": format_word(conj),
    }
    if core_word:
        root, exp = primitive_root(core_word)
        obj.update(primitive_root=format_word(root), exponent=exp, simple=exp == 1)
    _emit(obj)


# -- graph -------------------------------------------------------------------


@main.group()
def graph():
    """Labeled digraph operations."""


_dot_flag = click.option("--dot", is_flag=True, help="emit DOT instead of JSON")
_word_option = click.option("-w", "--word", "word", required=True)


@graph.command("validate")
@click.argument("file")
def graph_validate(file):
    g = _load_graph(file)
    violations = graphs.validate(g)
    _emit({"valid": not violations, "violations": violations})


@graph.command("betti")
@click.argument("file")
def graph_betti(file):
    g = _load_graph(file)
    report = graphs.betti(g)
    _emit(
        {
            "total": report.total,
            "per_component": [{"vertices": vs, "betti": b}
                              for vs, b in zip(_components(g), report.bettis)],
        }
    )


# one graph in, one graph out
for _name, _op in (("fold", graphs.fold), ("core", graphs.core),
                   ("canon", graphs.canonical_form)):
    @graph.command(_name)
    @click.argument("file")
    @_dot_flag
    def graph_op(file, dot, op=_op):
        _emit_graph(op(_load_graph(file)), dot)


@graph.command("fiber")
@click.argument("file1")
@click.argument("file2")
@_dot_flag
def graph_fiber(file1, file2, dot):
    g = graphs.fiber_product(_load_graph(file1), _load_graph(file2))
    _emit_graph(g, dot)


# -- wcycles -----------------------------------------------------------------


@main.group()
def wcycles():
    """Cycle counting for a word traced through an automaton."""


@wcycles.command("count")
@_word_option
@click.argument("file")
def wcycles_count(word, file):
    g = _load_graph(file)
    w = parse_word(word)
    res = cycles.check_main_inequality(g, w)
    _emit(
        {
            "word": format_word(w),
            "class_count": res.total_classes,
            "count_with_multiplicity": res.count_with_multiplicity,
            "betti": res.total_betti,
            "inequality_holds": res.passed,
            "per_component": [
                {"vertices": vs, "class_count": k, "betti": b, "equality": k == b}
                for vs, k, b in zip(_components(g), res.component_classes,
                                    res.betti_report.bettis)
            ],
        }
    )


@wcycles.command("decompose")
@_word_option
@click.argument("file")
def wcycles_decompose(word, file):
    g = _load_graph(file)
    w = parse_word(word)
    dec = cycles.decompose(g, w)
    _emit(
        {
            "word": format_word(w),
            "classes": [
                {
                    "vertices": [f"v{v}" for v in c.vertices],
                    "period": c.period,
                    "path": [{"edge": e, "dir": d} for e, d in c.path],
                }
                for c in dec.classes
            ],
            "count_with_multiplicity": dec.count_with_multiplicity,
            "class_count": dec.class_count,
            "edge_multiplicity": {
                str(e): m for e, m in sorted(dec.edge_multiplicity.items())
            },
        }
    )


# -- complex -----------------------------------------------------------------


def _complex_to_json(x: complexes.TwoComplex) -> dict:
    return {
        "skeleton": graphs.to_json(x.skeleton),
        "cells": [[{"edge": e, "dir": d} for e, d in cell] for cell in x.cells],
    }


def _complex_from_json(obj: dict) -> complexes.TwoComplex:
    skeleton = graphs.from_json(obj["skeleton"])
    cells = tuple(
        tuple((graphs.json_int(s["edge"], "edge"), graphs.json_int(s["dir"], "dir"))
              for s in graphs.json_array(cell, "cell"))
        for cell in graphs.json_array(obj["cells"], "cells")
    )
    return complexes.TwoComplex(skeleton, cells)


@main.group("complex")
def complex_group():
    """2-complexes: disc attachment, collapsing, immersion checks."""


@complex_group.command("gamma-w")
@_word_option
@click.argument("file")
def complex_gamma_w(word, file):
    x = complexes.build_gamma_w(cycles.decompose(_load_graph(file), parse_word(word)))
    _emit(_complex_to_json(x))


@complex_group.command("collapse")
@click.argument("file")
def complex_collapse(file):
    x = _load(file, "complex", _complex_from_json)
    res = complexes.collapses_to_tree(x)
    _emit(
        {
            "euler_characteristic": complexes.euler_characteristic(x),
            "collapses_to_tree": res.collapses,
            "sequence": [{"edge": e, "cell": k} for e, k in res.sequence],
            "free_faces": [
                {"edge": e, "cell": k} for e, k in complexes.free_faces(x)
            ],
        }
    )


@complex_group.command("npi")
@_word_option
@click.option(
    "--attach", "attach", multiple=True,
    help="attachment as VERTEX:EXPONENT, e.g. 0:2; repeatable",
)
@click.argument("file")
def complex_npi(word, attach, file):
    g = _load_graph(file)
    attachments = []
    for spec in attach:
        try:
            v, n = spec.split(":")
            attachments.append((int(v), int(n)))
        except ValueError:
            raise _Fail(f"bad attachment {spec!r}; expected V:N")
    res = complexes.check_npi(g, parse_word(word), attachments)
    _emit(
        {
            "euler_characteristic": res.euler,
            "branch": res.branch,
            "passed": res.passed,
        }
    )


@complex_group.command("staggered")
@click.argument("file")
def complex_staggered(file):
    p = _load(file, "presentation", lambda obj: complexes.StaggeredPresentation(
        graphs.json_int(obj["alphabet"], "alphabet"),
        tuple(parse_word(r) for r in graphs.json_array(obj["relators"], "relators")),
        tuple(graphs.json_int(l, "ordered letter")
              for l in graphs.json_array(obj["ordered_letters"], "ordered_letters")),
    ))
    ok, diagnostics = complexes.is_staggered(p)
    _emit({"staggered": ok, "diagnostics": diagnostics})


# -- subgroup ----------------------------------------------------------------


def _load_subgroup(path: str) -> subgroups.SubgroupGraph:
    return _load(path, "subgroup", lambda obj: subgroups.stallings_graph(
        [parse_word(w) for w in graphs.json_array(obj["generators"], "generators")],
        graphs.json_int(obj["alphabet"], "alphabet"),
    ))


@main.group()
def subgroup():
    """Finitely generated subgroups of free groups."""


@subgroup.command("build")
@click.argument("file")
@_dot_flag
def subgroup_build(file, dot):
    _emit_graph(_load_subgroup(file).graph, dot)


@subgroup.command("rank")
@click.argument("file")
def subgroup_rank(file):
    h = _load_subgroup(file)
    _emit({"rank": subgroups.rank(h), "trivial": subgroups.is_trivial(h)})


@subgroup.command("conjugates")
@_word_option
@click.argument("file")
def subgroup_conjugates(word, file):
    h = _load_subgroup(file)
    w = parse_word(word)
    res = subgroups.count_conjugates_meeting(h, w)
    _emit(
        {
            "word": format_word(w),
            "conjugates_meeting": res.count,
            "rank": res.rank,
            "bound_holds": res.passed,
        }
    )


@subgroup.command("intersect")
@click.argument("file1")
@click.argument("file2")
@_dot_flag
def subgroup_intersect(file1, file2, dot):
    h = subgroups.intersect(_load_subgroup(file1), _load_subgroup(file2))
    _emit_graph(h.graph, dot)


@subgroup.command("shnc")
@click.argument("file1")
@click.argument("file2")
def subgroup_shnc(file1, file2):
    res = subgroups.check_shnc(_load_subgroup(file1), _load_subgroup(file2))
    _emit(
        {
            "lhs": res.lhs,
            "rhs": res.rhs,
            "inequality_holds": res.passed,
            "component_reduced_ranks": [subgroups.reduced_rank(b)
                                        for b in res.fiber_betti.bettis],
        }
    )


# -- verify ------------------------------------------------------------------


def _config_option(flag: str, field: str):
    """--flag for the TrialConfig field, with the field's default."""
    return click.option(flag, field, default=getattr(TrialConfig, field), show_default=True)


@main.command("verify")
@click.argument("suite")
@_config_option("--seed", "master_seed")
@click.option("--trials", default=1000, show_default=True)  # TrialConfig's 100 serves tests
@_config_option("--max-vertices", "max_vertices")
@_config_option("--alphabet", "alphabet")
@_config_option("--max-word-length", "max_word_length")
@_config_option("--density", "edge_density")
@click.option("--out", default="counterexample.json", show_default=True,
              help="where failure payloads are dumped")
def verify_cmd(suite, out, **config):
    """Run a named property suite over seeded random instances."""
    parent = os.path.dirname(os.path.abspath(out))
    target = out if os.path.exists(out) else parent
    if (not os.path.basename(out) or os.path.isdir(out) or not os.path.isdir(parent)
            or not os.access(target, os.W_OK)):
        raise _Fail(f"cannot write --out {out}: not a writable file path")
    report = verify.run_suite(suite, TrialConfig(**config))
    _emit(report.to_json())
    if report.failures:
        with open(out, "w") as fh:
            json.dump(report.failures, fh, indent=2)
        click.echo(f"failures dumped to {out}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
