"""Acceptance criteria, one test per criterion, exact integer checks.

Each suite's verdict summary must also be the one perfbench/digest.json
records for the master seed, so verdict drift fails here.  Each test
prints a single PASS/FAIL line (visible with pytest -s or in the captured
output of a failing run).
"""

import json
import time
from pathlib import Path

import pytest

from wordcycles.cycles import check_strict_inequality
from wordcycles.complexes import StaggeredPresentation, is_staggered
from wordcycles.generators import TrialConfig
from wordcycles.graphs import LabeledDigraph
from wordcycles.subgroups import check_shnc, stallings_graph
from wordcycles.verify import run_suite
from wordcycles.words import parse_word

MASTER_SEED = 20260824
# per suite, the verdict summary [trials, passes, inconclusive, qualifying]
# at each master seed the benchmark recorded
DIGEST = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digest.json")
                    .read_text())


def run(suite, cfg):
    """run_suite, whose verdicts must be those the benchmark recorded."""
    r = run_suite(suite, cfg)
    expected = DIGEST["suites"][suite][DIGEST["master_seeds"].index(cfg.master_seed)]
    assert [r.trials, r.passes, r.inconclusive, r.qualifying] == expected
    return r


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_main_inequality_10000():
    cfg = TrialConfig(
        master_seed=MASTER_SEED, trials=10_000, max_vertices=30, alphabet=3,
        max_word_length=16, edge_density=0.7,
    )
    start = time.perf_counter()
    r = run("main", cfg)
    elapsed = time.perf_counter() - start
    report(
        "main inequality: 10000 trials, |V|<=30, alphabet<=3, |w|<=16",
        not r.failures and elapsed < 60,
        f"{r.passes} passes, {len(r.failures)} failures, {elapsed:.1f}s",
    )


def test_oracle_1000():
    cfg = TrialConfig(
        master_seed=MASTER_SEED, trials=1_000, max_vertices=8, alphabet=2,
        max_word_length=6,
    )
    r = run("oracle", cfg)
    report(
        "oracle agreement: 1000 trials, |V|<=8, |w|<=6",
        not r.failures,
        f"{r.passes} exact matches",
    )


def test_strict_inequality_200_qualifying():
    cfg = TrialConfig(
        master_seed=MASTER_SEED, trials=400, max_vertices=6, alphabet=2,
        max_word_length=8,
    )
    r = run("strict", cfg)
    report(
        "strict inequality: >=200 qualifying instances, all strict",
        not r.failures and (r.qualifying or 0) >= 200,
        f"{r.qualifying} qualifying, {len(r.failures)} failures",
    )


def test_strict_hypothesis_necessity_fixture():
    # the a-square: hypothesis false and the strict inequality fails
    square = LabeledDigraph(1, 4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)))
    a = parse_word("a")
    rep = check_strict_inequality(square, a)
    ok = (rep.reasons == ("some edge has traversal multiplicity < 2",)
          and rep.count_with_multiplicity == 4 > rep.betti == 1)
    report("strict hypothesis necessity: a-square fixture", ok)


def test_equality_collapse():
    cfg = TrialConfig(
        master_seed=MASTER_SEED, trials=1_000, max_vertices=10, alphabet=2,
        max_word_length=8,
    )
    r = run("equality-collapse", cfg)
    report(
        "equality implies collapse: generated equalities + 100 circles",
        not r.failures and r.inconclusive == 0 and (r.qualifying or 0) >= 100,
        f"{r.qualifying} equality instances, {len(r.failures)} failures, "
        f"{r.inconclusive} inconclusive",
    )


def test_npi_1000():
    cfg = TrialConfig(
        master_seed=MASTER_SEED, trials=1_000, max_vertices=12, alphabet=2,
        max_word_length=8,
    )
    r = run("npi", cfg)
    report(
        "nonpositive immersions: 1000 generated immersions",
        not r.failures and r.inconclusive == 0,
        f"{r.passes} passes, {r.inconclusive} inconclusive",
    )


def test_fold_confluence_500():
    cfg = TrialConfig(
        master_seed=MASTER_SEED, trials=500, max_vertices=10, alphabet=2,
        max_word_length=8,
    )
    r = run("fold-confluence", cfg)
    report(
        "fold confluence: 500 generator sets, two orders, identical folds",
        not r.failures,
        f"{r.passes} passes",
    )


def test_shnc_1000():
    cfg = TrialConfig(
        master_seed=MASTER_SEED, trials=1_000, max_vertices=10, alphabet=2,
        max_word_length=6,
    )
    r = run("shnc", cfg)
    report("SHNC: 1000 random folded pairs", not r.failures,
           f"{r.passes} passes")


def test_shnc_equality_fixture():
    h = stallings_graph([parse_word("aa"), parse_word("b")], 2)
    rep = check_shnc(h, h)
    report(
        "SHNC equality fixture: <a^2,b> self-pair gives 1 = 1",
        rep.passed and rep.lhs == 1 == rep.rhs,
    )


def test_restated_1000():
    cfg = TrialConfig(
        master_seed=MASTER_SEED, trials=1_000, max_vertices=12, alphabet=2,
        max_word_length=8,
    )
    r = run("restated", cfg)
    report(
        "restated inequality: 1000 circle fiber products, with cross-check",
        not r.failures,
        f"{r.passes} passes",
    )


def test_conjugates_1000():
    cfg = TrialConfig(
        master_seed=MASTER_SEED, trials=1_000, max_vertices=10, alphabet=2,
        max_word_length=6,
    )
    r = run("conjugates", cfg)
    report(
        "conjugates of cyclic subgroups: 1000 random (H, w)",
        not r.failures,
        f"{r.passes} passes",
    )


def test_conjugate_intersection_200():
    cfg = TrialConfig(
        master_seed=MASTER_SEED, trials=200, max_vertices=10, alphabet=3,
        max_word_length=5,
    )
    r = run("conjugate-intersection", cfg)
    report(
        "conjugate intersection: 200 free-factor trials, trivial meet",
        not r.failures,
        f"{r.passes} passes",
    )


def test_staggered_500():
    cfg = TrialConfig(
        master_seed=MASTER_SEED, trials=500, max_vertices=10, alphabet=3,
        max_word_length=6,
    )
    r = run("staggered", cfg)
    report(
        "staggered presentations: 500 constructed, summed bound",
        not r.failures,
        f"{r.passes} passes",
    )


def test_staggered_rejection_fixture():
    p = StaggeredPresentation(2, (parse_word("ab"), parse_word("ba")), (1, 2))
    ok, diagnostics = is_staggered(p)
    report(
        'staggered rejection fixture: "ab"/"ba" with a < b is not staggered',
        not ok and len(diagnostics) == 2,
    )
