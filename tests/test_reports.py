"""Reports count without building what they do not read.

Betti totals, per-component Betti numbers and class counts are computed
without per-component vertex sets or class paths; those are built only
when a caller reads them.  Every Betti number a check uses still comes
from graphs.betti, so a report planted there reaches the checks: the
benchmark's self-test relies on that to show its Betti oracle can fire.
"""

import pytest
from conftest import patch_everywhere

from wordcycles import graphs
from wordcycles.cycles import check_main_inequality, decompose
from wordcycles.graphs import LabeledDigraph, betti, circle
from wordcycles.subgroups import (
    check_restated_inequality,
    check_shnc,
    count_conjugates_meeting,
    rank,
    reduced_rank,
    stallings_graph,
)
from wordcycles.words import parse_word

# four components: Betti numbers 3, 3, 0, 0
FOUR_PARTS = LabeledDigraph(2, 7, ((0, 1, 1), (1, 0, 1), (0, 0, 2), (1, 1, 2), (2, 3, 1),
                                   (3, 4, 1), (4, 2, 1), (2, 3, 2), (3, 2, 2)))
WORDS = [parse_word(t) for t in ("a", "ab", "aB", "aab", "abAB")]
GENERATORS = [("aab", "bAb"), ("ab", "ba"), ("aaa", "bb", "abAB"), ("aB",)]


def subgroups():
    return [stallings_graph([parse_word(t) for t in gens], 2) for gens in GENERATORS]


def counts() -> dict:
    """What the checks report, read only through their counting fields."""
    hs = subgroups()
    return {
        "rank": [rank(h) for h in hs],
        "conjugates": [count_conjugates_meeting(h, x) for h in hs for x in WORDS],
        "shnc": [(r.lhs, r.rhs, r.passed) for r in
                 (check_shnc(h1, h2) for h1 in hs for h2 in hs)],
        "main": [check_main_inequality(FOUR_PARTS, x).passed for x in WORDS],
        "restated": [check_restated_inequality(x, FOUR_PARTS) for x in WORDS],
    }


class TestCountsWithoutVertexSets:
    def test_counts_agree_with_the_full_reports(self):
        hs = subgroups()
        assert [rank(h) for h in hs] == [2, 2, 3, 1]
        for h1 in hs:
            for h2 in hs:
                r = check_shnc(h1, h2)
                assert r.lhs == sum(map(reduced_rank, r.fiber_betti.bettis))
                assert r.rhs == reduced_rank(rank(h1)) * reduced_rank(rank(h2))
        for x in WORDS:
            rep = check_main_inequality(FOUR_PARTS, x)
            assert rep.betti_report.bettis == (3, 3, 0, 0)
            classes = decompose(FOUR_PARTS, x).classes
            assert rep.component_classes == tuple(
                sum(1 for c in classes if c.vertices[0] in comp)
                for comp, _ in betti(FOUR_PARTS).per_component)
            assert sum(rep.component_classes) == rep.total_classes
            assert rep.passed == all(k <= b for k, b in zip(rep.component_classes,
                                                            rep.betti_report.bettis))
            restated = check_restated_inequality(x, FOUR_PARTS)
            assert restated.lhs == restated.class_count == rep.total_classes

    def test_checks_never_build_components(self, monkeypatch):
        expected = counts()

        def no_vertex_sets(g):
            raise RuntimeError("components() called")

        monkeypatch.setattr(graphs, "components", no_vertex_sets)
        assert counts() == expected
        assert betti(FOUR_PARTS).bettis == (3, 3, 0, 0)
        with pytest.raises(RuntimeError, match="components"):
            betti(FOUR_PARTS).per_component

    def test_class_count_leaves_classes_unbuilt(self):
        dec = decompose(FOUR_PARTS, parse_word("aab"))
        assert (dec.class_count, dec.count_with_multiplicity) == (3, 3)
        assert "classes" not in vars(dec)
        assert "edge_multiplicity" not in vars(dec)


def plant_betti_total(monkeypatch, shift: int) -> None:
    """A wrapped graphs.betti that rebuilds its report positionally with the
    total moved by shift."""
    original = graphs.betti

    def shifted(g):
        r = original(g)
        return type(r)(r.per_component, r.total + shift)

    patch_everywhere(monkeypatch, graphs, "betti", lambda _: shifted)


class TestPlantedBettiTotal:
    """Mirrors the benchmark's betti+1 fault."""

    @pytest.fixture
    def off_by_one(self, monkeypatch):
        plant_betti_total(monkeypatch, 1)

    def test_planted_total_reaches_the_checks(self, off_by_one):
        h1, h2 = subgroups()[:2]
        assert rank(h1) == rank(h2) == 2 + 1
        assert check_shnc(h1, h2).rhs == reduced_rank(3) * reduced_rank(3)
        report = check_main_inequality(FOUR_PARTS, parse_word("a"))
        assert report.total_betti == 6 + 1
        # the per-component numbers come from the per_component it was given
        assert report.betti_report.bettis == (3, 3, 0, 0)
        assert graphs.betti(FOUR_PARTS).bettis == (3, 3, 0, 0)


def test_total_one_low_fails_the_main_inequality(monkeypatch):
    # the benchmark's "betti one low" fault leaves the per-component numbers
    # as they were, so only the class count against the total sees it
    plant_betti_total(monkeypatch, -1)
    report = check_main_inequality(circle((1, 2), 2), parse_word("ab"))
    assert report.betti_report.bettis == (1,)
    assert report.total_classes == 1 > report.total_betti == 0
    assert not report.passed
