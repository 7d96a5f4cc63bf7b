"""Property-based tests for the algebra and counting invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from wordcycles.graphs import (
    LabeledDigraph,
    betti,
    canonical_form,
    core,
    fiber_product,
    fold,
    rose,
    validate,
    walk,
    wedge_of_words,
)
from wordcycles.cycles import check_main_inequality, decompose, oracle_counts
from wordcycles.generators import TrialConfig, random_inverse_automaton
from wordcycles.words import (
    cyclic_reduce,
    free_reduce,
    invert,
    is_cyclically_reduced,
    is_simple,
    primitive_root,
)

letters = st.integers(min_value=1, max_value=3).flatmap(
    lambda l: st.sampled_from([l, -l])
)
raw_words = st.lists(letters, max_size=12).map(tuple)
reduced_words = raw_words.map(free_reduce)
simple_words = raw_words.map(
    lambda w: cyclic_reduce(w)[0]
).filter(lambda w: w and is_simple(w))


def graphs_strategy(max_vertices=8, alphabet=3):
    def build(seed):
        cfg = TrialConfig(
            max_vertices=max_vertices, alphabet=alphabet, max_word_length=6
        )
        return random_inverse_automaton(cfg, random.Random(seed))

    return st.integers(min_value=0, max_value=10**9).map(build)


class TestWordProperties:
    @given(raw_words)
    def test_free_reduce_idempotent(self, w):
        assert free_reduce(free_reduce(w)) == free_reduce(w)

    @given(raw_words)
    def test_free_reduce_shrinks(self, w):
        assert len(free_reduce(w)) <= len(w)

    @given(raw_words)
    def test_word_times_inverse_cancels(self, w):
        assert free_reduce(w + invert(w)) == ()

    @given(simple_words)
    def test_primitive_root_reconstructs(self, w):
        root, p = primitive_root(w)
        assert root * p == w
        assert primitive_root(root)[1] == 1

    @given(raw_words)
    def test_cyclic_core_rotation_invariant(self, w):
        core_word, _ = cyclic_reduce(w)
        if not core_word:
            return
        n = len(core_word)
        for k in range(n):
            rotated = core_word[k:] + core_word[:k]
            rcore, _ = cyclic_reduce(rotated)
            assert len(rcore) == n
            assert any(
                rcore == core_word[i:] + core_word[:i] for i in range(n)
            )

    @given(raw_words)
    def test_conjugation_identity(self, w):
        core_word, conj = cyclic_reduce(w)
        assert free_reduce(conj + core_word + invert(conj)) == free_reduce(w)
        assert is_cyclically_reduced(core_word)


class TestCountingProperties:
    @settings(max_examples=60)
    @given(graphs_strategy(), simple_words)
    def test_main_inequality_universal(self, g, w):
        assert check_main_inequality(g, w).passed

    @settings(max_examples=60)
    @given(graphs_strategy(max_vertices=6), simple_words.filter(lambda w: len(w) <= 6))
    def test_oracle_agreement(self, g, w):
        dec = decompose(g, w)
        assert (dec.count_with_multiplicity, dec.class_count) == oracle_counts(g, w)

    @settings(max_examples=60)
    @given(graphs_strategy(), simple_words)
    def test_counts_bounded_by_vertices(self, g, w):
        dec = decompose(g, w)
        assert dec.class_count <= dec.count_with_multiplicity <= g.num_vertices

    @settings(max_examples=40)
    @given(graphs_strategy(), simple_words)
    def test_rotation_invariance(self, g, w):
        dec = decompose(g, w)
        for k in range(1, len(w)):
            rotated = w[k:] + w[:k]
            assert decompose(g, rotated).class_count == dec.class_count

    @settings(max_examples=60)
    @given(graphs_strategy(), simple_words)
    def test_inversion_invariance(self, g, w):
        assert decompose(g, invert(w)).class_count == decompose(g, w).class_count

    @settings(max_examples=60)
    @given(graphs_strategy(), simple_words)
    def test_sigma_injective(self, g, w):
        sigma = decompose(g, w).sigma
        assert len(set(sigma.values())) == len(sigma)


class TestGraphProperties:
    @settings(max_examples=60)
    @given(st.lists(reduced_words.filter(bool), min_size=1, max_size=4),
           st.integers(0, 10**9))
    def test_fold_confluence(self, gens, seed):
        wedge = wedge_of_words(gens, 3)
        rng = random.Random(seed)
        a = fold(wedge, random.Random(rng.getrandbits(64)))
        b = fold(wedge, random.Random(rng.getrandbits(64)))
        assert validate(a) == []
        assert canonical_form(a) == canonical_form(b)

    @settings(max_examples=60)
    @given(graphs_strategy(max_vertices=5), graphs_strategy(max_vertices=5))
    def test_fiber_product_edge_count(self, g1, g2):
        product = fiber_product(g1, g2)
        expected = sum(
            sum(1 for *_, l in g1.edges if l == lab)
            * sum(1 for *_, l in g2.edges if l == lab)
            for lab in range(1, g1.alphabet + 1)
        )
        assert len(product.edges) == expected
        assert validate(product) == []

    @settings(max_examples=60)
    @given(graphs_strategy(max_vertices=5), graphs_strategy(max_vertices=5))
    def test_fiber_product_projections(self, g1, g2):
        product = fiber_product(g1, g2)
        n2 = g2.num_vertices
        edge_set1 = set(g1.edges)
        edge_set2 = set(g2.edges)
        for s, d, l in product.edges:
            assert (s // n2, d // n2, l) in edge_set1
            assert (s % n2, d % n2, l) in edge_set2

    @settings(max_examples=60)
    @given(graphs_strategy())
    def test_betti_additive_and_core_invariant(self, g):
        report = betti(g)
        assert report.total == sum(b for _, b in report.per_component)
        based = LabeledDigraph(g.alphabet, g.num_vertices, g.edges, 0)
        assert betti(core(based)).total == report.total

    @settings(max_examples=40)
    @given(st.lists(reduced_words.filter(bool), min_size=1, max_size=3))
    def test_generators_survive_fold(self, gens):
        folded = fold(wedge_of_words(gens, 3))
        for w in gens:
            assert walk(folded, folded.basepoint, w) == folded.basepoint

    def test_rose_identity_for_product(self):
        cfg = TrialConfig(max_vertices=6, alphabet=2, max_word_length=6)
        for seed in range(20):
            g = random_inverse_automaton(cfg, random.Random(seed))
            product = fiber_product(g, rose(2))
            # the coordinate projection to g is an isomorphism
            assert product.num_vertices == g.num_vertices
            assert sorted(product.edges) == sorted(g.edges)
