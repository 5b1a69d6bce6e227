"""Graph-group normal forms, split classification, conjugacy keys, counts.

The independent reference used throughout: two words represent the same
element iff they are connected by adjacent-commuting-letter swaps and free
cancellations, and every geodesic representative is reachable that way, so
the shortlex normal form must be the least member of the minimal-length
slice of that closure.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjratio import free_group as fg
from conjratio import oracle, raag
from conjratio.errors import BudgetExceededError
from conjratio.raag import (
    GraphFormatError,
    GraphSpec,
    Raag,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_from_text,
    path_graph,
)
from conjratio.sequences import convolve
from conjratio.words import inverse_code, parse_word, rotate, word_str

P3 = path_graph(3)
C4 = cycle_graph(4)
EDGE2 = complete_graph(2)
EMPTY2 = empty_graph(2)
TRIANGLE = complete_graph(3)

p3_letters = st.integers(min_value=0, max_value=5)
p3_words = st.lists(p3_letters, min_size=0, max_size=8).map(tuple)


@st.composite
def small_graphs_and_radii(draw):
    """A graph on 1..4 vertices with random edges, and a radius that keeps
    the oracle's padded ball B(n + 2) to a few thousand elements."""
    k = draw(st.integers(min_value=1, max_value=4))
    pairs = list(itertools.combinations(range(k), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    n = draw(st.integers(min_value=0, max_value={1: 4, 2: 4, 3: 3, 4: 2}[k]))
    return GraphSpec(tuple("abcd"[:k]), frozenset(edges)), n


def commutation_closure(word, graph):
    """All words reachable by commuting-swaps and free cancellations."""
    adj = Raag(graph).adjacent
    seen = {tuple(word)}
    stack = [tuple(word)]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x == inverse_code(y):
                nxt = w[:i] + w[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
            if (x >> 1) != (y >> 1) and (y >> 1) in adj[x >> 1]:
                nxt = w[:i] + (y, x) + w[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def chiswell_spheres(graph, max_n):
    """Sphere sizes from Chiswell's growth series of a right-angled Artin
    group, S(t) = 1 / C(-2t / (1 + t)), where C(x) sums x^|K| over the
    cliques K of the graph (the empty one included). A clique of size m
    contributes (-2)^m t^m (1 + t)^-m, so only cliques of size <= max_n
    reach the truncated series."""
    k = len(graph.labels)
    denom = [1] + [0] * max_n
    for m in range(1, min(k, max_n) + 1):
        cliques = sum(
            1
            for vs in itertools.combinations(range(k), m)
            if all(e in graph.edges for e in itertools.combinations(vs, 2))
        )
        for j in range(max_n - m + 1):
            denom[m + j] += cliques * (-2) ** m * (-1) ** j * comb(m + j - 1, j)
    spheres = [1]
    for n in range(1, max_n + 1):
        spheres.append(-sum(denom[i] * spheres[n - i] for i in range(1, n + 1)))
    return spheres


def reference_normal_form(word, graph):
    closure = commutation_closure(word, graph)
    shortest = min(len(w) for w in closure)
    return min(w for w in closure if len(w) == shortest)


class TestGraphParsing:
    def test_basic_format(self):
        g = graph_from_text("vertices: a b c\nedge: a b\nedge: b c\n")
        assert g == P3

    def test_comments_and_blank_lines(self):
        g = graph_from_text("# commuting pair\n\nvertices: x y  # two\nedge: x y\n")
        assert g.labels == ("x", "y")
        assert g.edges == frozenset({(0, 1)})

    @pytest.mark.parametrize(
        "text, line_no, fragment",
        [
            ("edge: a b", 1, "before the vertices"),
            ("vertices: a b\nedge: a a", 2, "loop edge"),
            ("vertices: a b\nedge: a c", 2, "unknown vertex"),
            ("vertices: a b\nedge: a b\nedge: b a", 3, "duplicate edge"),
            ("vertices: a a", 1, "duplicate vertex"),
            ("vertices: a b\nvertices: c", 2, "second vertices"),
            ("vertices: a b\nedge: a", 2, "two endpoints"),
            ("vertices: a b\nfoo", 2, "unrecognized"),
            ("# nothing\n", 0, "missing vertices"),
        ],
    )
    def test_errors_name_the_line(self, text, line_no, fragment):
        with pytest.raises(GraphFormatError) as err:
            graph_from_text(text)
        assert err.value.line_no == line_no
        assert fragment in str(err.value)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GraphSpec((), frozenset())
        with pytest.raises(ValueError):
            GraphSpec(("a", "a"), frozenset())
        with pytest.raises(ValueError):
            GraphSpec(("a", "b"), frozenset({(1, 0)}))

    def test_builtin_graphs(self):
        assert EMPTY2.edges == frozenset()
        assert EDGE2.edges == frozenset({(0, 1)})
        assert P3.edges == frozenset({(0, 1), (1, 2)})
        assert C4.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
        assert len(TRIANGLE.edges) == 3


class TestNormalForm:
    def test_commuting_pair_sorts(self):
        assert raag.normal_form(parse_word("ba"), EDGE2) == parse_word("ab")

    def test_free_pair_reduces(self):
        assert raag.normal_form(parse_word("abB"), EMPTY2) == parse_word("a")

    def test_path_graph_examples(self):
        assert raag.normal_form(parse_word("ca"), P3) == parse_word("ca")
        assert raag.normal_form(parse_word("cb"), P3) == parse_word("bc")

    @given(p3_words)
    def test_idempotent(self, w):
        nf = raag.normal_form(w, P3)
        assert raag.normal_form(nf, P3) == nf

    def test_exhaustive_closure_agreement_short_words(self):
        # every word of length <= 5 over the path graph
        for n in range(6):
            for w in itertools.product(range(6), repeat=n):
                expected = reference_normal_form(w, P3)
                nf = raag.normal_form(w, P3)
                assert nf == expected
                assert {raag.normal_form(u, P3) for u in commutation_closure(w, P3)} == {nf}

    def test_sampled_closure_agreement_longer_words(self):
        rng = random.Random(7)
        for n in (6, 7, 8):
            for _ in range(120):
                w = tuple(rng.randrange(6) for _ in range(n))
                assert raag.normal_form(w, P3) == reference_normal_form(w, P3)

    @given(p3_words)
    def test_closure_members_share_normal_form(self, w):
        nf = raag.normal_form(w, P3)
        members = commutation_closure(w, P3)
        assert all(raag.normal_form(u, P3) == nf for u in members)

    def test_empty_graph_is_free_reduction(self):
        for n in range(5):
            for w in itertools.product(range(4), repeat=n):
                assert raag.normal_form(w, EMPTY2) == fg.reduce_word(w)

    def test_triangle_closure_agreement(self):
        for n in range(5):
            for w in itertools.product(range(6), repeat=n):
                assert raag.normal_form(w, TRIANGLE) == reference_normal_form(
                    w, TRIANGLE
                )


class TestElementArithmetic:
    @given(p3_words, p3_words)
    def test_multiply_matches_concatenation(self, u, v):
        r = Raag(P3)
        product = r.multiply(r.element(u), r.element(v))
        assert r.word(product) == raag.normal_form(u + v, P3)

    @given(p3_words)
    def test_invert(self, w):
        r = Raag(P3)
        e = r.element(w)
        assert r.word(r.multiply(e, r.invert(e))) == ()

    @given(p3_words)
    def test_word_roundtrip(self, w):
        r = Raag(P3)
        e = r.element(w)
        assert r.element(r.word(e)) == e
        assert r.word_length(e) == len(r.word(e))

    def test_word_length_is_graph_distance(self):
        group = oracle.RaagGroup(P3)
        dist, _ = oracle.ball_enumerate(group, 4)
        r = Raag(P3)
        for e, d in dist.items():
            assert r.word_length(e) == d


class TestCyclicNormalForm:
    def test_commuting_pair_rotation_fails(self):
        assert not raag.is_cyclic_normal_form(parse_word("ab"), EDGE2)

    def test_free_pair_rotations_pass(self):
        assert raag.is_cyclic_normal_form(parse_word("ab"), EMPTY2)

    def test_path_graph_non_adjacent_pair(self):
        assert raag.is_cyclic_normal_form(parse_word("ac"), P3)

    def shortlex_language(self, graph, max_n):
        r = Raag(graph)
        words = [w for w, _ in r.elements(max_n)]
        for w in words:
            assert r.normal_form(w) == w
        assert len(set(words)) == len(words)
        return set(words)

    @pytest.mark.parametrize(
        "graph, max_n",
        [(EMPTY2, 8), (EDGE2, 8), (P3, 8), (TRIANGLE, 8), (C4, 6)],
    )
    def test_rotation_closure_and_squares(self, graph, max_n):
        language = self.shortlex_language(graph, max_n)
        cyclic = {w for w in language if raag.is_cyclic_normal_form(w, graph)}
        for w in cyclic:
            for k in range(1, len(w)):
                assert rotate(w, k) in language
        for w in cyclic:
            if 1 <= len(w) <= max_n // 2:
                assert (w + w) in cyclic


class TestClassifySplit:
    def test_examples(self):
        assert raag.classify_split(parse_word("ab"), EDGE2) == "split"
        assert raag.classify_split(parse_word("ab"), EMPTY2) == "non-split"
        assert raag.classify_split(parse_word("ac"), C4) == "non-split"

    def test_requires_cyclically_reduced_input(self):
        with pytest.raises(ValueError):
            raag.classify_split(parse_word("abA"), P3)

    def test_central_letter_of_path_splits(self):
        # b commutes with everything it meets, so ab factors as {a} x {b}
        assert raag.classify_split(parse_word("ab"), P3) == "split"
        assert raag.classify_split(parse_word("ac"), P3) == "non-split"


class TestConjKey:
    def test_rotation_pair_on_free_graph(self):
        assert raag.conj_key(parse_word("ab"), EMPTY2) == raag.conj_key(
            parse_word("ba"), EMPTY2
        )

    def test_commuting_blocks_on_edge_graph(self):
        key = raag.conj_key(parse_word("ab"), EDGE2)
        assert key == raag.conj_key(parse_word("ba"), EDGE2)
        assert key[0] == "split"

    @given(p3_words, p3_words)
    def test_invariant_under_conjugation(self, w, z):
        r = Raag(P3)
        conj = r.multiply(r.multiply(r.element(z), r.element(w)), r.invert(r.element(z)))
        assert r.element_key(conj) == raag.conj_key(w, P3)

    @pytest.mark.parametrize("graph", [EMPTY2, EDGE2, P3, TRIANGLE, C4])
    def test_partition_matches_oracle_closure(self, graph):
        group = oracle.RaagGroup(graph)
        table = oracle.conjugacy_classes(group, 4, slack=2)
        assert table.stable is True
        r = Raag(graph)
        key_of_class = {}
        class_of_key = {}
        for e, cls in table.class_of.items():
            key = r.element_key(e)
            assert key_of_class.setdefault(cls, key) == key
            assert class_of_key.setdefault(key, cls) == cls


class TestCounts:
    def test_path_graph_counts(self):
        c = raag.counts(P3, 8)
        assert list(c.ball.values) == [1, 7, 29, 99, 313, 959, 2901, 8731, 26225]
        assert list(c.conj_ball.values) == [1, 7, 25, 63, 139, 293, 631, 1417, 3355]
        assert c.sphere.values == c.ball.to_spheres().values
        assert c.conj_sphere.values == c.conj_ball.to_spheres().values

    def test_path_graph_support_decomposition(self):
        c = raag.counts(P3, 8)
        assert c.support_classes == {
            (): 1,
            ("a",): 16,
            ("b",): 16,
            ("c",): 16,
            ("a", "b"): 112,
            ("b", "c"): 112,
            ("a", "c"): 1354,
            ("a", "b", "c"): 1728,
        }
        assert sum(c.support_classes.values()) == c.conj_ball[8]

    def test_empty_graph_matches_free_module(self):
        c = raag.counts(EMPTY2, 8)
        assert list(c.ball.values) == fg.ball_counts(2, 8)
        assert list(c.conj_ball.values) == fg.conjugacy_ball_counts(2, 8)
        assert list(c.conj_sphere.values) == fg.conjugacy_sphere_counts(2, 8)

    def test_abelian_graphs_have_unit_ratio(self):
        for graph, dim in ((EDGE2, 2), (TRIANGLE, 3)):
            c = raag.counts(graph, 6)
            assert c.conj_ball.values == c.ball.values
            assert c.conj_sphere.values == c.sphere.values

    def test_square_graph_is_a_product_of_free_groups(self):
        c = raag.counts(C4, 6)
        expected = convolve(fg.ball_counts(2, 6), fg.sphere_sizes(2, 6))
        assert list(c.ball.values) == expected == [1, 9, 49, 217, 865, 3241, 11665]

    def test_ratio_strictly_decreasing_on_path_graph(self):
        c = raag.counts(P3, 8)
        ratios = [
            Fraction(cb, b) for cb, b in zip(c.conj_ball.values, c.ball.values)
        ]
        assert all(ratios[n + 1] < ratios[n] for n in range(2, 8))

    @pytest.mark.parametrize("graph, n", [(P3, 4), (C4, 3), (EMPTY2, 5)])
    def test_budget_boundary(self, graph, n):
        full = raag.counts(graph, n)
        ball_n = full.ball[n]
        assert raag.counts(graph, n, budget=ball_n) == full
        with pytest.raises(BudgetExceededError) as err:
            raag.counts(graph, n + 1, budget=ball_n)
        assert err.value.completed == n
        with pytest.raises(BudgetExceededError) as err:
            raag.counts(graph, n, budget=ball_n - 1)
        assert err.value.completed == n - 1

    @settings(max_examples=30)
    @given(small_graphs_and_radii())
    def test_counts_match_oracle_on_random_graphs(self, case):
        graph, n = case
        c = raag.counts(graph, n)
        group = oracle.RaagGroup(graph)
        _, spheres = oracle.ball_enumerate(group, n)
        table = oracle.conjugacy_classes(group, n, slack=2)
        assert list(c.ball.values) == list(itertools.accumulate(spheres))
        assert list(c.conj_ball.values) == list(table.ball_classes)
        r = Raag(graph)
        shortest = {}
        for e, cls in table.class_of.items():
            if cls not in shortest or r.word_length(e) < r.word_length(shortest[cls]):
                shortest[cls] = e
        supports = Counter(
            tuple(graph.labels[i] for i in sorted({code >> 1 for code in r.word(e)}))
            for e in shortest.values()
        )
        assert c.support_classes == dict(supports)

    @pytest.mark.parametrize("graph", [EMPTY2, EDGE2, P3, TRIANGLE, C4])
    def test_growth_series_matches_enumerated_spheres(self, graph):
        enumerated = Counter(d for _, d in Raag(graph).elements(8))
        assert chiswell_spheres(graph, 8) == [enumerated[d] for d in range(9)]

    def test_square_graph_series_is_a_product_of_free_groups(self):
        balls = list(itertools.accumulate(chiswell_spheres(C4, 40)))
        assert balls == convolve(fg.ball_counts(2, 40), fg.sphere_sizes(2, 40))

    def test_budget_is_enforced(self):
        with pytest.raises(BudgetExceededError) as err:
            raag.counts(P3, 8, budget=100)
        assert err.value.completed == 3

    def test_counts_match_oracle_class_counts(self):
        group = oracle.RaagGroup(P3)
        table = oracle.conjugacy_classes(group, 4, slack=2)
        c = raag.counts(P3, 4)
        assert list(table.ball_classes) == list(c.conj_ball.values)
        assert list(table.sphere_classes) == list(c.conj_sphere.values)
