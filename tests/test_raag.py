"""Graph-group normal forms, split classification, conjugacy keys, counts.

The independent reference used throughout: two words represent the same
element iff they are connected by adjacent-commuting-letter swaps and free
cancellations, and every geodesic representative is reachable that way, so
the shortlex normal form must be the least member of the minimal-length
slice of that closure.
"""

import itertools
import random
import time
import tracemalloc
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
from conjratio.sequences import convolve, iter_series
from conjratio.words import parse_word, rotate, word_str

P3 = path_graph(3)
C4 = cycle_graph(4)
EDGE2 = complete_graph(2)
EMPTY2 = empty_graph(2)
TRIANGLE = complete_graph(3)
PAW = GraphSpec(("a", "b", "c", "d"), frozenset({(0, 1), (1, 2), (0, 2), (2, 3)}))
STAR = GraphSpec(("a", "b", "c", "d"), frozenset({(0, 1), (0, 2), (0, 3)}))
EMPTY3 = empty_graph(3)
BULL = GraphSpec(("a", "b", "c", "d", "e"), frozenset({(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)}))

p3_letters = st.integers(min_value=0, max_value=5)
p3_words = st.lists(p3_letters, min_size=0, max_size=8).map(tuple)


def free_word(codes):
    """The free-group element spelled by reduced letter codes."""
    return "".join(map(chr, codes))


@st.composite
def small_graphs_and_radii(draw):
    """A graph on 1..4 vertices with random edges, and a radius that keeps
    the oracle's padded ball B(n + 2) to a few thousand elements."""
    k = draw(st.integers(min_value=1, max_value=4))
    pairs = list(itertools.combinations(range(k), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    n = draw(st.integers(min_value=0, max_value={1: 4, 2: 4, 3: 3, 4: 2}[k]))
    return GraphSpec(tuple("abcd"[:k]), frozenset(edges)), n


@st.composite
def cographs(draw):
    """A cograph on 1..5 vertices: singletons merged two at a time by a
    join or a disjoint union, its vertices then shuffled."""
    k = draw(st.integers(min_value=1, max_value=5))
    parts, edges = [[v] for v in range(k)], set()
    while len(parts) > 1:
        a = parts.pop(draw(st.integers(min_value=0, max_value=len(parts) - 1)))
        b = parts.pop(draw(st.integers(min_value=0, max_value=len(parts) - 1)))
        if draw(st.booleans()):
            edges |= {(u, v) for u in a for v in b}
        parts.append(a + b)
    place = draw(st.permutations(range(k)))
    return GraphSpec(tuple("abcde"[:k]),
                     frozenset(tuple(sorted((place[u], place[v]))) for u, v in edges))


@st.composite
def non_cographs(draw):
    """A graph on 4 or 5 vertices with an induced path on four vertices: a
    path through four of them in a drawn order, and drawn edges at the fifth."""
    k = draw(st.integers(min_value=4, max_value=5))
    order = draw(st.permutations(range(k)))
    ends = [(order[i], order[i + 1]) for i in range(3)]
    if k == 5:
        ends += [(order[4], v) for v in draw(st.sets(st.sampled_from(order[:4])))]
    return GraphSpec(tuple("abcde"[:k]), frozenset(tuple(sorted(e)) for e in ends))


def has_induced_path4(graph):
    """True when four vertices induce a path on four vertices, the one
    obstruction to being a cograph."""
    for vs in itertools.permutations(range(len(graph.labels)), 4):
        if vs[0] > vs[3]:
            continue
        linked = [tuple(sorted((vs[i], vs[j]))) in graph.edges for i, j in
                  itertools.combinations(range(4), 2)]
        # pairs in order 01 02 03 12 13 23: a path 0-1-2-3 has exactly 01, 12, 23
        if linked == [True, False, False, True, False, True]:
            return True
    return False


def formula_spheres(graph, max_n):
    return list(itertools.islice(iter_series(*raag.sphere_series(Raag(graph))), max_n + 1))


def is_cyclic_normal_form(word, graph):
    """True iff every cyclic rotation is itself a shortlex normal form."""
    group = Raag(graph)
    w = tuple(word)
    return all(group.word(rotate(w, r)) == rotate(w, r) for r in range(max(len(w), 1)))


def commutation_closure(word, graph):
    """All words reachable by commuting-swaps and free cancellations."""
    adj = Raag(graph).adjacent
    seen = {tuple(word)}
    stack = [tuple(word)]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x == y ^ 1:
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


def reference_class_walk(graph, max_n):
    """The counter's class walk with its cross-checks named: each class
    closure is disjoint from those opened before it, and the split/non-split
    key of its first word is distinct across the opened classes. Returns the
    class spheres and the classes by support, as ``counts`` reports them."""
    r = Raag(graph)
    seen, keys = set(), set()
    conj_sphere = [0] * (max_n + 1)
    support_classes = Counter()
    for w, dist in r.elements(max_n):
        if w in seen or r._peel(w) is not None:
            continue
        closure = r.cyclic_class(w)
        assert seen.isdisjoint(closure), f"closure of {word_str(w)} meets an earlier class"
        seen |= closure
        key = r._key_of_reduced(w)
        assert key not in keys, f"key of {word_str(w)} repeats an earlier class's"
        keys.add(key)
        conj_sphere[dist] += 1
        support_classes[tuple(graph.labels[i] for i in sorted({c >> 1 for c in w}))] += 1
    return conj_sphere, dict(support_classes)


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
            # the first declared name that repeats, not the first repeat met
            ("vertices: a b c b a", 1, "duplicate vertex 'a'"),
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

    def test_long_vertex_line_parses_in_linear_time(self):
        names = [f"v{i}" for i in range(20000)]
        start = time.perf_counter()
        assert graph_from_text("vertices: " + " ".join(names)).labels == tuple(names)
        with pytest.raises(GraphFormatError, match="^line 1: duplicate vertex 'v1'$"):
            graph_from_text("vertices: " + " ".join(names + ["v1"]))
        assert time.perf_counter() - start < 1

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
        assert Raag(EDGE2).word(parse_word("ba")) == parse_word("ab")

    def test_free_pair_reduces(self):
        assert Raag(EMPTY2).word(parse_word("abB")) == parse_word("a")

    def test_path_graph_examples(self):
        assert Raag(P3).word(parse_word("ca")) == parse_word("ca")
        assert Raag(P3).word(parse_word("cb")) == parse_word("bc")

    @given(p3_words)
    def test_idempotent(self, w):
        r = Raag(P3)
        nf = r.word(w)
        assert r.word(nf) == nf

    def test_exhaustive_closure_agreement_short_words(self):
        # every word of length <= 5 over the path P3, <= 4 over C4 and P4
        for graph, max_len in ((P3, 5), (C4, 4), (path_graph(4), 4)):
            r = Raag(graph)
            for n in range(max_len + 1):
                for w in itertools.product(range(2 * len(graph.labels)), repeat=n):
                    nf = r.word(w)
                    assert nf == reference_normal_form(w, graph)
                    members = commutation_closure(w, graph)
                    assert {r.word(u) for u in members} == {nf}

    @pytest.mark.parametrize("code", [-1, 6])
    def test_out_of_range_letter_is_rejected(self, code):
        r = Raag(P3)
        for entry in (r.word, r.conj_key):
            with pytest.raises(ValueError, match="out of range"):
                entry((0, code))

    def test_sampled_closure_agreement_longer_words(self):
        rng, r = random.Random(7), Raag(P3)
        for n in (6, 7, 8):
            for _ in range(120):
                w = tuple(rng.randrange(6) for _ in range(n))
                assert r.word(w) == reference_normal_form(w, P3)

    @given(p3_words)
    def test_closure_members_share_normal_form(self, w):
        r = Raag(P3)
        nf = r.word(w)
        members = commutation_closure(w, P3)
        assert all(r.word(u) == nf for u in members)

    def test_empty_graph_is_free_reduction(self):
        r = Raag(EMPTY2)
        for n in range(5):
            for w in itertools.product(range(4), repeat=n):
                assert free_word(r.word(w)) == fg.reduce_word(w)

    def test_large_edgeless_graph_keeps_masks_as_small_as_its_edges(self):
        # each vertex keeps the complement of its neighbour mask, not a
        # k-bit mask, so memory grows with the edges rather than as k^2
        # (a k-bit mask per vertex would hold about 50 MB here)
        graph = GraphSpec(tuple(f"v{i}" for i in range(20000)), frozenset())
        tracemalloc.start()
        try:
            r = Raag(graph)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 10 * 2 ** 20
        assert r.word(parse_word("aAbc")) == parse_word("bc")
        assert r.word(parse_word("cb")) == parse_word("cb")

    def test_large_edgeless_graph_splits_without_holding_its_parts(self):
        # the cotree's first split yields 20,000 one-vertex parts, each a
        # leaf at once; holding them all as masks as wide as their vertex
        # index would peak at about 37 MB here
        graph = GraphSpec(tuple(f"v{i}" for i in range(20000)), frozenset())
        tracemalloc.start()
        try:
            r = Raag(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2 ** 20
        assert r.cotree[0] == (False, tuple(range(1, 20001)))

    def test_triangle_closure_agreement(self):
        r = Raag(TRIANGLE)
        for n in range(5):
            for w in itertools.product(range(6), repeat=n):
                assert r.word(w) == reference_normal_form(w, TRIANGLE)


class TestElementArithmetic:
    @given(p3_words, p3_words)
    def test_multiply_matches_concatenation(self, u, v):
        r = Raag(P3)
        product = r.multiply(r.word(u), r.word(v))
        assert product == reference_normal_form(u + v, P3)

    @given(p3_words)
    def test_invert(self, w):
        r = Raag(P3)
        e = r.word(w)
        assert r.multiply(e, r.invert(e)) == ()

    def test_word_length_is_graph_distance(self):
        group = oracle.RaagGroup(Raag(P3))
        dist, _ = oracle.ball_enumerate(group, 4)
        for e, d in dist.items():
            assert len(e) == d


class TestCyclicNormalForm:
    def test_commuting_pair_rotation_fails(self):
        assert not is_cyclic_normal_form(parse_word("ab"), EDGE2)

    def test_free_pair_rotations_pass(self):
        assert is_cyclic_normal_form(parse_word("ab"), EMPTY2)

    def test_path_graph_non_adjacent_pair(self):
        assert is_cyclic_normal_form(parse_word("ac"), P3)

    def shortlex_language(self, graph, max_n):
        r = Raag(graph)
        words = [w for w, _ in r.elements(max_n)]
        for w in words:
            assert r.word(w) == w
        assert len(set(words)) == len(words)
        return set(words)

    @pytest.mark.parametrize(
        "graph, max_n",
        [(EMPTY2, 8), (EDGE2, 8), (P3, 8), (TRIANGLE, 8), (C4, 6)],
    )
    def test_rotation_closure_and_squares(self, graph, max_n):
        language = self.shortlex_language(graph, max_n)
        cyclic = {w for w in language if is_cyclic_normal_form(w, graph)}
        for w in cyclic:
            for k in range(1, len(w)):
                assert rotate(w, k) in language
        for w in cyclic:
            if 1 <= len(w) <= max_n // 2:
                assert (w + w) in cyclic


class TestConjKey:
    def test_rotation_pair_on_free_graph(self):
        key = Raag(EMPTY2).conj_key
        assert key(parse_word("ab")) == key(parse_word("ba"))

    def test_commuting_blocks_on_edge_graph(self):
        r = Raag(EDGE2)
        key = r.conj_key(parse_word("ab"))
        assert key == r.conj_key(parse_word("ba"))
        assert key[0] == "split"

    @given(p3_words, p3_words)
    def test_invariant_under_conjugation(self, w, z):
        r = Raag(P3)
        conj = r.multiply(r.multiply(r.word(z), r.word(w)), r.invert(r.word(z)))
        assert r.element_key(conj) == r.conj_key(w)

    @pytest.mark.parametrize("graph", [EMPTY2, EDGE2, P3, TRIANGLE, C4])
    def test_partition_matches_oracle_closure(self, graph):
        group = oracle.RaagGroup(Raag(graph))
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
        assert list(itertools.accumulate(c.sphere)) == [
            1, 7, 29, 99, 313, 959, 2901, 8731, 26225]
        assert list(itertools.accumulate(c.conj_sphere)) == [
            1, 7, 25, 63, 139, 293, 631, 1417, 3355]

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
        assert sum(c.support_classes.values()) == sum(c.conj_sphere)

    def test_empty_graph_matches_free_module(self):
        c = raag.counts(EMPTY2, 8)
        assert c.sphere == fg.sphere_sizes(2, 8)
        assert list(itertools.accumulate(c.conj_sphere)) == fg.conjugacy_ball_counts(2, 8)
        assert c.conj_sphere == fg.conjugacy_sphere_counts(2, 8)

    def test_abelian_graphs_have_unit_ratio(self):
        for graph, dim in ((EDGE2, 2), (TRIANGLE, 3)):
            c = raag.counts(graph, 6)
            assert c.conj_sphere == c.sphere

    def test_square_graph_is_a_product_of_free_groups(self):
        c = raag.counts(C4, 6)
        expected = convolve(fg.ball_counts(2, 6), fg.sphere_sizes(2, 6))
        assert list(itertools.accumulate(c.sphere)) == expected == [
            1, 9, 49, 217, 865, 3241, 11665]

    def test_ratio_strictly_decreasing_on_path_graph(self):
        c = raag.counts(P3, 8)
        ratios = [
            Fraction(cb, b) for cb, b in
            zip(itertools.accumulate(c.conj_sphere), itertools.accumulate(c.sphere))
        ]
        assert all(ratios[n + 1] < ratios[n] for n in range(2, 8))

    @pytest.mark.parametrize("graph, n", [(P3, 4), (C4, 3), (EMPTY2, 5)])
    def test_budget_boundary(self, graph, n, monkeypatch):
        full = raag.counts(graph, n)
        ball_n = sum(full.sphere)
        monkeypatch.setenv("CONJRATIO_BUDGET", str(ball_n))
        assert raag.counts(graph, n) == full
        with pytest.raises(BudgetExceededError) as err:
            raag.counts(graph, n + 1)
        assert err.value.completed == n
        monkeypatch.setenv("CONJRATIO_BUDGET", str(ball_n - 1))
        with pytest.raises(BudgetExceededError) as err:
            raag.counts(graph, n)
        assert err.value.completed == n - 1

    @pytest.mark.parametrize("graph, n", [
        (P3, 8), (C4, 7), (EMPTY2, 8), (EDGE2, 8), (TRIANGLE, 8),
        (PAW, 6), (STAR, 6), (path_graph(4), 6), (cycle_graph(5), 6),
    ], ids=["P3", "C4", "empty-2", "edge-2", "triangle", "paw", "star", "P4", "C5"])
    def test_reference_class_walk_matches_counts(self, graph, n):
        c = raag.counts(graph, n)
        conj_sphere, support_classes = reference_class_walk(graph, n)
        assert c.conj_sphere == conj_sphere
        assert list(c.support_classes.items()) == list(support_classes.items())

    @settings(max_examples=30)
    @given(small_graphs_and_radii())
    def test_counts_match_oracle_on_random_graphs(self, case):
        graph, n = case
        c = raag.counts(graph, n)
        assert (c.conj_sphere, c.support_classes) == reference_class_walk(graph, n)
        group = oracle.RaagGroup(Raag(graph))
        _, spheres = oracle.ball_enumerate(group, n)
        table = oracle.conjugacy_classes(group, n, slack=2)
        assert c.sphere == spheres
        assert c.conj_sphere == list(table.sphere_classes)
        r = Raag(graph)
        shortest = {}
        for e, cls in table.class_of.items():
            if cls not in shortest or len(e) < len(shortest[cls]):
                shortest[cls] = e
        supports = Counter(
            tuple(graph.labels[i] for i in sorted({code >> 1 for code in e}))
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

    def test_budget_is_enforced(self, monkeypatch):
        monkeypatch.setenv("CONJRATIO_BUDGET", "100")
        with pytest.raises(BudgetExceededError) as err:
            raag.counts(P3, 8)
        assert err.value.completed == 3

    def test_counts_match_oracle_class_counts(self):
        group = oracle.RaagGroup(Raag(P3))
        table = oracle.conjugacy_classes(group, 4, slack=2)
        c = raag.counts(P3, 4)
        assert list(table.ball_classes) == list(itertools.accumulate(c.conj_sphere))
        assert list(table.sphere_classes) == c.conj_sphere


class TestFormula:
    """The cotree route of ``growth`` against the word counter and against
    Chiswell's series by clique enumeration."""

    @pytest.mark.parametrize("graph, n", [
        (EMPTY2, 8), (EDGE2, 8), (P3, 8), (C4, 8), (TRIANGLE, 8),
        (PAW, 7), (STAR, 7), (EMPTY3, 7),
    ], ids=["empty-2", "edge-2", "P3", "C4", "triangle", "paw", "star", "empty-3"])
    def test_formula_matches_counts(self, graph, n):
        c = raag.counts(graph, n)
        assert formula_spheres(graph, n) == c.sphere
        assert raag.class_spheres(Raag(graph), n) == c.conj_sphere

    @settings(max_examples=25)
    @given(cographs())
    def test_formula_matches_counts_on_random_cographs(self, graph):
        assert Raag(graph).cotree is not None
        c = raag.counts(graph, 5)
        assert formula_spheres(graph, 5) == c.sphere == chiswell_spheres(graph, 5)
        assert raag.class_spheres(Raag(graph), 5) == c.conj_sphere

    def test_edgeless_graphs_give_free_groups(self):
        # one union node of k leaves: Rivin's closed form for F_k
        for k in range(1, 27):
            assert raag.class_spheres(Raag(empty_graph(k)), 8) == fg.conjugacy_sphere_counts(k, 8)
        wide = GraphSpec(tuple(f"v{i}" for i in range(2000)), frozenset())
        assert raag.class_spheres(Raag(wide), 4) == fg.conjugacy_sphere_counts(2000, 4)

    def test_equal_factors_share_one_derivation(self, monkeypatch):
        # 30 leaves [1, 1] under one union: the union's series and one leaf's
        derived, derive = [], raag._log_derivative
        monkeypatch.setattr(raag, "_log_derivative",
                            lambda clique, n: derived.append(clique) or derive(clique, n))
        edgeless = GraphSpec(tuple(f"v{i}" for i in range(30)), frozenset())
        assert raag.class_spheres(Raag(edgeless), 6) == fg.conjugacy_sphere_counts(30, 6)
        assert len(derived) == 2
        # P3 joins a vertex to a union of two leaves, and C4 joins two such unions
        for graph, unions in ((path_graph(3), 1), (cycle_graph(4), 2)):
            derived.clear()
            raag.class_spheres(Raag(graph), 4)
            assert len(derived) == 2 * unions

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_cotree_exists_exactly_without_an_induced_path(self, k):
        pairs = list(itertools.combinations(range(k), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            graph = GraphSpec(tuple("abcde"[:k]),
                              frozenset(e for e, on in zip(pairs, chosen) if on))
            assert (Raag(graph).cotree is None) == has_induced_path4(graph)

    @pytest.mark.parametrize("graph, n", [(path_graph(4), 6), (cycle_graph(5), 5), (BULL, 5)],
                             ids=["P4", "C5", "bull"])
    def test_non_cograph_series_matches_counts(self, graph, n):
        assert Raag(graph).cotree is None
        c = raag.counts(graph, n)
        assert formula_spheres(graph, n) == c.sphere == chiswell_spheres(graph, n)
        assert raag.class_spheres(Raag(graph), n) == c.conj_sphere

    @settings(max_examples=15)
    @given(non_cographs())
    def test_non_cograph_series_matches_counts_on_random_graphs(self, graph):
        assert Raag(graph).cotree is None
        c = raag.counts(graph, 4)
        assert formula_spheres(graph, 4) == c.sphere == chiswell_spheres(graph, 4)
        assert raag.class_spheres(Raag(graph), 4) == c.conj_sphere

    def test_clique_sizes_are_counted_level_by_level_as_read(self):
        # K4 with a pendant path d-e-f; a-d-e-f is an induced P4
        graph = GraphSpec(tuple("abcdef"), frozenset(
            {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)}))
        assert list(raag._clique_sizes(Raag(graph))) == [6, 8, 4, 1, 0]
        # K60 has C(60, 30) > 10^17 cliques of size 30; the first four sizes build
        # levels 0..3 only
        labels = tuple(f"v{i}" for i in range(60))
        k60 = GraphSpec(labels, frozenset(itertools.combinations(range(60), 2)))
        sizes = raag._clique_sizes(Raag(k60))
        assert list(itertools.islice(sizes, 4)) == [comb(60, m) for m in range(1, 5)]
