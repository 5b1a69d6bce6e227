"""Brute-force Cayley-graph oracle: BFS, conjugation closure, comparisons."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conjratio import free_group as fg
from conjratio import lamplighter as ll
from conjratio import cli, oracle, raag
from conjratio import coordinate_groups as cg
from conjratio.cli import RunConfig
from conjratio.errors import BudgetExceededError
from conjratio.oracle import (
    ConjugacyTable,
    DihedralInfinite,
    FreeAbelian,
    FreeGroup,
    GenerationError,
    Heisenberg,
    Lamplighter,
    RaagGroup,
    ball_enumerate,
    conjugacy_classes,
    generating_set_comparison,
    key_class_counts,
    with_generators,
)
from conjratio.coordinate_groups import dihedral_conjugacy_key, heisenberg_conjugacy_key
from conjratio.sequences import iter_series


def free_word(codes):
    """The free-group element spelled by reduced letter codes."""
    return "".join(map(chr, codes))


triples = st.tuples(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-8, 8)
)


def balls_from(spheres):
    total, out = 0, []
    for v in spheres:
        total += v
        out.append(total)
    return out


def reference_closure(group, max_n, slack):
    """The conjugation closure done the long way: every generator, and a
    full census of B(max_n + slack) and another of B(max_n + slack - 1),
    each by its own search of the conjugation graph's components."""
    dist, _ = ball_enumerate(group, max_n + slack)
    neighbours = {x: set() for x in dist}
    for x in dist:
        for s in group.generators:
            y = group.multiply(group.multiply(group.invert(s), x), s)
            if y in dist and y != x:
                neighbours[x].add(y)
                neighbours[y].add(x)

    def census(cap):
        component = {}
        for start in dist:
            if dist[start] > cap or start in component:
                continue
            component[start] = start
            stack = [start]
            while stack:
                for y in neighbours[stack.pop()]:
                    if dist[y] <= cap and y not in component:
                        component[y] = start
                        stack.append(y)
        min_len = {}
        for x, c in component.items():
            min_len[c] = min(min_len.get(c, dist[x]), dist[x])
        return component, sorted(m for m in min_len.values() if m <= max_n)

    component, mins = census(max_n + slack)
    stable = None if slack == 0 else census(max_n + slack - 1)[1] == mins
    numbers, class_of = {}, {}
    for x in dist:
        if dist[x] <= max_n:
            class_of[x] = numbers.setdefault(component[x], len(numbers))
    class_spheres = [mins.count(n) for n in range(max_n + 1)]
    return ConjugacyTable(
        radius=max_n,
        slack=slack,
        ball_classes=tuple(balls_from(class_spheres)),
        sphere_classes=tuple(class_spheres),
        spheres=tuple(list(dist.values()).count(n) for n in range(max_n + 1)),
        stable=stable,
        class_of=class_of,
        dist=dist,
    )


def logged_conjugations(group):
    """The group with conjugators that log each call as (s, u, s^-1 u s),
    and the log."""
    calls = []

    def conjugator(s):
        conjugate = group.conjugator(s)

        def call(u):
            y = conjugate(u)
            calls.append((s, u, y))
            return y
        return call
    return group._replace(conjugator=conjugator), calls


class SymmetricGroup4:
    """S4 on tuples, generated by the given permutations and their inverses,
    by default the adjacent transpositions."""

    identity = (0, 1, 2, 3)

    def __init__(self, generators=((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))):
        gens = list(generators)
        self.generators = tuple(dict.fromkeys(gens + [self.invert(g) for g in gens]))

    def multiply(self, x, y):
        return tuple(x[i] for i in y)

    def invert(self, x):
        out = [0] * len(x)
        for i, v in enumerate(x):
            out[v] = i
        return tuple(out)

    def conjugator(self, s):
        s_inv = self.invert(s)
        return lambda x: self.multiply(self.multiply(s_inv, x), s)


def s4_group(generators, length=None):
    """``SymmetricGroup4`` on the given generators as an ``oracle.Group``."""
    g = SymmetricGroup4(generators)
    return oracle.Group(g.identity, g.generators, g.multiply, g.invert, g.conjugator, length)


class TestAdapters:
    @pytest.mark.parametrize(
        "group",
        [
            FreeGroup(2),
            FreeAbelian(3),
            DihedralInfinite(),
            with_generators(DihedralInfinite(), [(0,), (0, 1)]),
            Heisenberg(),
            RaagGroup(raag.Raag(raag.path_graph(3))),
            Lamplighter(),
        ],
    )
    def test_group_axioms_near_identity(self, group):
        gens = group.generators
        assert gens, "no generators"
        for s in gens:
            assert group.invert(s) in gens
            assert group.multiply(s, group.invert(s)) == group.identity
            assert group.multiply(group.identity, s) == s
            for t in gens:
                left = group.multiply(group.multiply(s, t), s)
                right = group.multiply(s, group.multiply(t, s))
                assert left == right

    @pytest.mark.parametrize("group,generators", [
        (FreeGroup(2), tuple(map(free_word, ((0,), (1,), (2,), (3,))))),
        (FreeAbelian(2), ((1, 0), (0, 1), (-1, 0), (0, -1))),
        (DihedralInfinite(), ((0,), (1,))),
        (Heisenberg(), ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))),
        # a, A, b, B, c, C on the path a - b - c, as normal forms
        (RaagGroup(raag.Raag(raag.path_graph(3))), ((0,), (1,), (2,), (3,), (4,), (5,))),
        (Lamplighter(), (ll.TOGGLE, ll.STEP, ll.element((), -1))),
    ])
    def test_constructors_list_generators_in_order(self, group, generators):
        # BFS order, ConjugacyTable.dist and the class_of numbering follow this order
        assert group.generators == generators

    def test_with_generators_closes_the_set_and_keeps_the_group(self):
        base = DihedralInfinite()
        carried = with_generators(base, [(0,), (), (0, 1), (0,)])
        assert carried.generators == ((0,), (0, 1), (1, 0))
        assert (carried.identity, carried.multiply, carried.invert) == (
            base.identity, base.multiply, base.invert)
        assert base.generators == ((0,), (1,))
        with pytest.raises(ValueError, match="empty generating set"):
            with_generators(base, [()])

    @given(triples, triples, triples)
    def test_heisenberg_associative(self, x, y, z):
        g = Heisenberg()
        assert g.multiply(g.multiply(x, y), z) == g.multiply(x, g.multiply(y, z))

    @given(triples)
    def test_heisenberg_inverse(self, x):
        g = Heisenberg()
        assert g.multiply(x, g.invert(x)) == g.identity


class TestBallEnumerate:
    def test_line(self):
        _, spheres = ball_enumerate(FreeAbelian(1), 5)
        assert spheres == [1, 2, 2, 2, 2, 2]

    def test_dihedral_balls(self):
        _, spheres = ball_enumerate(DihedralInfinite(), 6)
        assert balls_from(spheres) == [2 * n + 1 for n in range(7)]

    def test_free_group_matches_closed_form(self):
        _, spheres = ball_enumerate(FreeGroup(2), 6)
        assert spheres == fg.sphere_sizes(2, 6)

    def test_heisenberg_balls(self):
        _, spheres = ball_enumerate(Heisenberg(), 6)
        assert balls_from(spheres) == [1, 5, 17, 53, 135, 299, 593]

    def test_distances_are_bfs_distances(self):
        dist, spheres = ball_enumerate(Lamplighter(), 6)
        assert sorted(dist.values()).count(0) == 1
        for n in range(7):
            assert sum(1 for d in dist.values() if d == n) == spheres[n]

    def test_budget_reports_completed_radius(self, monkeypatch):
        monkeypatch.setenv("CONJRATIO_BUDGET", "100")
        with pytest.raises(BudgetExceededError) as err:
            ball_enumerate(FreeGroup(2), 8)
        # B(3) = 53 <= 100 < B(4) = 161
        assert err.value.completed == 3
        assert err.value.budget == 100

    def test_rejects_generators_not_closed_under_inversion(self):
        class Skewed:
            identity = free_word(())
            generators = (free_word((0,)),)

            def multiply(self, x, y):
                return fg.multiply(x, y)

            def invert(self, x):
                return fg.invert(x)

        with pytest.raises(ValueError):
            ball_enumerate(Skewed(), 2)


# (group, radius, id) checked against the reference closure at slack 0..3
REFERENCE_BALLS = [
    (FreeGroup(1), 6, "free1"),
    (FreeGroup(2), 0, "free2-n0"),
    (FreeGroup(2), 4, "free2"),
    (FreeGroup(2), 5, "free2-n5"),
    (FreeAbelian(2), 4, "z2"),
    (DihedralInfinite(), 6, "dihedral-reflections"),
    (with_generators(DihedralInfinite(), [(0,), (0, 1)]), 5, "dihedral-reflection-rotation"),
    (Heisenberg(), 4, "heisenberg"),
    (Heisenberg(), 5, "heisenberg-n5"),
    (Lamplighter(), 4, "lamplighter"),
    (Lamplighter(), 5, "lamplighter-n5"),
    (RaagGroup(raag.Raag(raag.path_graph(3))), 3, "raag-p3"),
    (RaagGroup(raag.Raag(raag.empty_graph(2))), 3, "raag-empty2"),
    (RaagGroup(raag.Raag(raag.path_graph(4))), 2, "raag-p4"),
    (with_generators(FreeGroup(2), map(free_word, [(0,), (2,), (0, 2)])), 2, "free2-view"),
    (SymmetricGroup4(), 2, "s4"),
    # a 3-cycle and a double transposition: at slack 2 one class holds a
    # class of B(2) that misses B(1) and meets the rest of its class only
    # across the outer sphere, which the slack - 1 census must leave out
    (SymmetricGroup4([(1, 2, 0, 3), (3, 2, 1, 0)]), 1, "s4-cycle"),
]


class TestConjugacyClasses:
    def test_free_group_table(self):
        table = conjugacy_classes(FreeGroup(2), 4, slack=2)
        assert table.radius == 4 and table.slack == 2
        assert list(table.ball_classes) == fg.conjugacy_ball_counts(2, 4)
        assert list(table.sphere_classes) == fg.conjugacy_sphere_counts(2, 4)
        assert table.stable is True

    def test_spheres_match_the_closed_form(self):
        table = conjugacy_classes(FreeGroup(2), 4, slack=2)
        assert list(table.spheres) == fg.sphere_sizes(2, 4)

    def test_default_slack_is_the_radius(self):
        table = conjugacy_classes(DihedralInfinite(), 4)
        assert table.slack == 4

    def test_zero_slack_reports_unknown_stability(self):
        table = conjugacy_classes(FreeAbelian(2), 4, slack=0)
        assert table.stable is None
        assert list(table.ball_classes) == [1, 5, 13, 25, 41]

    def test_abelian_classes_are_elements(self):
        table = conjugacy_classes(FreeAbelian(2), 5, slack=1)
        dist, spheres = ball_enumerate(FreeAbelian(2), 5)
        assert list(table.ball_classes) == balls_from(spheres)
        assert table.stable is True
        assert len(set(table.class_of.values())) == len(dist)

    def test_class_of_respects_conjugation(self):
        g = FreeGroup(2)
        table = conjugacy_classes(g, 4, slack=2)
        for x in list(table.class_of)[:200]:
            for s in g.generators:
                y = g.multiply(g.multiply(g.invert(s), x), s)
                if y in table.class_of:
                    assert table.class_of[y] == table.class_of[x]

    def test_rejects_negative_slack(self):
        with pytest.raises(ValueError):
            conjugacy_classes(FreeAbelian(1), 3, slack=-1)

    @pytest.mark.parametrize("group,max_n,slack", [
        *(pytest.param(group, max_n, slack, id=f"{slack}-{name}")
          for group, max_n, name in REFERENCE_BALLS for slack in (0, 1, 2, 3)),
        # the searches cross wide outer spheres: of the elements they meet,
        # 400 of 1,273 lie on the outer sphere on C4, 70 of 268 on the
        # lamplighter and 72 of 527 on Heisenberg
        pytest.param(RaagGroup(raag.Raag(raag.cycle_graph(4))), 3, 3, id="3-raag-c4"),
        pytest.param(Lamplighter(), 4, 5, id="5-lamplighter"),
        pytest.param(Heisenberg(), 4, 5, id="5-heisenberg"),
        # a non-cograph, whose classes are not all self-inverse, and a
        # group whose every class but the identity's fills its inverse
        pytest.param(RaagGroup(raag.Raag(raag.cycle_graph(5))), 3, 2, id="2-raag-c5"),
        pytest.param(FreeAbelian(3), 3, 2, id="2-z3"),
    ])
    def test_matches_reference_closure(self, group, max_n, slack):
        table = conjugacy_classes(group, max_n, slack=slack)
        expected = reference_closure(group, max_n, slack)
        # the table keeps B(max_n): the padded ball cut to it, in the same BFS order
        ball = [(x, d) for x, d in expected.dist.items() if d <= max_n]
        assert table == expected._replace(dist=dict(ball))
        assert list(table.class_of.items()) == list(expected.class_of.items())
        assert list(table.dist.items()) == ball
        assert ball == list(ball_enumerate(group, max_n)[0].items())

    @pytest.mark.parametrize("group,padded", [
        pytest.param(FreeGroup(2), False, id="free2"),
        pytest.param(FreeAbelian(2), False, id="z2"),
        pytest.param(DihedralInfinite(), False, id="dihedral"),
        pytest.param(Lamplighter(), False, id="lamplighter"),
        pytest.param(RaagGroup(raag.Raag(raag.path_graph(3))), False, id="raag-p3"),
        pytest.param(Heisenberg(), True, id="heisenberg"),
        pytest.param(SymmetricGroup4(), True, id="s4"),
        pytest.param(with_generators(FreeGroup(2), map(free_word, [(0,), (2,), (0, 2)])), True,
                     id="free2-view"),
    ])
    def test_only_groups_without_length_enumerate_the_padded_ball(self, monkeypatch, group,
                                                                  padded):
        radii = []

        def recording(group, max_n):
            radii.append(max_n)
            return ball_enumerate(group, max_n)

        monkeypatch.setattr(oracle, "ball_enumerate", recording)
        conjugacy_classes(group, 3, slack=2)
        assert radii == [5 if padded else 3]

    def test_search_conjugates_only_the_classes_meeting_the_ball(self, monkeypatch):
        # the searches touch one class of each inverse pair meeting B(6):
        # from B(8) 2,185 of 13,121 elements, from B(12) 19,657 of 1,062,881.
        # Each of the 118 starts is conjugated by all 2k generators, every
        # other element met by all but one. They hold B(6), 1,457 elements,
        # and one class's elements met past it at a time: at most 36 (of the
        # class's 54 met) and 468 (of 486); a class and its inverse are
        # equally large, so filling the inverse holds no more.
        group = FreeGroup(2)
        two_k = len(group.generators)
        for slack, touched, conjugations, held in ((2, 2185, 6673, 1493),
                                                   (6, 19657, 59089, 1925)):
            logged, calls = logged_conjugations(group)
            table = conjugacy_classes(logged, 6, slack=slack)
            seen = {u for _, u, _ in calls}
            assert len(seen) == touched
            assert len(calls) == conjugations == (two_k - 1) * len(seen) + 118
            assert table == conjugacy_classes(group, 6, slack=slack)
            monkeypatch.setenv("CONJRATIO_BUDGET", str(held))
            assert conjugacy_classes(group, 6, slack=slack) == table
            monkeypatch.setenv("CONJRATIO_BUDGET", str(held - 1))
            with pytest.raises(BudgetExceededError):
                conjugacy_classes(group, 6, slack=slack)
            monkeypatch.delenv("CONJRATIO_BUDGET")

    @pytest.mark.parametrize("group,max_n,slack", [
        pytest.param(FreeGroup(2), 6, 2, id="free2"),
        pytest.param(RaagGroup(raag.Raag(raag.path_graph(3))), 4, 3, id="raag-p3"),
        pytest.param(Lamplighter(), 4, 5, id="lamplighter"),
        pytest.param(Heisenberg(), 4, 5, id="heisenberg"),
        # a conjugate met from two elements of the outer sphere skips the
        # conjugator back to the first of them
        pytest.param(s4_group([(1, 2, 0, 3), (3, 2, 1, 0)]), 1, 2, id="s4-cycle"),
    ])
    def test_no_conjugation_returns_the_element_that_met_it(self, group, max_n, slack):
        # y = s^-1 u s, first met from u, is never conjugated by s^-1, which
        # only gives u back; a start is conjugated by every generator
        logged, calls = logged_conjugations(group)
        table = conjugacy_classes(logged, max_n, slack=slack)
        assert table == conjugacy_classes(group, max_n, slack=slack)
        met_by, times, starts = {}, Counter(), set()
        for s, u, y in calls:
            assert met_by.get(u) != (group.invert(s), y)
            if u not in times and u not in met_by:
                starts.add(u)
            times[u] += 1
            if y != u:
                met_by.setdefault(y, (s, u))
        two_k = len(group.generators)
        assert all(n == two_k - (u not in starts) for u, n in times.items())

    @pytest.mark.parametrize("group,max_n,slack,searches,classes", [
        # the identity, and one search for each of 117 inverse pairs
        pytest.param(FreeGroup(2), 6, 2, 118, 235, id="free2"),
        # every class is its own inverse: x^-1 = x, or x = (ab)^k meets
        # (ab)^-k = a (ab)^k a
        pytest.param(DihedralInfinite(), 8, 4, 7, 7, id="dihedral"),
    ])
    def test_one_search_per_inverse_pair(self, group, max_n, slack, searches, classes):
        logged, calls = logged_conjugations(group)
        table = conjugacy_classes(logged, max_n, slack=slack)
        met, starts = set(), []
        for _, u, y in calls:
            if u not in met:
                starts.append(u)
            met |= {u, y}
        assert len(starts) == searches
        # every class is a searched one or the inverse of one
        found = {table.class_of[x] for x in starts}
        found |= {table.class_of[group.invert(x)] for x in starts}
        assert found == set(table.class_of.values()) == set(range(classes))

    def test_search_holds_at_most_the_budget(self, monkeypatch):
        # B(4) = 161 fits; the conjugates of length at most 24 do not
        monkeypatch.setenv("CONJRATIO_BUDGET", "1000")
        with pytest.raises(BudgetExceededError):
            conjugacy_classes(FreeGroup(2), 4, slack=20)

    @pytest.mark.parametrize("group,max_n,slack,held", [
        # B(3) = 217 and a class of 21 elements met, 20 past B(3) and 16 of
        # those on the outer sphere
        pytest.param(RaagGroup(raag.Raag(raag.cycle_graph(4))), 3, 3, 237, id="raag-c4"),
        # B(4) = 44 and a class of 31 met, 28 past B(4), 17 on the outer sphere
        pytest.param(Lamplighter(), 4, 5, 72, id="lamplighter"),
    ])
    def test_search_holds_the_ball_and_one_class(self, monkeypatch, group, max_n, slack, held):
        table = conjugacy_classes(group, max_n, slack=slack)
        monkeypatch.setenv("CONJRATIO_BUDGET", str(held))
        assert conjugacy_classes(group, max_n, slack=slack) == table
        monkeypatch.setenv("CONJRATIO_BUDGET", str(held - 1))
        with pytest.raises(BudgetExceededError):
            conjugacy_classes(group, max_n, slack=slack)

    @pytest.mark.parametrize("group,max_n,slack", [
        # B(20) = 41 = B(16) + 8; a reflection class meets 8 elements of
        # B(16) and 2 past it
        pytest.param(DihedralInfinite(), 16, 4, id="dihedral"),
        # B(4) = 129, and each element is its own class
        pytest.param(FreeAbelian(3), 4, 0, id="z3-slack0"),
        pytest.param(FreeGroup(2), 6, 2, id="free2"),
    ])
    def test_a_budget_holding_the_padded_ball_holds_the_search(self, monkeypatch, group,
                                                               max_n, slack):
        # the CLI charges B(max_n + slack) before the search, so the search
        # counts a class's elements in B(max_n) once, with the ball
        padded = sum(ball_enumerate(group, max_n + slack)[1])
        monkeypatch.setenv("CONJRATIO_BUDGET", str(padded))
        assert conjugacy_classes(group, max_n, slack=slack).radius == max_n

    @pytest.mark.parametrize("max_n,slack,bound_mb", [
        # meets 39,313 elements, holds B(6), 1,457, and at most 468 more
        pytest.param(6, 6, 1, id="free2-n6-slack6"),
        # meets 39,361 elements, holds B(8), 13,121, and at most 108 more
        pytest.param(8, 2, 2, id="free2-n8-slack2"),
    ])
    def test_search_memory_stays_near_the_ball(self, max_n, slack, bound_mb):
        tracemalloc.start()
        try:
            conjugacy_classes(FreeGroup(2), max_n, slack=slack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2 ** 20

    @pytest.mark.parametrize("group", [
        pytest.param(FreeGroup(2), id="free2"),
        pytest.param(FreeAbelian(3), id="z3"),
        pytest.param(DihedralInfinite(), id="dihedral"),
        pytest.param(Heisenberg(), id="heisenberg"),
        pytest.param(RaagGroup(raag.Raag(raag.path_graph(3))), id="raag-p3"),
        pytest.param(Lamplighter(), id="lamplighter"),
    ])
    @pytest.mark.parametrize("slack", [0, 1, 2])
    def test_counts_do_not_depend_on_generator_order(self, group, slack):
        # the census takes each class at its first BFS element; reordering
        # the generators reorders the BFS but not the classes' least lengths
        table = conjugacy_classes(group, 3, slack=slack)
        flipped = conjugacy_classes(with_generators(group, reversed(group.generators)), 3,
                                    slack=slack)
        assert list(table.dist) != list(flipped.dist)
        assert flipped.sphere_classes == table.sphere_classes
        assert flipped.stable == table.stable
        assert flipped.spheres == table.spheres

    @pytest.mark.parametrize("max_n,slack,stable,ball_classes", [
        (1, 0, None, (1, 4)),
        (1, 1, True, (1, 4)),
        (1, 2, False, (1, 2)),
        (1, 3, True, (1, 2)),
        (2, 1, False, (1, 2, 5)),
    ])
    def test_symmetric_group_reaches_the_unstable_branch(self, max_n, slack, stable,
                                                         ball_classes):
        table = conjugacy_classes(SymmetricGroup4(), max_n, slack=slack)
        assert table.stable is stable
        assert table.ball_classes == ball_classes


class TestSymmetricGroupDraws:
    """S4 is the one group here whose closure is unstable at small radii,
    so random generating sets of it pin the stability flag."""

    @given(st.lists(st.permutations(range(4)).map(tuple), min_size=1, max_size=3),
           st.integers(0, 2), st.integers(0, 3), st.booleans())
    def test_matches_reference_closure(self, generators, max_n, slack, with_length):
        group = s4_group(generators)
        if with_length:
            group = group._replace(length=ball_enumerate(group, 24)[0].__getitem__)
        table = conjugacy_classes(group, max_n, slack=slack)
        expected = reference_closure(group, max_n, slack)
        ball = {x: d for x, d in expected.dist.items() if d <= max_n}
        assert table == expected._replace(dist=ball)


class TestLength:
    """The closure admits conjugates by ``Group.length`` beyond the BFS, so
    each constructor's length is pinned against BFS distance here."""

    @pytest.mark.parametrize("group,radius", [
        pytest.param(FreeGroup(1), 10, id="free1"),
        pytest.param(FreeGroup(2), 8, id="free2"),
        pytest.param(FreeGroup(3), 5, id="free3"),
        pytest.param(DihedralInfinite(), 20, id="dihedral"),
        pytest.param(FreeAbelian(3), 6, id="z3"),
        pytest.param(Lamplighter(), 8, id="lamplighter"),
        pytest.param(RaagGroup(raag.Raag(raag.path_graph(3))), 5, id="raag-p3"),
        pytest.param(RaagGroup(raag.Raag(raag.cycle_graph(4))), 5, id="raag-c4"),
        pytest.param(RaagGroup(raag.Raag(raag.path_graph(4))), 5, id="raag-p4"),
    ])
    def test_length_is_the_bfs_distance(self, group, radius):
        for x, d in ball_enumerate(group, radius)[0].items():
            assert group.length(x) == d

    def test_views_drop_length_and_replace_keeps_it(self):
        group = FreeGroup(2)
        assert with_generators(group, group.generators).length is None
        assert group._replace(conjugator=oracle._two_products(group)).length is len
        assert Heisenberg().length is None


KERNEL_GROUPS = {
    "free2": FreeGroup(2),
    "z3": FreeAbelian(3),
    "dihedral": DihedralInfinite(),
    "heisenberg": Heisenberg(),
    "lamplighter": Lamplighter(),
    "raag-p3": RaagGroup(raag.Raag(raag.path_graph(3))),
    "raag-p4": RaagGroup(raag.Raag(raag.path_graph(4))),
    "free2-view": with_generators(FreeGroup(2), map(free_word, [(0,), (2,), (0, 2)])),
}


class TestConjugators:
    @pytest.mark.parametrize("group,s", [
        pytest.param(group, s, id=f"{name}-{k}")
        for name, group in KERNEL_GROUPS.items() for k, s in enumerate(group.generators)
    ])
    def test_kernel_is_the_group_law(self, group, s):
        conjugate = group.conjugator(s)
        s_inv = group.invert(s)
        for x in ball_enumerate(group, 4)[0]:
            assert conjugate(x) == group.multiply(group.multiply(s_inv, x), s)

    @pytest.mark.parametrize("group,generators", [
        pytest.param(DihedralInfinite(), [(0,), (0, 1)], id="dihedral-a-ab"),
        pytest.param(FreeGroup(2), [free_word(c) for c in [(0,), (2,), (0, 2)]],
                     id="free2-a-b-ab"),
    ])
    def test_other_generating_sets_conjugate_by_two_products(self, group, generators):
        products = []

        def multiply(x, y):
            products.append((x, y))
            return group.multiply(x, y)

        view = with_generators(group._replace(multiply=multiply), generators)
        for s in view.generators:
            s_inv = group.invert(s)
            for x in ball_enumerate(group, 3)[0]:
                products.clear()
                view.conjugator(s)(x)
                assert products == [(s_inv, x), (group.multiply(s_inv, x), s)]


class TestDihedralKey:
    def test_identity_and_small_words(self):
        assert dihedral_conjugacy_key(()) == ("rotation", 0)
        # the two length-1 reflections are not conjugate to each other
        assert dihedral_conjugacy_key((0,)) != dihedral_conjugacy_key((1,))
        # but each is conjugate to its odd translates: bab = r^-1 a r
        assert dihedral_conjugacy_key((1, 0, 1)) == dihedral_conjugacy_key((0,))
        assert dihedral_conjugacy_key((0, 1, 0)) == dihedral_conjugacy_key((1,))

    def test_partition_matches_union_find(self):
        g = DihedralInfinite()
        table = conjugacy_classes(g, 12, slack=12)
        assert table.stable is True
        key_of_class = {}
        class_of_key = {}
        for x, cls in table.class_of.items():
            key = dihedral_conjugacy_key(x)
            assert key_of_class.setdefault(cls, key) == key
            assert class_of_key.setdefault(key, cls) == cls

    def test_ball_class_counts(self):
        g = DihedralInfinite()
        dist, _ = ball_enumerate(g, 8)
        _, cum = key_class_counts(dist, dihedral_conjugacy_key, 8)
        assert cum == [1, 3, 4, 4, 5, 5, 6, 6, 7]


class TestHeisenbergKey:
    def test_central_elements_are_singletons(self):
        g = Heisenberg()
        table = conjugacy_classes(g, 4, slack=4)
        for x, cls in table.class_of.items():
            if x[0] == 0 and x[1] == 0:
                mates = [y for y, c in table.class_of.items() if c == cls]
                assert mates == [x]

    @given(triples, triples)
    def test_invariant_under_conjugation(self, x, h):
        g = Heisenberg()
        moved = g.multiply(g.multiply(g.invert(h), x), h)
        assert heisenberg_conjugacy_key(moved) == heisenberg_conjugacy_key(x)

    def test_partition_matches_union_find(self):
        g = Heisenberg()
        table = conjugacy_classes(g, 5, slack=5)
        assert table.stable is True
        key_of_class = {}
        class_of_key = {}
        for x, cls in table.class_of.items():
            key = heisenberg_conjugacy_key(x)
            assert key_of_class.setdefault(cls, key) == key
            assert class_of_key.setdefault(key, cls) == cls

    def test_ball_class_counts(self):
        dist, _ = ball_enumerate(Heisenberg(), 6)
        _, cum = key_class_counts(dist, heisenberg_conjugacy_key, 6)
        assert cum == [1, 5, 13, 25, 51, 79, 133]


class TestClosedForms:
    def test_heisenberg_series_and_classes_match_the_bfs(self):
        # 31 terms are more than twice the order-8 recurrence, so they pin the series
        dist, spheres = oracle.ball_enumerate(oracle.Heisenberg(), 30)
        assert list(islice(iter_series(*cg.HEISENBERG_SERIES), 31)) == spheres
        classes, _ = oracle.key_class_counts(dist, cg.heisenberg_conjugacy_key, 30)
        assert cg.heisenberg_class_spheres(30) == classes

    def test_dihedral_series_and_classes_match_the_bfs(self):
        dist, spheres = oracle.ball_enumerate(oracle.DihedralInfinite(), 40)
        assert list(islice(iter_series(*cg.DIHEDRAL_SERIES), 41)) == spheres
        classes, _ = oracle.key_class_counts(dist, cg.dihedral_conjugacy_key, 40)
        assert cg.dihedral_class_spheres(40) == classes

    def test_class_formulas_at_small_radii(self):
        assert cg.dihedral_class_spheres(0) == cg.heisenberg_class_spheres(0) == [1]
        assert cg.dihedral_class_spheres(1) == [1, 2]
        assert [cg.dihedral_y_class_spheres(n) for n in range(4)] == [
            [1], [1, 2], [1, 2, 2], [1, 2, 2, 1]]


def scaled_units(dim):
    """{2e_i, 3e_i}: compare's set y on Z^dim, and on F1 as {a^2, a^3}."""
    return [tuple(k * int(i == j) for j in range(dim)) for k in (2, 3) for i in range(dim)]


class TestSecondGeneratingSets:
    """Each family's declared set-y series and classes, which ``compare``
    prints, against a BFS of that set and the exact class key."""

    @pytest.mark.parametrize("cfg,group,gens_y,key,max_n", [
        pytest.param(RunConfig("free", rank=1), FreeGroup(1), ["\x00" * 2, "\x00" * 3],
                     fg.conj_key, 30, id="F1"),
        # ranks 3 and 4 have letters outside {a, A, b, B}, one pair and two
        *(pytest.param(RunConfig("free", rank=rank), FreeGroup(rank),
                       [*FreeGroup(rank).generators, free_word((0, 2))], fg.conj_key, max_n,
                       id=f"F{rank}")
          for rank, max_n in ((2, 8), (3, 5), (4, 4))),
        *(pytest.param(RunConfig("free-abelian", dim=dim), FreeAbelian(dim), scaled_units(dim),
                       lambda x: x, max_n, id=f"Z{dim}")
          for dim, max_n in ((1, 30), (2, 8), (3, 5))),
        pytest.param(RunConfig("dihedral-inf"), DihedralInfinite(), [(0,), (0, 1)],
                     dihedral_conjugacy_key, 120, id="D_inf"),
    ])
    def test_declared_counts_match_the_bfs(self, cfg, group, gens_y, key, max_n):
        dist, spheres = ball_enumerate(with_generators(group, gens_y), max_n)
        classes, _ = key_class_counts(dist, key, max_n)
        series, class_spheres = cli.FAMILIES[cfg.family].compare(cfg)
        assert list(islice(iter_series(*series), max_n + 1)) == spheres
        assert class_spheres(max_n) == classes


class TestKeyClassCounts:
    def test_lamplighter_keys_match_module_counts(self):
        dist, _ = ball_enumerate(Lamplighter(), 7)
        spheres, cum = key_class_counts(dist, ll.conj_key, 7)
        expected_spheres, expected_balls = ll.conjugacy_counts(7)
        assert spheres == expected_spheres
        assert cum == expected_balls


class TestGeneratingSetComparison:
    def test_line_under_two_sets(self):
        g = FreeAbelian(1)
        report = generating_set_comparison(
            g,
            ((1,), (-1,)),
            ((2,), (-2,), (3,), (-3,)),
            12,
            key=lambda x: x,
        )
        assert set(report.ratios_x) == {Fraction(1)}
        assert set(report.ratios_y) == {Fraction(1)}
        assert report.peak_difference == 0

    def test_dihedral_two_sets_agree(self):
        g = DihedralInfinite()
        other = with_generators(g, [(0,), (0, 1)])
        report = generating_set_comparison(
            g, g.generators, other.generators, 40, key=dihedral_conjugacy_key,
        )
        assert report.estimate_x.peak == Fraction(21, 73)
        assert report.estimate_y.peak == Fraction(13, 48)
        assert report.peak_difference == Fraction(59, 3504)
        assert report.peak_difference < Fraction(5, 100)

    def test_free_group_under_enlarged_set(self):
        g = FreeGroup(2)
        extra = g.generators + (
            free_word((0, 2)),
            fg.invert(free_word((0, 2))),
        )
        report = generating_set_comparison(
            g, g.generators, extra, 6, key=fg.conj_key
        )
        for ratios in (report.ratios_x, report.ratios_y):
            assert all(b < a for a, b in zip(ratios[2:], ratios[3:]))

    def test_comparison_enumerates_each_side_once(self, monkeypatch):
        radii = []

        def recording(group, max_n):
            radii.append(max_n)
            return ball_enumerate(group, max_n)

        monkeypatch.setattr(oracle, "ball_enumerate", recording)
        generating_set_comparison(DihedralInfinite(), [(0,), (1,)], [(0,), (0, 1)], 20,
                                  key=dihedral_conjugacy_key)
        # the generation checks run no BFS of their own, and the key needs no
        # padding: one BFS of B(20) per side
        assert radii == [20, 20]

    def test_generation_check_looks_only_for_the_generators(self, monkeypatch):
        # B(1) of the extended set has 603 elements and holds every standard
        # generator; B(2) of F300 (359,401 elements) is never enumerated
        monkeypatch.setenv("CONJRATIO_BUDGET", "1000")
        standard = FreeGroup(300)
        extended = with_generators(standard, [*standard.generators, free_word([0, 2])])
        oracle._check_generates(standard, extended)
        with pytest.raises(GenerationError, match="2 generator"):
            oracle._check_generates(FreeAbelian(1), with_generators(FreeAbelian(1), [(2,)]))

    def test_non_generating_set_is_rejected(self):
        g = FreeAbelian(1)
        with pytest.raises(GenerationError):
            generating_set_comparison(g, ((1,), (-1,)), ((2,), (-2,)), 6, key=lambda x: x)
