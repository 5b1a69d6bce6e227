"""Brute-force Cayley-graph oracle: BFS, conjugation closure, comparisons."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conjratio import free_group as fg
from conjratio import lamplighter as ll
from conjratio import oracle, raag
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
    UnionFind,
    ball_enumerate,
    conjugacy_classes,
    dihedral_conjugacy_key,
    generating_set_comparison,
    heisenberg_conjugacy_key,
    key_class_counts,
    with_generators,
)
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
    full census of B(max_n + slack) and another of B(max_n + slack - 1)."""
    dist, _ = ball_enumerate(group, max_n + slack)
    pairs = []
    for x in dist:
        for s in group.generators:
            y = group.multiply(group.multiply(group.invert(s), x), s)
            if y in dist and y != x:
                pairs.append((x, y))

    def census(cap):
        uf = UnionFind()
        members = [x for x in dist if dist[x] <= cap]
        for x in members:
            uf.add(x)
        for x, y in pairs:
            if dist[x] <= cap and dist[y] <= cap:
                uf.union(x, y)
        min_len = {}
        for x in members:
            r = uf.find(x)
            min_len[r] = min(min_len.get(r, dist[x]), dist[x])
        return uf, sorted(m for m in min_len.values() if m <= max_n)

    uf, mins = census(max_n + slack)
    stable = None if slack == 0 else census(max_n + slack - 1)[1] == mins
    roots, class_of = {}, {}
    for x in dist:
        if dist[x] <= max_n:
            class_of[x] = roots.setdefault(uf.find(x), len(roots))
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


class SymmetricGroup4:
    """S4 on tuples, generated by the adjacent transpositions (involutions)."""

    identity = (0, 1, 2, 3)
    generators = ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))

    def multiply(self, x, y):
        return tuple(x[i] for i in y)

    def invert(self, x):
        out = [0] * len(x)
        for i, v in enumerate(x):
            out[v] = i
        return tuple(out)


class TestAdapters:
    @pytest.mark.parametrize(
        "group",
        [
            FreeGroup(2),
            FreeAbelian(3),
            DihedralInfinite(),
            with_generators(DihedralInfinite(), [(0,), (0, 1)]),
            Heisenberg(),
            RaagGroup(raag.path_graph(3)),
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
        # a, A, b, B, c, C on the path a - b - c: a and c leave markers in each other's piles
        (RaagGroup(raag.path_graph(3)), (((1,), (), (0,)), ((-1,), (), (0,)),
                                         ((), (1,), ()), ((), (-1,), ()),
                                         ((0,), (), (1,)), ((0,), (), (-1,)))),
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


class TestUnionFind:
    def test_union_and_find(self):
        uf = UnionFind()
        for x in range(5):
            uf.add(x)
        uf.union(0, 1)
        uf.union(3, 4)
        assert uf.find(0) == uf.find(1)
        assert uf.find(3) == uf.find(4)
        assert uf.find(2) not in (uf.find(0), uf.find(3))
        uf.union(1, 3)
        assert uf.find(0) == uf.find(4)

    def test_add_is_idempotent(self):
        uf = UnionFind()
        uf.add("x")
        uf.union("x", "x")
        assert uf.find("x") == uf.find("x")


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

    @pytest.mark.parametrize("group,max_n", [
        pytest.param(FreeGroup(1), 6, id="free1"),
        pytest.param(FreeGroup(2), 4, id="free2"),
        pytest.param(FreeAbelian(2), 4, id="z2"),
        pytest.param(DihedralInfinite(), 6, id="dihedral-reflections"),
        pytest.param(with_generators(DihedralInfinite(), [(0,), (0, 1)]), 5,
                     id="dihedral-reflection-rotation"),
        pytest.param(Heisenberg(), 4, id="heisenberg"),
        pytest.param(Lamplighter(), 4, id="lamplighter"),
        pytest.param(RaagGroup(raag.path_graph(3)), 3, id="raag-p3"),
        pytest.param(RaagGroup(raag.empty_graph(2)), 3, id="raag-empty2"),
        pytest.param(with_generators(FreeGroup(2), map(free_word, [(0,), (2,), (0, 2)])), 2,
                     id="free2-view"),
        pytest.param(SymmetricGroup4(), 2, id="s4"),
    ])
    @pytest.mark.parametrize("slack", [0, 1, 2])
    def test_matches_reference_closure(self, group, max_n, slack):
        table = conjugacy_classes(group, max_n, slack=slack)
        expected = reference_closure(group, max_n, slack)
        assert table == expected
        assert list(table.class_of.items()) == list(expected.class_of.items())
        # cut to B(max_n), the padded ball is the BFS of B(max_n), in the same order
        ball = [(x, d) for x, d in table.dist.items() if d <= max_n]
        assert ball == list(ball_enumerate(group, max_n)[0].items())

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
        assert list(islice(iter_series(*oracle.HEISENBERG_SERIES), 31)) == spheres
        classes, _ = oracle.key_class_counts(dist, oracle.heisenberg_conjugacy_key, 30)
        assert oracle.heisenberg_class_spheres(30) == classes

    def test_dihedral_series_and_classes_match_the_bfs(self):
        dist, spheres = oracle.ball_enumerate(oracle.DihedralInfinite(), 40)
        assert list(islice(iter_series(*oracle.DIHEDRAL_SERIES), 41)) == spheres
        classes, _ = oracle.key_class_counts(dist, oracle.dihedral_conjugacy_key, 40)
        assert oracle.dihedral_class_spheres(40) == classes

    def test_class_formulas_at_small_radii(self):
        assert oracle.dihedral_class_spheres(0) == oracle.heisenberg_class_spheres(0) == [1]
        assert oracle.dihedral_class_spheres(1) == [1, 2]


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
            slack=1,
        )
        assert set(report.ratios_x) == {Fraction(1)}
        assert set(report.ratios_y) == {Fraction(1)}
        assert report.peak_difference == 0

    def test_dihedral_two_sets_agree(self):
        g = DihedralInfinite()
        other = with_generators(g, [(0,), (0, 1)])
        report = generating_set_comparison(
            g, g.generators, other.generators, 40, slack=2,
            key=dihedral_conjugacy_key,
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

    def test_keyless_comparison_enumerates_each_side_once(self, monkeypatch):
        radii = []

        def recording(group, max_n):
            radii.append(max_n)
            return ball_enumerate(group, max_n)

        monkeypatch.setattr(oracle, "ball_enumerate", recording)
        generating_set_comparison(DihedralInfinite(), [(0,), (1,)], [(0,), (0, 1)], 20,
                                  slack=4)
        # the generation checks run no BFS of their own: one padded BFS per side
        assert radii == [24, 24]

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
            generating_set_comparison(g, ((1,), (-1,)), ((2,), (-2,)), 6, slack=1)
