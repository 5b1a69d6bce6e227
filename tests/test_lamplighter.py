"""Lamp-and-cursor wreath product: metric, enumeration, conjugacy keys."""

from fractions import Fraction
from itertools import accumulate
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conjratio import lamplighter as ll
from conjratio import oracle
from conjratio.words import cycrep_counts

lamp_sets = st.frozensets(st.integers(-4, 4), max_size=5)
cursors = st.integers(-4, 4)
elements = st.builds(ll.element, lamp_sets, cursors)


def bfs_elements(radius):
    dist, _ = oracle.ball_enumerate(oracle.Lamplighter(), radius)
    return dist


def window_sum_spheres(max_n):
    """|S(0..max_n)| by summing binomials over lamp windows: each window
    fixes the walk, its forced end lamps, and the free positions among
    which any number of lamps are lit."""
    counts = [0] * (max_n + 1)
    for m, p, q, base in ll._windows(max_n):
        lo, hi = min(0, m), max(0, m)
        forced = (1 if p < lo else 0) + (1 if q > hi else 0)
        free = (q - p + 1) - forced
        for j in range(free + 1):
            length = base + forced + j
            if length <= max_n:
                counts[length] += comb(free, j)
    return counts


def necklaces(length, ones):
    """Binary necklaces of the given length with the given number of ones,
    by Burnside's lemma over the rotations (phi by gcd, not from ``words``)."""
    phi = lambda d: sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)  # noqa: E731
    common = gcd(length, ones)
    return sum(phi(d) * comb(length // d, ones // d)
               for d in range(1, common + 1) if common % d == 0) // length


def double_sum_class_spheres(max_n):
    """Classes by least length 0..max_n, summed over class shapes. Cursor 0:
    the identity, one lamp at length 1, and k >= 2 lamps spanning w >= 1
    steps, both ends lit, at length k + 2w, C(w - 1, k - 2) of them up to
    translation. Cursor +-M: a necklace of M lamp parities with k lit, at
    length M + k."""
    spheres = [1] + [0] * max_n
    if max_n >= 1:
        spheres[1] += 1
    for w in range(1, max_n // 2):
        for k in range(2, min(w + 1, max_n - 2 * w) + 1):
            spheres[k + 2 * w] += comb(w - 1, k - 2)
    for m in range(1, max_n + 1):
        for k in range(min(m, max_n - m) + 1):
            spheres[m + k] += 2 * necklaces(m, k)
    return spheres


class TestGroupLaw:
    def test_step_pair_cancels(self):
        assert ll.multiply(ll.element((), 1), ll.element((), -1)) == ll.IDENTITY

    def test_lamp_is_involution(self):
        assert ll.multiply(ll.TOGGLE, ll.TOGGLE) == ll.IDENTITY

    def test_toggle_then_step_squared(self):
        x = ll.element((0,), 1)
        assert ll.multiply(x, x) == ll.element((0, 1), 2)

    @given(elements, elements, elements)
    def test_associative(self, x, y, z):
        assert ll.multiply(ll.multiply(x, y), z) == ll.multiply(x, ll.multiply(y, z))

    @given(elements)
    def test_inverse(self, x):
        assert ll.multiply(x, ll.invert(x)) == ll.IDENTITY
        assert ll.multiply(ll.invert(x), x) == ll.IDENTITY

    @given(elements, elements)
    def test_support_law(self, x, y):
        z = ll.multiply(x, y)
        assert z.cursor == x.cursor + y.cursor
        shifted = frozenset(i + x.cursor for i in y.lamps)
        assert z.lamps == x.lamps ^ shifted

    def test_generators(self):
        gens = ll.generators()
        assert ll.TOGGLE in gens and ll.STEP in gens
        assert all(ll.word_length(g) == 1 for g in gens)


class TestWordLength:
    def test_examples(self):
        assert ll.word_length(ll.IDENTITY) == 0
        assert ll.word_length(ll.element((), 5)) == 5
        assert ll.word_length(ll.element((0,), 0)) == 1
        assert ll.word_length(ll.element((-2,), 3)) == 8

    def test_against_bfs_ball_eight(self):
        dist = bfs_elements(8)
        assert len(dist) == 490
        for x, d in dist.items():
            assert ll.word_length(x) == d

    def test_metric_moves_by_one_per_generator(self):
        dist = bfs_elements(7)
        for x in dist:
            for s in ll.generators():
                assert abs(ll.word_length(ll.multiply(x, s)) - ll.word_length(x)) == 1


class TestCounts:
    SPHERES = [1, 3, 6, 12, 22, 40, 71, 123, 212, 360, 607, 1017, 1693, 2807, 4635]
    BALLS = [1, 4, 10, 22, 44, 84, 155, 278, 490, 850, 1457, 2474, 4167, 6974, 11609]

    def test_sphere_counts(self):
        assert ll.sphere_counts(14) == self.SPHERES

    def test_ball_counts(self):
        assert list(accumulate(ll.sphere_counts(14))) == self.BALLS

    def test_series_matches_window_sum(self):
        assert ll.sphere_counts(150) == window_sum_spheres(150)

    def test_spheres_match_bfs(self):
        _, spheres = oracle.ball_enumerate(oracle.Lamplighter(), 9)
        assert ll.sphere_counts(9) == spheres

    def test_enumeration_matches_counts(self):
        for max_n in range(13):
            ball = list(accumulate(ll.sphere_counts(max_n)))[-1]
            assert sum(1 for _ in ll.elements_by_length(max_n)) == ball
        seen = {}
        for x, n in ll.elements_by_length(12):
            assert ll.word_length(x) == n
            assert x not in seen
            seen[x] = n
        for n in range(13):
            assert sum(1 for d in seen.values() if d == n) == self.SPHERES[n]


class TestConjKey:
    def test_cursor_is_preserved_by_conjugation(self):
        fwd = ll.element((), 1)
        back = ll.element((), -1)
        assert ll.conj_key(fwd) != ll.conj_key(back)

    def test_static_keys_are_translation_classes(self):
        assert ll.conj_key(ll.element((1, 3), 0)) == ll.conj_key(ll.element((0, 2), 0))
        assert ll.conj_key(ll.element((1, 3), 0)) != ll.conj_key(ll.element((0, 3), 0))
        assert ll.conj_key(ll.IDENTITY) != ll.conj_key(ll.TOGGLE)

    def test_moving_key_example(self):
        # conjugating the step by a lamp toggle flips a lamp pair
        t, s = ll.TOGGLE, ll.STEP
        conj = ll.multiply(ll.multiply(t, s), ll.invert(t))
        assert conj == ll.element((0, 1), 1)
        assert ll.conj_key(conj) == ll.conj_key(s)

    def test_exhaustive_invariance_small_ball(self):
        dist = bfs_elements(4)
        for x in dist:
            kx = ll.conj_key(x)
            for h in dist:
                moved = ll.multiply(ll.multiply(h, x), ll.invert(h))
                assert ll.conj_key(moved) == kx

    @given(elements, elements)
    def test_invariance_random(self, x, h):
        moved = ll.multiply(ll.multiply(h, x), ll.invert(h))
        assert ll.conj_key(moved) == ll.conj_key(x)

    def test_partition_matches_oracle_closure(self):
        table = oracle.conjugacy_classes(oracle.Lamplighter(), 6, slack=6)
        assert table.stable is True
        key_of_class = {}
        class_of_key = {}
        for x, cls in table.class_of.items():
            key = ll.conj_key(x)
            assert key_of_class.setdefault(cls, key) == key
            assert class_of_key.setdefault(key, cls) == cls


class TestConjugacyCounts:
    CONJ_SPHERES = [1, 3, 4, 4, 7, 6, 11, 11, 17, 22, 32, 41, 66, 87, 135]

    def test_class_spheres(self):
        spheres, balls = ll.conjugacy_counts(14)
        assert spheres == self.CONJ_SPHERES
        assert balls == [sum(spheres[: n + 1]) for n in range(15)]
        assert balls[14] == 447

    def test_smallest_radii(self):
        assert ll.conjugacy_counts(0) == ([1], [1])
        assert ll.conjugacy_counts(1) == ([1, 3], [1, 4])

    def test_closed_form_matches_enumeration(self):
        # one census of B(20) holds the class counts of every smaller radius
        spheres, balls = oracle.key_class_counts(dict(ll.elements_by_length(20)), ll.conj_key, 20)
        for n in range(21):
            assert ll.conjugacy_counts(n) == (spheres[: n + 1], balls[: n + 1])

    def test_smaller_radii_are_prefixes(self):
        spheres, balls = ll.conjugacy_counts(300)
        for n in range(301):
            assert ll.conjugacy_counts(n) == (spheres[: n + 1], balls[: n + 1])

    def test_matches_the_binomial_and_necklace_double_sum(self):
        assert ll.conjugacy_counts(300)[0] == double_sum_class_spheres(300)

    def test_lucas_necklaces_are_a000358(self):
        lucas = [1, 3]
        while len(lucas) < 12:
            lucas.append(lucas[-1] + lucas[-2])
        assert cycrep_counts(lucas) == [1, 2, 2, 3, 3, 5, 5, 8, 10, 15, 19, 31]

    def test_matches_oracle_counts(self):
        table = oracle.conjugacy_classes(oracle.Lamplighter(), 6, slack=6)
        spheres, balls = ll.conjugacy_counts(6)
        assert list(table.sphere_classes) == spheres
        assert list(table.ball_classes) == balls

    def test_ratio_strictly_decreasing(self):
        _, class_balls = ll.conjugacy_counts(14)
        balls = list(accumulate(ll.sphere_counts(14)))
        ratios = [Fraction(c, b) for c, b in zip(class_balls, balls)]
        assert all(ratios[n + 1] < ratios[n] for n in range(4, 14))
