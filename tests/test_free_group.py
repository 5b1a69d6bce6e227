"""Free-group counting: reduced words, conjugacy keys, closed-form counts."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conjratio import free_group as fg
from conjratio import oracle
from conjratio.words import parse_word

rank2_letters = st.integers(min_value=0, max_value=3)
rank2_words = st.lists(rank2_letters, min_size=0, max_size=10).map(tuple)
# group elements: reduced str words
reduced2 = rank2_words.map(fg.reduce_word)
# rank 300: letters up to chr(599), past Latin-1
reduced300 = st.lists(st.integers(min_value=0, max_value=599), max_size=10).map(fg.reduce_word)


def free_word(codes):
    """The free-group element spelled by reduced letter codes."""
    return "".join(map(chr, codes))


def all_reduced_words(rank, length):
    if length == 0:
        yield free_word(())
        return
    for w in all_reduced_words(rank, length - 1):
        for c in range(2 * rank):
            if not w or ord(w[-1]) != c ^ 1:
                yield w + free_word((c,))


def ball_words(rank, radius):
    out = []
    for n in range(radius + 1):
        out.extend(all_reduced_words(rank, n))
    return out


class TestReduction:
    def test_cancellation(self):
        assert fg.reduce_word(parse_word("aA")) == free_word(())
        assert fg.reduce_word(parse_word("abBA")) == free_word(())
        assert fg.reduce_word(parse_word("abA")) == free_word(parse_word("abA"))

    @given(rank2_words)
    def test_reduced_output_has_no_adjacent_inverses(self, w):
        r = fg.reduce_word(w)
        assert fg.is_reduced(r)
        assert all(ord(a) != ord(b) ^ 1 for a, b in zip(r, r[1:]))

    @given(reduced2, reduced2, reduced2)
    def test_multiply_associative(self, x, y, z):
        assert fg.multiply(fg.multiply(x, y), z) == fg.multiply(x, fg.multiply(y, z))

    @given(reduced2)
    def test_inverse(self, w):
        assert fg.multiply(w, fg.invert(w)) == free_word(())
        assert fg.multiply(fg.invert(w), w) == free_word(())


class TestGroupLaws:
    """The str kernels against free reduction of the concatenation."""

    @given(reduced300, reduced300)
    def test_multiply_is_reduced_concatenation(self, x, y):
        assert fg.multiply(x, y) == fg.reduce_word(x + y)
        assert fg.is_reduced(fg.multiply(x, y))

    @given(reduced300)
    def test_identity_and_inverse(self, w):
        assert fg.multiply(w, "") == fg.multiply("", w) == w
        assert fg.multiply(w, fg.invert(w)) == fg.multiply(fg.invert(w), w) == ""
        assert fg.invert(fg.invert(w)) == w
        assert fg.invert(w) == free_word(ord(x) ^ 1 for x in reversed(w))

    @given(reduced300, reduced300)
    def test_invert_reverses_products(self, x, y):
        assert fg.invert(fg.multiply(x, y)) == fg.multiply(fg.invert(y), fg.invert(x))

    @given(reduced300, reduced300)
    def test_key_is_a_class_invariant(self, w, z):
        key = fg.conj_key(w)
        assert isinstance(key, str) and fg.is_cyclically_reduced(key)
        assert fg.conj_key(fg.multiply(fg.multiply(z, w), fg.invert(z))) == key
        # x y and y x are conjugate
        assert fg.conj_key(fg.multiply(w, z)) == fg.conj_key(fg.multiply(z, w))

    def test_swap_table_matches_a_table_built_per_word(self):
        def per_word(word):  # the table built afresh for each word
            return word.translate({c: c ^ 1 for c in map(ord, word)})[::-1]

        past_rank_1000 = [free_word(range(2000, 2000 + n, 3)) for n in range(1, 40)]
        past_rank_1000.append(free_word((2 * fg.MAX_RANK - 2, 2001, 2 * fg.MAX_RANK - 1)))
        for w in ball_words(2, 6) + past_rank_1000:
            assert fg.invert(w) == per_word(w)

    def test_rank_cap(self):
        assert oracle.FreeGroup(3).generators == tuple(map(free_word, ((0,), (1,), (2,),
                                                                        (3,), (4,), (5,))))
        assert ord(chr(2 * fg.MAX_RANK - 1)) == 0x10FFFF  # the last code point
        with pytest.raises(ValueError, match="rank must be at most 557056"):
            oracle.FreeGroup(fg.MAX_RANK + 1)


class TestCyclicReduction:
    def test_examples(self):
        assert fg.cyclic_reduce(free_word(parse_word("abA"))) == free_word(parse_word("b"))
        assert fg.cyclic_reduce(free_word(parse_word("ab"))) == free_word(parse_word("ab"))
        assert fg.cyclic_reduce(free_word(parse_word("abbA"))) == free_word(parse_word("bb"))

    def test_reduction_is_witnessed_by_short_conjugator(self):
        # some z with |z| <= 2 conjugates the output back to the input
        w = free_word(parse_word("abbA"))
        core = fg.cyclic_reduce(w)
        witnesses = [
            z
            for z in ball_words(2, 2)
            if fg.multiply(fg.multiply(z, core), fg.invert(z)) == w
        ]
        assert free_word(parse_word("a")) in witnesses

    @given(rank2_words)
    def test_output_cyclically_reduced_and_conjugate(self, w):
        core = fg.cyclic_reduce(fg.reduce_word(w))
        assert fg.is_cyclically_reduced(core)
        assert len(core) <= len(fg.reduce_word(w))
        assert fg.conj_key(core) == fg.conj_key(fg.reduce_word(w))

    def test_is_cyclically_reduced(self):
        assert fg.is_cyclically_reduced(free_word(parse_word("ab")))
        assert not fg.is_cyclically_reduced(free_word(parse_word("abA")))
        assert fg.is_cyclically_reduced(free_word(()))


class TestCounts:
    def test_rank_one_is_the_line(self):
        assert fg.ball_counts(1, 5) == [1, 3, 5, 7, 9, 11]
        assert fg.sphere_sizes(1, 4) == [1, 2, 2, 2, 2]

    def test_rank_two_spheres(self):
        assert fg.sphere_sizes(2, 4) == [1, 4, 12, 36, 108]

    def test_rank_three_sphere_two(self):
        assert fg.sphere_sizes(3, 2)[2] == 30

    @pytest.mark.parametrize("rank,radius", [(1, 12), (2, 9), (3, 6)])
    def test_spheres_match_direct_enumeration(self, rank, radius):
        expected = [
            sum(1 for _ in all_reduced_words(rank, n)) for n in range(radius + 1)
        ]
        assert fg.sphere_sizes(rank, radius) == expected
        assert fg.ball_counts(rank, radius) == list(itertools.accumulate(expected))

    def test_balls_match_oracle_bfs(self):
        _, spheres = oracle.ball_enumerate(oracle.FreeGroup(2), 6)
        assert fg.sphere_sizes(2, 6) == spheres
        assert fg.ball_counts(2, 6) == [
            sum(spheres[: n + 1]) for n in range(7)
        ]

    def test_ball_counts_cumulative(self):
        for rank in (1, 2, 4):
            balls = fg.ball_counts(rank, 8)
            spheres = fg.sphere_sizes(rank, 8)
            assert balls == [sum(spheres[: n + 1]) for n in range(9)]

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            fg.sphere_sizes(0, 3)


class TestCyclicallyReducedCounts:
    def test_rank_two_closed_form(self):
        # strict counts from n = 1: 3^n + 2 + (-1)^n
        assert fg.cyclically_reduced_counts(2, 8) == [
            4, 12, 28, 84, 244, 732, 2188, 6564,
        ]

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_filtered_enumeration(self, rank):
        expected = [
            sum(1 for w in all_reduced_words(rank, n) if fg.is_cyclically_reduced(w))
            for n in range(1, 7)
        ]
        assert fg.cyclically_reduced_counts(rank, 6) == expected


class TestConjKey:
    @given(reduced2, reduced2)
    def test_invariant_under_conjugation(self, w, z):
        conj = fg.multiply(fg.multiply(z, w), fg.invert(z))
        assert fg.conj_key(conj) == fg.conj_key(w)

    @given(reduced300)
    def test_key_is_rotation_canonical(self, w):
        # the least of all rotations of the cyclic reduction, as a str
        core = fg.cyclic_reduce(w)
        key = fg.conj_key(w)
        assert isinstance(key, str) and fg.is_cyclically_reduced(key)
        assert key == min(core[k:] + core[:k] for k in range(max(1, len(core))))

    def test_same_key_pairs_have_explicit_conjugators(self):
        # peel both words to their cyclically reduced cores, align the cores
        # by rotation, and check the assembled conjugator algebraically
        elements = ball_words(2, 6)
        by_key = {}
        for w in elements:
            by_key.setdefault(fg.conj_key(w), []).append(w)
        checked = 0
        for key, members in by_key.items():
            rep = members[0]
            for other in members[1:]:
                z = conjugator_witness(rep, other)
                assert fg.multiply(fg.multiply(z, other), fg.invert(z)) == rep
                checked += 1
        assert checked == len(elements) - len(by_key)

    def test_distinct_keys_are_not_conjugate_in_ball(self):
        # partition by key must match the oracle's conjugation closure
        table = oracle.conjugacy_classes(oracle.FreeGroup(2), 5, slack=2)
        key_of_class = {}
        class_of_key = {}
        for word, cls in table.class_of.items():
            key = fg.conj_key(word)
            assert key_of_class.setdefault(cls, key) == key
            assert class_of_key.setdefault(key, cls) == cls

    def test_class_counts_match_oracle(self):
        table = oracle.conjugacy_classes(oracle.FreeGroup(2), 5, slack=2)
        assert table.stable is True
        assert list(table.ball_classes) == fg.conjugacy_ball_counts(2, 5)
        assert list(table.sphere_classes) == fg.conjugacy_sphere_counts(2, 5)


def peel(word):
    """Split a reduced word as (prefix, core) with word = prefix core prefix^-1."""
    w = word
    prefix = ""
    while len(w) >= 2 and ord(w[0]) == ord(w[-1]) ^ 1:
        prefix += w[0]
        w = w[1:-1]
    return prefix, w


def conjugator_witness(target, source):
    """A word z with z source z^-1 = target, assuming equal conjugacy keys."""
    p, c = peel(target)
    q, d = peel(source)
    for k in range(max(1, len(c))):
        if c[k:] + c[:k] == d:
            # c = s t, d = t s = s^-1 c s, so target = (p s) d (p s)^-1
            q_inv = free_word(ord(x) ^ 1 for x in reversed(q))
            return fg.reduce_word(p + c[:k] + q_inv)
    raise AssertionError(f"cores {c} and {d} are not rotations")


class TestExtendedGeneratingSet:
    def test_balls_and_classes_under_a_b_ab(self):
        # the y side of compare --family free: {a, b, ab}^+-1 at rank 2
        a, b = free_word((0,)), free_word((2,))
        group = oracle.with_generators(oracle.FreeGroup(2), [a, b, a + b])
        dist, spheres = oracle.ball_enumerate(group, 8)
        assert list(itertools.accumulate(spheres)) == [2 ** (2 * n + 1) - 1 for n in range(9)]
        _, classes = oracle.key_class_counts(dist, fg.conj_key, 8)
        assert classes == [1, 7, 19, 45, 117, 327, 1029, 3375, 11607]


class TestConjugacyCounts:
    def test_rank_two_sphere_classes(self):
        assert fg.conjugacy_sphere_counts(2, 8) == [1, 4, 8, 12, 26, 52, 132, 316, 836]

    def test_rank_two_length_two_classes_enumerated(self):
        # 12 cyclically reduced words of length 2 fall into 8 rotation classes
        words2 = [w for w in all_reduced_words(2, 2) if fg.is_cyclically_reduced(w)]
        assert len(words2) == 12
        assert len({fg.conj_key(w) for w in words2}) == 8
        assert fg.conjugacy_sphere_counts(2, 2) == [1, 4, 8]

    def test_rank_one_two_new_classes_per_length(self):
        assert fg.conjugacy_sphere_counts(1, 6) == [1] + [2] * 6

    def test_ball_classes_accumulate(self):
        spheres = fg.conjugacy_sphere_counts(2, 10)
        assert fg.conjugacy_ball_counts(2, 10) == [
            sum(spheres[: n + 1]) for n in range(11)
        ]

    def test_sphere_classes_equal_brute_rotation_classes(self):
        for n in range(1, 11):
            classes = {
                fg.conj_key(w)
                for w in all_reduced_words(2, n)
                if fg.is_cyclically_reduced(w)
            }
            assert len(classes) == fg.conjugacy_sphere_counts(2, n)[n]

    def test_ratio_strictly_decreasing(self):
        classes = fg.conjugacy_ball_counts(2, 12)
        balls = fg.ball_counts(2, 12)
        ratios = [Fraction(c, b) for c, b in zip(classes, balls)]
        assert all(ratios[n + 1] < ratios[n] for n in range(2, 12))

    def test_normalized_sphere_classes_approach_three_quarters(self):
        # n * class-sphere(n) / sphere(n) tends to (2k-1)/2k; at rank 2 it
        # dips below 1 from n = 4 onward
        spheres = fg.sphere_sizes(2, 14)
        classes = fg.conjugacy_sphere_counts(2, 14)
        values = [Fraction(n * classes[n], spheres[n]) for n in range(2, 15)]
        assert values[0] == Fraction(4, 3)
        assert values[2] == Fraction(26, 27)  # n = 4, first dip below 1
        assert all(v < 1 for v in values[2:])
        assert abs(values[-1] - Fraction(3, 4)) < Fraction(1, 1000)
