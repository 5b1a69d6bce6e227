"""Rotation, primitivity and necklace-counting machinery."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conjratio.words import (
    ClosureHypothesisError,
    cycrep_counts,
    divisors,
    euler_phi,
    least_rotation,
    mobius,
    parse_word,
    primitive_counts,
    rotate,
    word_str,
)

letters = st.integers(min_value=0, max_value=5)
short_words = st.lists(letters, min_size=0, max_size=12).map(tuple)
nonempty_words = st.lists(letters, min_size=1, max_size=12).map(tuple)


def brute_least_rotation(w):
    return min(rotate(w, k) for k in range(max(1, len(w))))


def is_primitive(word):
    """True unless the word is a proper power v^k, k > 1 (divisor-period check)."""
    w = tuple(word)
    n = len(w)
    if n == 0:
        raise ValueError("the empty word is not classified")
    return all(w[:d] * (n // d) != w for d in divisors(n) if d < n)


class TestLetters:
    def test_encoding_realises_letter_order(self):
        # a < a^-1 < b < b^-1 < ...
        assert parse_word("a") < parse_word("A") < parse_word("b")


class TestParsing:
    def test_parse_word(self):
        assert parse_word("abA") == (0, 2, 1)
        assert parse_word("") == ()

    def test_parse_rejects_other_characters(self):
        with pytest.raises(ValueError):
            parse_word("a b")

    @given(st.text(alphabet="abcABC", max_size=10))
    def test_roundtrip(self, text):
        assert word_str(parse_word(text)) == text


class TestRotation:
    @given(short_words, st.integers(-20, 20))
    def test_rotate_preserves_multiset(self, w, k):
        assert sorted(rotate(w, k)) == sorted(w)

    @given(short_words)
    def test_rotate_by_length_is_identity(self, w):
        assert rotate(w, len(w)) == w

    def test_least_rotation_examples(self):
        assert least_rotation(parse_word("ba")) == parse_word("ab")
        assert least_rotation(parse_word("aaa")) == parse_word("aaa")
        # all six rotations of "cabcab" checked by the brute helper
        w = parse_word("cabcab")
        assert brute_least_rotation(w) == parse_word("abcabc")
        assert least_rotation(w) == parse_word("abcabc")

    @given(short_words)
    def test_least_rotation_matches_brute_force(self, w):
        assert least_rotation(w) == brute_least_rotation(w)

    @given(nonempty_words, st.integers(0, 11))
    def test_least_rotation_rotation_invariant(self, w, k):
        assert least_rotation(rotate(w, k)) == least_rotation(w)

    @given(short_words)
    def test_least_rotation_idempotent(self, w):
        canon = least_rotation(w)
        assert least_rotation(canon) == canon
        assert sorted(canon) == sorted(w)


class TestPrimitivity:
    def test_examples(self):
        assert is_primitive(parse_word("ab"))
        assert not is_primitive(parse_word("abab"))
        with pytest.raises(ValueError):
            is_primitive(())

    def test_binary_words_vs_distinct_rotation_count(self):
        # a word is primitive iff all its rotations are distinct
        from itertools import product

        for n in range(1, 13):
            for w in product((0, 1), repeat=n):
                expected = len({rotate(w, k) for k in range(n)}) == n
                assert is_primitive(w) == expected


class TestNumberTheory:
    @given(st.integers(1, 2000))
    def test_divisors(self, n):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_divisors_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)

    def test_small_values(self):
        assert mobius(1) == 1 and euler_phi(1) == 1
        assert mobius(4) == 0 and euler_phi(4) == 2
        assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
        assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_divisor_sum_identities_to_1000(self):
        for n in range(1, 1001):
            ds = divisors(n)
            assert sum(euler_phi(d) for d in ds) == n
            assert sum(Fraction(mobius(d), d) for d in ds) == Fraction(euler_phi(n), n)

    def test_errors(self):
        with pytest.raises(ValueError):
            mobius(0)
        with pytest.raises(ValueError):
            euler_phi(0)


def brute_primitive_count(base, n):
    from itertools import product

    return sum(1 for w in product(range(base), repeat=n) if is_primitive(w))


def brute_necklace_count(base, n):
    from itertools import product

    return len({least_rotation(w) for w in product(range(base), repeat=n)})


class TestPrimitiveCounts:
    def test_binary_language(self):
        assert primitive_counts([2, 4, 8, 16])[:4] == [2, 2, 6, 12]

    def test_single_letter_language(self):
        assert primitive_counts([1] * 8) == [1] + [0] * 7

    def test_matches_brute_force(self):
        for base in (2, 3):
            counts = primitive_counts([base**n for n in range(1, 9)])
            assert counts == [brute_primitive_count(base, n) for n in range(1, 9)]

    def test_roundtrip_reconstructs_input(self):
        a = [3**n for n in range(1, 13)]
        p = primitive_counts(a)
        assert all(
            a[n - 1] == sum(p[d - 1] for d in divisors(n)) for n in range(1, 13)
        )

    def test_negative_result_is_structured_failure(self):
        with pytest.raises(ClosureHypothesisError) as err:
            primitive_counts([1, 0])
        assert err.value.n == 2
        assert "closure hypotheses" in str(err.value)


class TestCycrepCounts:
    def test_binary_necklaces(self):
        assert cycrep_counts([2**n for n in range(1, 7)]) == [2, 3, 4, 6, 8, 14]

    def test_single_letter_language(self):
        assert cycrep_counts([1] * 10) == [1] * 10

    def test_matches_brute_force(self):
        for base in (2, 3):
            counts = cycrep_counts([base**n for n in range(1, 11)])
            assert counts == [brute_necklace_count(base, n) for n in range(1, 11)]

    def test_non_divisible_total_is_structured_failure(self):
        with pytest.raises(ClosureHypothesisError) as err:
            cycrep_counts([0, 1])
        assert err.value.n == 2

    def test_counting_identity(self):
        a = [4, 12, 28, 84, 244, 732, 2188, 6564]
        c = cycrep_counts(a)
        for n in range(1, len(a) + 1):
            total = sum(euler_phi(n // d) * a[d - 1] for d in divisors(n))
            assert c[n - 1] * n == total

    def test_class_count_tracks_per_length_total(self):
        # for a(n) = k^n the necklace count times n stays within
        # 2n * k^(-n/2) of a(n), k >= 2
        for k in (2, 3, 4):
            a = [k**n for n in range(1, 31)]
            c = cycrep_counts(a)
            for n in range(1, 31):
                bound = 2 * n * k ** (-n / 2)
                assert abs(c[n - 1] * n / a[n - 1] - 1) <= bound
