"""Exact sequence utilities: ratios, transforms, estimates, rendering."""

import decimal
import time
from fractions import Fraction
from itertools import islice
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conjratio import free_group, lamplighter, oracle
from conjratio.sequences import (
    convolve,
    decimal_str,
    iter_power,
    iter_series,
    poly_mul,
    ratio,
    window_estimate,
)
from conjratio.vanishing import MODE_GEOMETRIC, MODE_INCREMENT, check_ratio_vanishes, stolz_cesaro

ball_values = st.lists(st.integers(0, 50), min_size=1, max_size=10).map(
    lambda incs: tuple([1 + incs[0]] + incs[1:])
)


def accumulate(values):
    out, total = [], 0
    for v in values:
        total += v
        out.append(total)
    return tuple(out)


def terms(numer, denom, n):
    return list(islice(iter_series(numer, denom), n))


class TestIterSeries:
    def test_free_group_spheres(self):
        assert terms((1, 1), (1, -3), 6) == [1, 4, 12, 36, 108, 324]

    def test_free_abelian_spheres(self):
        # ((1 + x) / (1 - x))^3: 4n^2 + 2 from n = 1
        assert terms((1, 3, 3, 1), (1, -3, 3, -1), 6) == [1, 6, 18, 38, 66, 102]

    def test_lamplighter_spheres(self):
        # the BFS sphere sizes pinned in tests/test_lamplighter.py
        assert terms(*lamplighter.SERIES, 15) == [
            1, 3, 6, 12, 22, 40, 71, 123, 212, 360, 607, 1017, 1693, 2807, 4635]

    def test_polynomial_over_one_ends_in_zeros(self):
        assert terms((1, 2, 3), (1,), 5) == [1, 2, 3, 0, 0]

    @pytest.mark.parametrize("denom", [(2, 1), (0, 1), ()])
    def test_denominator_must_start_with_one(self, denom):
        with pytest.raises(ValueError):
            next(iter_series((1,), denom))

    def test_reads_the_polynomials_lazily(self):
        # ((1 + x) / (1 - x))^d at d = 10^6, whose binomials are never all built
        dim = 10 ** 6
        numer = (comb(dim, k) for k in range(dim + 1))
        denom = ((-1) ** k * comb(dim, k) for k in range(dim + 1))
        start = time.perf_counter()
        assert terms(numer, denom, 3) == [1, 2 * dim, 2 * dim * dim]
        assert time.perf_counter() - start < 1

    def test_term_n_reads_the_denominator_only_through_term_n(self):
        # a lazy denominator may cost work per term, so none is read ahead
        read = []

        def one_less_three_x():
            for k, d in enumerate([1, -3] + [0] * 10):
                read.append(k)
                yield d

        series = iter_series((1, 1), one_less_three_x())
        assert next(series) == 1
        assert read == [0]
        assert [next(series) for _ in range(5)] == [4, 12, 36, 108, 324]
        assert read == [0, 1, 2, 3, 4, 5]


class TestIterPower:
    @pytest.mark.parametrize("poly,exponent", [
        ((1, 1), 7), ((1, -1), 4), ((1, 3, 4, -2), 5), ((1, 0, -2), 3), ((1, 5), 0)])
    def test_matches_repeated_multiplication(self, poly, exponent):
        product = [1]
        for _ in range(exponent):
            product = convolve(product + [0] * (len(poly) - 1),
                               list(poly) + [0] * (len(product) - 1))
        assert list(iter_power(poly, exponent)) == product

    def test_huge_exponent_costs_only_the_terms_read(self):
        start = time.perf_counter()
        assert list(islice(iter_power((1, 1), 10 ** 6), 4)) == [
            comb(10 ** 6, k) for k in range(4)]
        assert time.perf_counter() - start < 0.1

    def test_constant_term_must_be_one(self):
        with pytest.raises(ValueError):
            next(iter_power((2, 1), 3))


class TestRatio:
    def test_singleton_classes(self):
        assert ratio((1, 3, 5), (1, 3, 5)) == (Fraction(1),) * 3

    def test_forced_arithmetic(self):
        assert ratio((1, 1, 1), (1, 5, 13)) == (
            Fraction(1),
            Fraction(1, 5),
            Fraction(1, 13),
        )

    def test_free_group_value_at_three(self):
        # class count at radius 3 cross-derived from the brute-force oracle
        table = oracle.conjugacy_classes(oracle.FreeGroup(2), 3, slack=2)
        elements = free_group.ball_counts(2, 3)
        assert elements[3] == 53
        assert ratio(table.ball_classes, elements)[3] == Fraction(table.ball_classes[3], 53)
        assert table.ball_classes[3] == 25

    def test_errors(self):
        with pytest.raises(ValueError):
            ratio((1, 1), (1, 2, 3))
        with pytest.raises(ZeroDivisionError):
            ratio((0, 1), (0, 1))

    def test_conjugacy_over_elements_stays_within_unit(self):
        for rank in (1, 2, 3):
            classes = free_group.conjugacy_ball_counts(rank, 8)
            balls = free_group.ball_counts(rank, 8)
            assert all(0 < Fraction(c, b) <= 1 for c, b in zip(classes, balls))


class TestStolzCesaro:
    def test_squares_over_line(self):
        assert stolz_cesaro([0, 1, 4, 9, 16], [0, 1, 2, 3, 4]) == [
            Fraction(v) for v in (1, 3, 5, 7)
        ]

    def test_geometric_pair(self):
        assert stolz_cesaro([1, 2, 4, 8], [1, 3, 9, 27]) == [
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(2, 9),
        ]

    def test_rank_two_abelian_classes_over_balls(self):
        # conjugacy data of Z^2 from the oracle, which does not know the
        # group is abelian
        table = oracle.conjugacy_classes(oracle.FreeAbelian(2), 8, slack=2)
        dist, spheres = oracle.ball_enumerate(oracle.FreeAbelian(2), 8)
        balls = accumulate(spheres)
        assert tuple(table.ball_classes) == balls
        assert set(stolz_cesaro(table.ball_classes, list(balls))) == {Fraction(1)}

    def test_requires_strictly_increasing_denominator(self):
        with pytest.raises(ValueError):
            stolz_cesaro([1, 2, 3], [1, 1, 2])
        with pytest.raises(ValueError):
            stolz_cesaro([1], [1])


class TestConvolve:
    def test_identity_kernel(self):
        assert convolve([1, 1, 1], [1, 0, 0]) == [1, 1, 1]

    def test_line_times_line(self):
        assert convolve([1, 3, 5, 7], [1, 2, 2, 2]) == [1, 5, 13, 25]

    def test_short_example(self):
        assert convolve([1, 2], [1, 1]) == [1, 3]

    def test_rank_two_abelian_balls_from_factors(self):
        dist, spheres = oracle.ball_enumerate(oracle.FreeAbelian(2), 6)
        z_balls = [2 * n + 1 for n in range(7)]
        z_spheres = [1] + [2] * 6
        assert convolve(z_balls, z_spheres) == list(accumulate(spheres))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            convolve([1, 2], [1, 2, 3])

    @given(ball_values, ball_values)
    def test_differencing_commutes_with_convolution(self, a_incs, b_incs):
        n = min(len(a_incs), len(b_incs))
        left_spheres, right_spheres = list(a_incs[:n]), list(b_incs[:n])
        product_ball = convolve(list(accumulate(left_spheres)), right_spheres)
        diffs = [product_ball[0]] + [
            b - a for a, b in zip(product_ball, product_ball[1:])
        ]
        assert diffs == convolve(left_spheres, right_spheres)


class TestPolyMul:
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_full_product_is_the_padded_convolution(self, p, q):
        assert poly_mul(p, q) == convolve(p + [0] * (len(q) - 1), q + [0] * (len(p) - 1))


class TestWindowEstimate:
    def test_peak_and_slope(self):
        values = [Fraction(1, n) for n in range(2, 10)]
        est = window_estimate(values, window=5)
        assert est.peak == Fraction(1, 5)
        assert est.slope < 0
        assert est.window == 5

    def test_peak_ignores_early_terms(self):
        values = [Fraction(9)] + [Fraction(1, 10)] * 5
        assert window_estimate(values, window=5).peak == Fraction(1, 10)

    def test_errors(self):
        with pytest.raises(ValueError):
            window_estimate([Fraction(1)] * 5, window=1)
        with pytest.raises(ValueError):
            window_estimate([Fraction(1)] * 3, window=5)


class TestCheckRatioVanishes:
    def test_increment_synthetic_example(self):
        n = 21
        rep = check_ratio_vanishes(
            [1] * n,
            [2**i for i in range(n)],
            [i + 1 for i in range(n)],
            [i + 1 for i in range(n)],
            mode=MODE_INCREMENT,
        )
        assert rep.violated == ()
        assert rep.ok
        assert rep.final_ratio < Fraction(1, 100)
        assert rep.delta is None

    def test_constant_pair_violates_named_hypothesis(self):
        n = 8
        rep = check_ratio_vanishes(
            [1] * n,
            [1] * n,
            [2**i for i in range(n)],
            [3**i for i in range(n)],
            mode=MODE_INCREMENT,
        )
        assert "small ratio tends toward 0" in rep.violated
        assert not rep.ok

    def test_geometric_free_group_against_line(self):
        n = 12
        conj = free_group.conjugacy_ball_counts(2, n)
        balls = free_group.ball_counts(2, n)
        line = [2 * i + 1 for i in range(n + 1)]
        rep = check_ratio_vanishes(conj, balls, line, line, mode=MODE_GEOMETRIC)
        assert rep.violated == ()
        assert rep.delta is not None and rep.delta < 1.0
        assert rep.ok
        assert rep.ratios[-1] < rep.ratios[0]

    def test_geometric_flags_non_decaying_denominators(self):
        # big denominator outgrows the small one: delta fit lands above 1
        n = 8
        rep = check_ratio_vanishes(
            [1] * n,
            [i + 1 for i in range(n)],
            [1] * n,
            [2**i for i in range(n)],
            mode=MODE_GEOMETRIC,
        )
        assert "fitted decay factor below 1" in rep.violated
        assert rep.delta is not None and rep.delta > 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            check_ratio_vanishes([1] * 4, [1] * 4, [1] * 4, [1] * 4, mode="fast")
        with pytest.raises(ValueError):
            check_ratio_vanishes([1], [1], [1], [1])


class TestRendering:
    def test_decimal_str(self):
        assert decimal_str(Fraction(1, 3)) == "0.333333333333"
        assert decimal_str(Fraction(0)) == "0.000000000000"
        assert decimal_str(Fraction(1)) == "1.000000000000"
        assert decimal_str(Fraction(1, 8), digits=3) == "0.125"

    def test_round_half_even(self):
        assert decimal_str(Fraction(15, 10**13)) == "0.000000000002"
        assert decimal_str(Fraction(25, 10**13)) == "0.000000000002"

    @given(st.integers(0, 10**30), st.integers(1, 10**30), st.integers(0, 15))
    def test_matches_the_decimal_route(self, num, den, digits):
        value = Fraction(num, den)
        assert decimal_str(value, digits) == decimal_route(value, digits)

    @given(st.integers(0, 10**20), st.integers(0, 15))
    def test_exact_ties_match_the_decimal_route(self, k, digits):
        # (2k + 1) / (2 * 10^digits) lies halfway between two outputs
        value = Fraction(2 * k + 1, 2 * 10 ** digits)
        assert decimal_str(value, digits) == decimal_route(value, digits)

    @given(st.integers(0, 10**30), st.integers(1, 10**30), st.integers(1, 10**6),
           st.integers(0, 15))
    def test_integer_pairs_match_the_fraction_and_decimal_routes(self, num, den, scale, digits):
        # a table cell: counts, not reduced (scale), the numerator possibly 0
        value = Fraction(num, den)
        cell = decimal_str(num * scale, digits, denominator=den * scale)
        assert cell == decimal_str(value, digits) == decimal_route(value, digits)

    @given(st.integers(0, 10**20), st.integers(1, 10**6), st.integers(0, 15))
    def test_integer_pair_ties_match_the_decimal_route(self, k, scale, digits):
        num, den = (2 * k + 1) * scale, 2 * 10 ** digits * scale  # halfway, unreduced
        value = Fraction(num, den)
        cell = decimal_str(num, digits, denominator=den)
        assert cell == decimal_str(value, digits) == decimal_route(value, digits)

    @given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12).filter(bool),
           st.integers(0, 15))
    def test_signed_integer_pairs_match_the_fraction(self, num, den, digits):
        assert decimal_str(num, digits, denominator=den) == decimal_str(Fraction(num, den), digits)

    @given(st.integers(0, 10**15), st.integers(1, 10**15), st.integers(0, 10**15),
           st.integers(1, 10**15))
    def test_cross_multiplied_abs_diff(self, cx, bx, cy, by):
        # compare's abs_diff cell: |cx/bx - cy/by| over the denominator bx by
        value = abs(Fraction(cx, bx) - Fraction(cy, by))
        cell = decimal_str(abs(cx * by - cy * bx), denominator=bx * by)
        assert cell == decimal_str(value) == decimal_route(value, 12)


def decimal_route(value, digits):
    """The same rendering by decimal.Decimal: a quotient to 60 significant
    digits, quantized round-half-even."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        quantum = decimal.Decimal(1).scaleb(-digits)
        return format(d.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN), "f")
