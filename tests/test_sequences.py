"""Exact sequence utilities: ratios, transforms, estimates, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conjratio import free_group, oracle
from conjratio.sequences import (
    MODE_GEOMETRIC,
    MODE_INCREMENT,
    CountSequence,
    check_ratio_vanishes,
    convolve,
    decimal_str,
    ratio,
    stolz_cesaro,
    window_estimate,
)

ball_values = st.lists(st.integers(0, 50), min_size=1, max_size=10).map(
    lambda incs: tuple([1 + incs[0]] + incs[1:])
)


def accumulate(values):
    out, total = [], 0
    for v in values:
        total += v
        out.append(total)
    return tuple(out)


class TestCountSequence:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CountSequence((1,), "radius")

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            CountSequence((), "ball")
        with pytest.raises(ValueError):
            CountSequence((1, -1), "sphere")

    def test_ball_invariants(self):
        with pytest.raises(ValueError):
            CountSequence((0,), "ball")  # identity missing
        with pytest.raises(ValueError):
            CountSequence((1, 3, 2), "conjugacy-ball")  # decreasing
        seq = CountSequence((1, 3, 5), "ball")
        assert seq[1] == 3 and len(seq) == 3

    @given(ball_values)
    def test_sphere_ball_roundtrip(self, incs):
        balls = CountSequence(accumulate(incs), "ball")
        spheres = balls.to_spheres()
        assert spheres.kind == "sphere"
        assert spheres.values[0] == balls.values[0]
        assert spheres.to_ball() == balls

    def test_conversion_direction_is_checked(self):
        with pytest.raises(ValueError):
            CountSequence((1, 2), "sphere").to_spheres()
        with pytest.raises(ValueError):
            CountSequence((1, 2), "ball").to_ball()


class TestRatio:
    def test_singleton_classes(self):
        classes = CountSequence((1, 3, 5), "conjugacy-ball")
        elements = CountSequence((1, 3, 5), "ball")
        assert ratio(classes, elements) == (Fraction(1),) * 3

    def test_forced_arithmetic(self):
        classes = CountSequence((1, 1, 1), "conjugacy-ball")
        elements = CountSequence((1, 5, 13), "ball")
        assert ratio(classes, elements) == (
            Fraction(1),
            Fraction(1, 5),
            Fraction(1, 13),
        )

    def test_free_group_value_at_three(self):
        # class count at radius 3 cross-derived from the brute-force oracle
        table = oracle.conjugacy_classes(oracle.FreeGroup(2), 3, slack=2)
        classes = CountSequence(tuple(table.ball_classes), "conjugacy-ball")
        elements = CountSequence(tuple(free_group.ball_counts(2, 3)), "ball")
        assert elements[3] == 53
        assert ratio(classes, elements)[3] == Fraction(table.ball_classes[3], 53)
        assert table.ball_classes[3] == 25

    def test_errors(self):
        with pytest.raises(ValueError):
            ratio(
                CountSequence((1, 1), "conjugacy-ball"),
                CountSequence((1, 2, 3), "ball"),
            )
        with pytest.raises(ZeroDivisionError):
            ratio(CountSequence((0, 1), "sphere"), CountSequence((0, 1), "sphere"))

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
        left = CountSequence(accumulate(a_incs[:n]), "ball")
        right = CountSequence(accumulate(b_incs[:n]), "ball")
        product_ball = convolve(list(left.values), list(right.to_spheres().values))
        diffs = [product_ball[0]] + [
            b - a for a, b in zip(product_ball, product_ball[1:])
        ]
        assert diffs == convolve(
            list(left.to_spheres().values), list(right.to_spheres().values)
        )


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

