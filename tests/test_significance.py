"""Two-sided significance under point and distributional nulls.

Frozen reference values come from a 40-digit mpmath evaluation of
2 T_nu(-x) at the stated arguments.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from distnull.errors import DegenerateVarianceError, DomainError
from distnull.distributions import t_cdf
from distnull.significance import (
    TestStatistic,
    p_point,
    p_sig_bound,
    p_sig_closed,
    p_sig_given_b,
    p_sig_integral,
    t0_statistic,
)


def stat(t: float, n: float, df: float | None = None) -> TestStatistic:
    return TestStatistic.from_t(t, n, n - 1 if df is None else df)


class TestTestStatistic:
    def test_from_effect_round_trip(self):
        s = TestStatistic.from_effect(0.5, 25, 24)
        assert s.t == pytest.approx(2.5)
        assert s.effect == 0.5
        assert TestStatistic.from_t(s.t, 25, 24).effect == pytest.approx(0.5)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(DomainError):
            TestStatistic(t=2.0, n=25, df=24, effect=0.1)

    def test_validation(self):
        with pytest.raises(DomainError):
            TestStatistic.from_t(math.inf, 25, 24)
        with pytest.raises(DomainError):
            TestStatistic.from_t(1.0, 0, 24)
        with pytest.raises(DomainError):
            TestStatistic.from_t(1.0, 25, 0)


class TestPointNull:
    def test_frozen_value(self):
        assert p_point(stat(1.0, 25)) == pytest.approx(
            0.32728688127978518872, rel=1e-12
        )
        assert p_point(stat(2.228, 11, 10)) == pytest.approx(
            0.050011771817111382532, rel=1e-12
        )

    def test_sign_invariance(self):
        assert p_point(stat(-1.7, 40)) == p_point(stat(1.7, 40))

    def test_t_zero_gives_one(self):
        assert p_point(stat(0.0, 40)) == pytest.approx(1.0)


class TestDistributionalSignificance:
    def test_frozen_values(self):
        s = TestStatistic.from_effect(0.5, 100, 99)  # t = 5
        assert p_sig_given_b(s, 0.1) == pytest.approx(
            0.13485256643917738861, rel=1e-12
        )
        s_big = TestStatistic.from_effect(2.5, 100, 99)  # t = 25
        assert p_sig_given_b(s_big, 1.0) == pytest.approx(
            0.014532027356005138379, rel=1e-12
        )

    def test_b_zero_reduces_to_point(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = stat(rng.normal(0, 3), rng.integers(5, 500))
            assert p_sig_given_b(s, 0.0) == pytest.approx(
                p_point(s), abs=1e-14
            )

    def test_increasing_in_b(self):
        s = stat(3.0, 50)
        values = [p_sig_given_b(s, b) for b in (0.0, 0.05, 0.2, 1.0, 10.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bound_form_equals_cap(self):
        s = stat(3.0, 50)
        assert p_sig_bound(s, 0.25) == p_sig_given_b(s, 0.25)

    def test_bound_requires_positive(self):
        with pytest.raises(DomainError):
            p_sig_bound(stat(3.0, 50), 0.0)

    def test_effect_form_is_large_n_limit(self):
        # with bN >> 1 the N dependence cancels: 1 + bN ~ bN and
        # t / sqrt(bN) = d / sqrt(b), so p_sig -> 2 T_nu(-|d| / sqrt(b))
        s = TestStatistic.from_effect(0.4, 10**8, 120)
        effect_form = 2.0 * t_cdf(-0.4 / math.sqrt(0.09), 120)
        assert p_sig_given_b(s, 0.09) == pytest.approx(effect_form, rel=1e-6)


class TestClosedForm:
    def test_t0_frozen(self):
        s = stat(2.2, 40, 39)
        assert t0_statistic(s, 0.3) == pytest.approx(
            0.63508529610858834096, rel=1e-12
        )

    def test_closed_frozen(self):
        s = stat(2.2, 40, 39)
        assert p_sig_closed(s, 0.3, 12) == pytest.approx(
            0.53729451539280602164, rel=1e-12
        )

    def test_t0_is_effect_over_s0(self):
        # t / sqrt(b_hat N) = (X̄/S)√N / sqrt((S0²/S²) N) = X̄/S0
        s = TestStatistic.from_effect(0.8, 30, 29)
        assert t0_statistic(s, 0.16) == pytest.approx(0.8 / 0.4)

    def test_degenerate_b_rejected(self):
        s = stat(2.0, 30)
        with pytest.raises(DegenerateVarianceError):
            t0_statistic(s, 0.0)
        with pytest.raises(DegenerateVarianceError):
            p_sig_closed(s, 0.0, 10)


class TestIntegralForm:
    def test_matches_closed_at_large_df(self):
        # the estimation noise in b-hat vanishes as nu, nu0 grow, so the
        # integral collapses onto the closed form
        s = stat(2.6, 400, 399)
        closed = p_sig_closed(s, 0.12, 600)
        integral = p_sig_integral(s, 0.12, 600)
        assert integral == pytest.approx(closed, rel=2e-2)

    def test_valid_probability(self):
        s = stat(1.2, 25)
        p = p_sig_integral(s, 0.3, 8)
        assert 0.0 < p <= 1.0
