"""Replication forecasts against Monte Carlo and frozen references.

The Monte Carlo oracle draws directly from the hierarchical model
conditioned on the observed statistic: S^2 ~ chi2_nu/nu, X-bar = tS/sqrt(N),
mu from its conditional normal given X-bar, a replication mean around mu,
and the replication statistic reusing S. Reusing S makes the construction
exact when nu_r = nu, which is the regime tested here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats as sstats

from distnull.errors import DegenerateVarianceError, DomainError
from distnull.replication import (
    BmaxResult,
    ReplicationQuery,
    b_max,
    killeen_p_rep,
    p_rep_bound,
    p_rep_closed,
    p_rep_curve,
    p_rep_given_b,
    p_rep_integral,
)
from distnull.significance import TestStatistic, p_sig_closed


def query(t: float, n: float, n_r: float, df_r: float, alpha: float = 0.05):
    return ReplicationQuery(
        stat=TestStatistic.from_t(t, n, n - 1), n_r=n_r, df_r=df_r, alpha=alpha
    )


class TestQueryValidation:
    def test_small_replication_rejected(self):
        for n_r in (0.0, -1.0):
            with pytest.raises(DomainError, match="n_r must be finite and > 0"):
                query(2.0, 25, n_r, 10)

    def test_fractional_replication_size_accepted(self):
        # effective sizes and slope Q_r may fall below 2; only n_r > 0 is required
        assert 0.0 < p_rep_closed(query(2.0, 25, 1.5, 10), 0.1, 12) < 1.0

    def test_bad_alpha_rejected(self):
        with pytest.raises(DomainError):
            query(2.0, 25, 25, 24, alpha=0.0)

    def test_bad_c_rejected(self):
        with pytest.raises(DomainError):
            ReplicationQuery(
                stat=TestStatistic.from_t(2.0, 25, 24),
                n_r=25, df_r=24, alpha=0.05, c=0.0,
            )


class TestKernelMonteCarlo:
    def test_known_b_matches_simulation(self):
        t, n, b, alpha = 2.5, 25, 0.15, 0.05
        nu = n - 1
        q = query(t, n, n, nu, alpha)

        rng = np.random.default_rng(20250816)
        m = 400_000
        s = np.sqrt(rng.chisquare(nu, m) / nu)
        xbar = t * s / math.sqrt(n)
        shrink = b * n / (1.0 + b * n)
        mu = rng.normal(xbar * shrink, math.sqrt(b / (1.0 + b * n)))
        xbar_r = rng.normal(mu, math.sqrt(1.0 / n))
        t_r = xbar_r * math.sqrt(n) / s
        t_crit = sstats.t.ppf(1.0 - alpha / 2.0, nu)
        threshold = t_crit * math.sqrt(1.0 + b * n)
        mc = float(np.mean(t_r > threshold))

        se = math.sqrt(mc * (1.0 - mc) / m)
        assert p_rep_given_b(q, b) == pytest.approx(mc, abs=3.5 * se)

    def test_negative_t_symmetric(self):
        assert p_rep_given_b(query(-2.5, 25, 25, 24), 0.15) == pytest.approx(
            p_rep_given_b(query(2.5, 25, 25, 24), 0.15), rel=1e-14
        )


class TestKernelShape:
    def test_increasing_in_t(self):
        values = [
            p_rep_given_b(query(t, 30, 30, 29), 0.2)
            for t in (0.5, 1.0, 2.0, 3.0, 5.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_unimodal_in_b(self):
        bs = np.geomspace(1e-4, 1e3, 300)
        for t in (1.5, 2.5, 4.0):
            for n in (20, 80):
                curve = p_rep_curve(query(t, n, n, n - 1), bs)
                diffs = np.diff(curve)
                falling = False
                for d in diffs:
                    if d < -1e-15:
                        falling = True
                    elif d > 1e-15 and falling:
                        pytest.fail(f"curve rises after falling at t={t}, n={n}")

    def test_peak_at_b_max(self):
        # the quintic stationary point assumes N_r = N and c = 1
        q = query(3.0, 40, 40, 39)
        bm = b_max(q.stat, 0.05)
        peak = p_rep_given_b(q, bm.b_max)
        assert peak >= p_rep_given_b(q, bm.b_max * 0.9)
        assert peak >= p_rep_given_b(q, bm.b_max * 1.1)

    def test_bound_evaluates_at_cap(self):
        q = query(2.0, 30, 30, 29)
        assert p_rep_bound(q, 0.4) == p_rep_given_b(q, 0.4)

    def test_curve_matches_scalar(self):
        q = query(2.0, 30, 30, 29)
        bs = np.array([0.01, 0.1, 1.0])
        curve = p_rep_curve(q, bs)
        for b, value in zip(bs, curve):
            assert value == pytest.approx(p_rep_given_b(q, float(b)), abs=1e-12)

    def test_b_zero_rejected(self):
        with pytest.raises(DomainError):
            p_rep_given_b(query(2.0, 30, 30, 29), 0.0)

    def test_overflowing_b_reaches_the_limit(self):
        # b*N and b*N_r overflow to inf; the kernel tends to 0 as b grows
        curve = p_rep_curve(query(3.0, 40, 30, 29), [1e300, 1e308, np.inf])
        assert curve.tolist() == [0.0, 0.0, 0.0]


class TestClosedForm:
    def test_frozen_value(self):
        q = query(3.2, 50, 50, 49)
        assert p_rep_closed(q, 0.1, 20) == pytest.approx(
            0.087612963957417402009, rel=1e-10
        )

    def test_nu0_guard(self):
        q = query(3.2, 50, 50, 49)
        with pytest.raises(DomainError):
            p_rep_closed(q, 0.1, 2.0)

    def test_degenerate_b_hat(self):
        q = query(3.2, 50, 50, 49)
        with pytest.raises(DegenerateVarianceError):
            p_rep_closed(q, 0.0, 20)

    @pytest.mark.parametrize("c", [0.25, 4.0, 1.0 + 2.0**-52])
    def test_only_c_one(self, c):
        # the closed form is derived at c = 1, so it cannot answer another c
        q = ReplicationQuery(TestStatistic.from_t(3.0, 40, 39), 40, 39, 0.05, c=c)
        with pytest.raises(DomainError, match=f"c must be 1 for the closed form, got {c!r}"):
            p_rep_closed(q, 0.05, 9)

    def test_increasing_in_t(self):
        values = [
            p_rep_closed(query(t, 50, 50, 49), 0.2, 20)
            for t in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_decreasing_as_alpha_shrinks(self):
        values = [
            p_rep_closed(query(3.0, 50, 50, 49, alpha), 0.2, 20)
            for alpha in (0.1, 0.05, 0.01, 0.001)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_significant_results_forecast_above_half(self):
        # The asymptotic claim "significance implies p_rep > 0.5" holds in
        # the regime of small nu0, large nu_r, and bN >= 100. Its exact
        # marginal form: at |t0| = T^-1_{nu0}(1-alpha/2) the forecast
        # exceeds 0.5 iff that quantile beats
        # T^-1_{nu_r}(1-alpha/2) * sqrt(1/(bN) + nu0/(nu0-2)).
        n = 100
        grid = [(10.0, 150.0, 1.0), (10.0, 1000.0, 10.0),
                (20.0, 500.0, 1.0), (36.0, 1000.0, 10.0)]
        for nu0, df_r, b_hat in grid:
            for alpha in (0.05, 0.01):
                for lift in (1.0000001, 1.5):
                    t_crit0 = sstats.t.ppf(1 - alpha / 2, nu0)
                    t = t_crit0 * math.sqrt(b_hat * n) * lift
                    stat = TestStatistic.from_t(t, n, n - 1)
                    assert p_sig_closed(stat, b_hat, nu0) <= alpha
                    q = ReplicationQuery(
                        stat=stat, n_r=df_r + 1, df_r=df_r, alpha=alpha
                    )
                    assert p_rep_closed(q, b_hat, nu0) > 0.5

    def test_marginal_significance_can_forecast_below_half(self):
        # outside that regime the implication fails: a barely significant
        # result with nu0 = 100 and a same-size replication forecasts
        # below one half
        n, nu0, alpha, b_hat = 100, 100.0, 0.05, 1.0
        t = sstats.t.ppf(1 - alpha / 2, nu0) * math.sqrt(b_hat * n) * 1.0000001
        stat = TestStatistic.from_t(t, n, n - 1)
        assert p_sig_closed(stat, b_hat, nu0) <= alpha
        q = ReplicationQuery(stat=stat, n_r=n, df_r=n - 1, alpha=alpha)
        assert p_rep_closed(q, b_hat, nu0) < 0.5

    def test_exactly_half_at_the_kernel_pivot(self):
        # choosing t so that |t|/sqrt(bN) equals the full threshold makes
        # the argument vanish and the forecast exactly one half
        n, nu0, df_r, alpha, b_hat = 50, 12.0, 80.0, 0.05, 0.4
        bn = b_hat * n
        threshold = sstats.t.ppf(1 - alpha / 2, df_r) * math.sqrt(
            1 / bn + nu0 / (nu0 - 2)
        )
        stat = TestStatistic.from_t(threshold * math.sqrt(bn), n, n - 1)
        q = ReplicationQuery(stat=stat, n_r=81, df_r=df_r, alpha=alpha)
        assert p_rep_closed(q, b_hat, nu0) == pytest.approx(0.5, abs=1e-12)

    def test_t_zero_forecast_below_alpha(self):
        for alpha in (0.05, 0.01):
            q = query(0.0, 30, 30, 29, alpha)
            assert p_rep_given_b(q, 0.3) < alpha
            assert p_rep_closed(q, 0.3, 10) < alpha


class TestIntegralForm:
    def test_matches_closed_at_large_df(self):
        q = ReplicationQuery(
            stat=TestStatistic.from_t(2.8, 400, 399),
            n_r=400, df_r=399, alpha=0.05,
        )
        closed = p_rep_closed(q, 0.15, 500)
        integral = p_rep_integral(q, 0.15, 500)
        assert integral == pytest.approx(closed, rel=5e-2)

    def test_valid_probability(self):
        q = query(1.5, 25, 25, 24)
        assert 0.0 <= p_rep_integral(q, 0.2, 8) <= 1.0

    def test_overflowing_b_hat_reaches_the_limit(self):
        # b * b_hat overflows on most nodes of the F rule
        assert p_rep_integral(query(3.16, 40, 30, 29), 1e280, 5) == 0.0

    def test_recovers_kernel_when_estimation_noise_vanishes(self):
        # with every df large the F mixing factors concentrate at 1 and
        # the mixture collapses onto the kernel at b-hat itself
        q = ReplicationQuery(
            stat=TestStatistic.from_t(2.8, 500, 499),
            n_r=500, df_r=499, alpha=0.05,
        )
        integral = p_rep_integral(q, 0.15, 800)
        assert integral == pytest.approx(p_rep_given_b(q, 0.15), abs=0.01)


class TestBmax:
    def test_frozen_values(self):
        stat = TestStatistic.from_effect(0.5, 100, 99)  # t = 5
        result = b_max(stat, 0.05)
        assert result.tau == pytest.approx(2.5198857393101138348, rel=1e-9)
        assert result.z_max == pytest.approx(1.9516321688358978864, rel=1e-9)
        assert result.b_max == pytest.approx(0.019516321688358978864, rel=1e-9)

    def test_z_max_below_tau(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            t = float(rng.uniform(0.05, 12.0)) * float(rng.choice([-1, 1]))
            n = int(rng.integers(5, 400))
            alpha = float(rng.uniform(0.001, 0.45))
            result = b_max(TestStatistic.from_t(t, n, n - 1), alpha)
            assert 0.0 < result.z_max <= result.tau * (1 + 1e-12)
            assert result.b_max == pytest.approx(result.z_max / n)

    def test_t_zero_rejected(self):
        with pytest.raises(DomainError):
            b_max(TestStatistic.from_t(0.0, 30, 29), 0.05)

    def test_large_alpha_rejected(self):
        with pytest.raises(DomainError):
            b_max(TestStatistic.from_t(2.0, 30, 29), 0.5)

    def test_result_validation(self):
        with pytest.raises(DomainError):
            BmaxResult(tau=1.0, z_max=1.5, b_max=0.05)
        with pytest.raises(DomainError):
            BmaxResult(tau=0.0, z_max=0.0, b_max=0.0)
        with pytest.raises(DomainError, match="b_max must be finite and > 0, got inf"):
            BmaxResult(tau=1.0, z_max=0.5, b_max=math.inf)

    def test_quintic_positive_at_tau(self):
        # direct evaluation at z = tau collapses to tau^5 + 0.75 tau^4,
        # strictly positive, which is what places the root left of tau
        for tau in (0.3, 1.0, 2.5, 7.0):
            value = (
                tau**5 + 3 * tau**4 + 3 * tau**3
                + (1 - 2.25 * tau**2) * tau**2
                - 3 * tau**2 * tau - tau**2
            )
            assert value == pytest.approx(tau**5 + 0.75 * tau**4, rel=1e-12)
            assert value > 0.0


class TestKilleenBaseline:
    def test_frozen_value(self):
        assert killeen_p_rep(0.5, 36) == pytest.approx(
            0.62334188803432441577, rel=1e-12
        )

    def test_zero_effect(self):
        assert killeen_p_rep(0.0, 100) == 0.5

    def test_small_n_clamps(self):
        assert killeen_p_rep(1.5, 4) == 0.5
        assert killeen_p_rep(1.5, 3) == 0.5

    def test_monotone_in_effect(self):
        values = [killeen_p_rep(d, 36) for d in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_sign_invariance(self):
        assert killeen_p_rep(-0.8, 20) == killeen_p_rep(0.8, 20)
