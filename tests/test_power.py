"""Power under both nulls, the ceiling, and sample-size search.

A bounded, derandomized `hypothesis` property checks beta_point,
beta_distributional and power_ceiling against a 40-digit mpmath integral
of the noncentral t's mass over nu in [1, 1e6], alpha in [1e-12, 1/2) and
|theta| <= 40.
"""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from distnull.distributions import _critical
from distnull.errors import DomainError
from distnull.power import (
    PowerQuery,
    beta_distributional,
    beta_point,
    power_ceiling,
    required_sample_size,
)


class TestQueryValidation:
    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            PowerQuery(effect=0.5, n=1, df=1, alpha=0.05)

    def test_rejects_nonpositive_b(self):
        with pytest.raises(DomainError):
            PowerQuery(effect=0.5, n=30, df=29, alpha=0.05, b=0.0)

    def test_b_optional(self):
        q = PowerQuery(effect=0.5, n=30, df=29, alpha=0.05)
        assert q.b is None


class TestPointPower:
    def test_matches_scipy_noncentral_t(self):
        for effect, n, alpha in ((0.3, 40, 0.05), (0.8, 12, 0.01), (0.0, 50, 0.1)):
            q = PowerQuery(effect=effect, n=n, df=n - 1, alpha=alpha)
            t_crit = sstats.t.ppf(1 - alpha / 2, n - 1)
            ncp = abs(effect) * math.sqrt(n)
            expected = sstats.nct.cdf(t_crit, n - 1, ncp) - sstats.nct.cdf(
                -t_crit, n - 1, ncp
            )
            assert beta_point(q) == pytest.approx(expected, abs=1e-9)

    def test_zero_effect_power_is_alpha(self):
        q = PowerQuery(effect=0.0, n=30, df=29, alpha=0.05)
        assert 1.0 - beta_point(q) == pytest.approx(0.05, abs=1e-9)

    def test_power_grows_with_n(self):
        powers = [
            1.0 - beta_point(PowerQuery(effect=0.4, n=n, df=n - 1, alpha=0.05))
            for n in (10, 30, 100, 300)
        ]
        assert all(a < b for a, b in zip(powers, powers[1:]))


    # (effect, n, beta) at df = 1: theta = |effect|·sqrt(n) is large beside
    # sqrt(df), so the normal mass changes over a width in V far below the
    # rule's coarsest step; 40-digit mpmath as in reference_mass below
    ONE_DF = [
        (5.0, 30, "0.03165891619748766963138743"),
        (10.0, 1000, "6.830469231012344030145677e-136"),
    ]

    @pytest.mark.parametrize("effect, n, expected", ONE_DF)
    def test_one_df_against_mpmath(self, effect, n, expected):
        q = PowerQuery(effect=effect, n=n, df=1.0, alpha=0.05)
        assert beta_point(q) == pytest.approx(float(expected), rel=1e-12, abs=0.0)


class TestDistributionalPower:
    def test_requires_b(self):
        q = PowerQuery(effect=0.5, n=30, df=29, alpha=0.05)
        with pytest.raises(DomainError):
            beta_distributional(q)

    def test_huge_bn_reaches_ceiling(self):
        for effect in (0.5, 1.0, 2.0, 4.0):
            q = PowerQuery(effect=effect, n=100, df=99, alpha=0.05, b=1e6)
            assert 1.0 - beta_distributional(q) == pytest.approx(
                power_ceiling(effect, 99, 0.05), abs=1e-5
            )

    def test_never_exceeds_ceiling(self):
        for effect in (0.3, 1.0, 3.0):
            ceiling = power_ceiling(effect, 49, 0.05)
            for b in (0.01, 0.1, 1.0, 100.0):
                q = PowerQuery(effect=effect, n=50, df=49, alpha=0.05, b=b)
                assert 1.0 - beta_distributional(q) <= ceiling + 1e-12

    def test_below_point_power(self):
        # discounting the between-experiment spread can only cost power
        q = PowerQuery(effect=0.5, n=200, df=199, alpha=0.05, b=0.2)
        assert 1.0 - beta_distributional(q) < 1.0 - beta_point(q)


class TestPowerCeiling:
    def test_frozen_value(self):
        assert power_ceiling(0.5, 29, 0.05) == pytest.approx(
            0.077199315530266960097, rel=1e-9
        )

    def test_zero_effect_equals_alpha(self):
        for alpha in (0.1, 0.05, 0.01):
            assert power_ceiling(0.0, 29, alpha) == pytest.approx(alpha, abs=1e-9)

    def test_monotone_in_effect(self):
        values = [power_ceiling(d, 29, 0.05) for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_exceeds_half_only_for_large_effects(self):
        t_crit = sstats.t.ppf(0.975, 29)
        assert power_ceiling(t_crit * 1.05, 29, 0.05) > 0.5
        assert power_ceiling(t_crit * 0.95, 29, 0.05) < 0.5


class TestRequiredSampleSize:
    def test_round_trip(self):
        n = required_sample_size(0.5, 0.05, 0.8)
        assert n == 34  # classical one-sample two-sided benchmark

        def power_at(m: int) -> float:
            return 1.0 - beta_point(
                PowerQuery(effect=0.5, n=m, df=m - 1, alpha=0.05)
            )

        assert power_at(n) >= 0.8
        assert power_at(n - 1) < 0.8

    def test_tiny_target_met_at_floor(self):
        assert required_sample_size(0.5, 0.05, 0.01) == 2

    def test_zero_effect_unreachable_target(self):
        with pytest.raises(DomainError):
            required_sample_size(0.0, 0.05, 0.8)

    def test_validation(self):
        with pytest.raises(DomainError):
            required_sample_size(0.5, 0.05, 1.0)
        with pytest.raises(DomainError):
            required_sample_size(0.5, 0.0, 0.8)


def sinh_trapezoid(g, center, c, du):
    """The trapezoid rule in u for the integral of g(y) over the line, with
    y = center + c·sinh(u): fine about center, with few nodes in the tails."""
    total = g(center) * c
    for sign in (1, -1):
        k = 1
        while True:
            u = sign * k * du
            term = g(center + c * mpmath.sinh(u)) * c * mpmath.cosh(u)
            total += term
            if k > 8 and abs(term) <= mpmath.mpf(10) ** -60 * abs(total):
                break
            k += 1
    return total * du


def reference_mass(t: float, nu: float, theta: float, outside: bool) -> mpmath.mpf:
    """P(|T| <= t), or P(|T| > t) if ``outside``, for T noncentral t with nu
    degrees of freedom and noncentrality theta, at 40 digits: the integral
    over y = log(V/nu), V ~ chi-square(nu), of V's density times the normal
    mass of [-t·e^(y/2) - theta, t·e^(y/2) - theta] or of its outside.

    The rule centres on the integrand's peak, and where the mass changes
    over about 1/theta in y (at t·e^(y/2) = theta) far from it, a smooth split
    gives that part a second centre. The larger of the two masses is taken
    as 1 minus the smaller, whose integrand is the more concentrated one.
    """
    with mpmath.workdps(50 + int(math.log10(nu))):
        t, nu, theta = mpmath.mpf(t), mpmath.mpf(nu), abs(mpmath.mpf(theta))
        a = nu / 2
        log_c = a * mpmath.log(a) - mpmath.loggamma(a)

        def density(y):
            return mpmath.exp(log_c + a * (y - mpmath.exp(y))) if y < 700 else mpmath.mpf(0)

        def mass(outside):
            def f(y):
                r = mpmath.exp(y / 2)
                lo, hi = -t * r - theta, t * r - theta
                if outside:
                    return density(y) * (mpmath.ncdf(lo) + mpmath.ncdf(-hi))
                return density(y) * (mpmath.ncdf(hi) - mpmath.ncdf(lo) if hi <= 0
                                     else 1 - mpmath.ncdf(lo) - mpmath.ncdf(-hi))

            def log_f(y):
                v = f(y)
                return mpmath.log(v) if v > 0 else -mpmath.inf

            # the peak, by scans refined from where V's log density is 2000
            # below its mode, and the distance at which the log falls by 1
            m = 2000 / a
            lo = -(m + mpmath.sqrt(m * (m + 8))) / 2
            hi = min(mpmath.sqrt(2 * m), mpmath.log(2 * (m + 1)))
            with mpmath.workdps(20):
                for _ in range(4):
                    grid = [lo + (hi - lo) * k / 64 for k in range(65)]
                    k = max(range(65), key=lambda k: log_f(grid[k]))
                    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 64)]
                peak, top = grid[k], log_f(grid[k])
                width = max(hi - lo, mpmath.mpf(2) ** -40)
                while log_f(peak - width) > top - 1 and log_f(peak + width) > top - 1:
                    width *= 2
            du = mpmath.mpf(1) / 32
            scale = min(width, 1 / (theta + 1)) / 2
            cross = 2 * mpmath.log(theta / t) if theta else peak
            if abs(cross - peak) < 8 * width or log_f(cross) < top - 140:
                return sinh_trapezoid(f, peak, scale, du)
            mid, s = (peak + cross) / 2, abs(cross - peak) / 16
            side = 1 if cross > peak else -1

            def near_cross(y):
                return 1 / (1 + mpmath.exp(-side * (y - mid) / s))

            return (sinh_trapezoid(lambda y: f(y) * (1 - near_cross(y)), peak, width / 2, du)
                    + sinh_trapezoid(lambda y: f(y) * near_cross(y), cross,
                                     1 / (2 * (theta + 1)), du))

        inside, beyond = mass(False), mass(True)
        if inside < beyond:
            return 1 - inside if outside else inside
        return beyond if outside else 1 - beyond


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    nu=st.floats(0.0, 6.0).map(lambda e: 10.0**e),
    alpha=st.floats(-12.0, math.log10(0.5)).map(lambda e: 10.0**e),
    theta=st.floats(-40.0, 40.0),
    n=st.integers(2, 1000),
    b=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
)
def test_power_against_mpmath(nu, alpha, theta, n, b):
    # 12 significant digits above 1e-300; below it the floats lose digits
    q = PowerQuery(effect=theta / math.sqrt(n), n=n, df=nu, alpha=alpha, b=b)
    t = _critical(alpha, nu)
    for got, noncentrality, outside in (
        (beta_point(q), abs(q.effect) * math.sqrt(n), False),
        (beta_distributional(q), abs(q.effect) / math.sqrt(1.0 + 1.0 / (b * n)), False),
        (power_ceiling(theta, nu, alpha), abs(theta), True),
    ):
        expected = reference_mass(t, nu, noncentrality, outside)
        assert abs(got - expected) <= 1e-12 * expected + 1e-300, (got, noncentrality, outside)
