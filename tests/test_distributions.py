"""Numeric primitives against independently frozen reference values.

Reference constants were computed with mpmath at 40 decimal digits
(Student-t CDF via the regularized incomplete beta, noncentral-t CDF by
integrating the scale-mixture representation) and are inlined here so the
suite never depends on mpmath at run time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from distnull.distributions import (
    PROB_FLOOR,
    RULE_RTOL,
    _f_rule,
    clamp_probability,
    f_expectation,
    find_positive_root,
    integrate,
    noncentral_t_cdf,
    t_cdf,
    t_density,
    t_quantile,
)
from distnull.errors import DomainError, NumericError, PreconditionError

# scipy's quantile agrees with the 40-digit values to ~1e-11, hence the
# looser tolerance on inverse-CDF checks.
CDF_TOL = 1e-12
INV_TOL = 1e-9


class TestStudentT:
    def test_cdf_frozen_value(self):
        assert t_cdf(1.812, 10) == pytest.approx(
            0.94996236896707638697, abs=CDF_TOL
        )

    def test_cdf_symmetry(self):
        for x in (0.3, 1.0, 2.5, 7.0):
            assert t_cdf(-x, 17) + t_cdf(x, 17) == pytest.approx(1.0, abs=1e-14)

    def test_cdf_at_zero(self):
        assert t_cdf(0.0, 5) == pytest.approx(0.5, abs=1e-15)

    def test_quantile_frozen_value(self):
        assert t_quantile(0.975, 10) == pytest.approx(
            2.2281388519862747484, abs=INV_TOL
        )

    def test_quantile_inverts_cdf(self):
        for p in (0.2, 0.5, 0.9, 0.999):
            assert t_cdf(t_quantile(p, 23), 23) == pytest.approx(p, abs=1e-12)

    def test_density_integrates_to_cdf_increment(self):
        total = integrate(lambda x: t_density(x, 8), -4.0, 1.5)
        assert total == pytest.approx(t_cdf(1.5, 8) - t_cdf(-4.0, 8), abs=1e-10)

    def test_invalid_df_rejected(self):
        with pytest.raises(DomainError):
            t_cdf(1.0, 0.0)
        with pytest.raises(DomainError):
            t_quantile(0.5, -3)

    def test_quantile_rejects_boundary_p(self):
        with pytest.raises(DomainError):
            t_quantile(0.0, 10)
        with pytest.raises(DomainError):
            t_quantile(1.0, 10)


class TestNoncentralT:
    def test_frozen_values(self):
        assert noncentral_t_cdf(2.0, 30, 1.5) == pytest.approx(
            0.68007709929889712957, rel=1e-10
        )
        assert noncentral_t_cdf(-1.0, 12, 2.5) == pytest.approx(
            0.00032063830101384840079, rel=1e-10
        )

    def test_zero_noncentrality_reduces_to_central(self):
        for x in (-2.0, 0.0, 1.3, 4.0):
            assert noncentral_t_cdf(x, 21, 0.0) == pytest.approx(
                t_cdf(x, 21), abs=1e-12
            )

    def test_monotone_in_x(self):
        xs = [-3.0, -1.0, 0.0, 1.0, 3.0, 6.0]
        values = [noncentral_t_cdf(x, 15, 2.0) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_decreasing_in_noncentrality(self):
        values = [noncentral_t_cdf(1.5, 15, nc) for nc in (0.0, 0.5, 1.5, 3.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_quadrature_fallback_where_the_series_is_nan(self):
        x, nu, theta = -1.0658444367636162, 51740241.72645678, 15.398216730890246
        assert math.isnan(scipy.special.nctdtr(nu, theta, x))
        # at this nu the law is within 1e-9 of its nu -> inf limit N(theta, 1)
        assert noncentral_t_cdf(x, nu, theta) == pytest.approx(
            scipy.special.ndtr(x - theta), abs=1e-9
        )


class TestFRule:
    """The trapezoid nodes and weights that f_expectation sums over, in full range."""

    @pytest.mark.parametrize("d1", [1.0, 39.0, 1e3, 1e5])
    @pytest.mark.parametrize("d2", [3.0, 10.0, 60.0, 1e5])
    def test_weights_sum_to_one_and_reproduce_the_mean(self, d1, d2):
        nodes, weights, mode, _ = _f_rule(d1, d2, 2)
        assert nodes[4 * mode] == 1.0
        assert math.fsum(weights) == pytest.approx(1.0, rel=1e-12)
        assert math.fsum(nodes * weights) == pytest.approx(d2 / (d2 - 2.0), rel=1e-11)

    def test_levels_nest(self):
        coarse, _, mode, _ = _f_rule(10.0, 24.0, 0)
        fine, _, fine_mode, _ = _f_rule(10.0, 24.0, 2)
        assert fine_mode == mode
        assert (fine[::4] == coarse).all()

    def test_mass_beyond_the_nodes_is_negligible(self):
        for d1, d2 in ((1.0, 1.0), (10.0, 24.0), (1e5, 3.0)):
            _, weights, _, (below, above) = _f_rule(d1, d2, 0)
            assert 0.0 <= below < 1e-60 and 0.0 <= above < 1e-60
            assert weights.min() >= 0.0

    @pytest.mark.parametrize("d1, d2, level", [
        (1e150, 5.0, 0),  # d1/(d1 + d2) rounds to 1
        (5e-324, 5.0, 0),  # ... and to 0
        (1e-300, 29.0, 0),  # a tail bound overflows
        (1e6, 1e150, 4),  # over _RULE_NODES nodes
    ])
    def test_unrepresentable_law_is_a_numeric_error(self, d1, d2, level):
        with pytest.raises(NumericError, match="cannot represent F"):
            _f_rule(d1, d2, level)


class TestFExpectation:
    def test_constant_kernels(self):
        assert f_expectation(np.ones_like, (7.0, 3.0)) == pytest.approx(1.0, rel=RULE_RTOL)
        both = f_expectation(lambda b, c: np.full(np.broadcast(b, c).shape, 0.25),
                             (2.0, 60.0), (1e5, 1.0))
        assert both == pytest.approx(0.25, rel=RULE_RTOL)

    def test_value_below_the_mass_beyond_the_cap_is_not_certified(self):
        # F(10, 1) puts about 1e-77 beyond log b = 354, where no node sits
        with pytest.raises(NumericError) as raised:
            f_expectation(lambda b: np.full_like(b, 1e-90), (10.0, 1.0))
        assert raised.value.best_estimate == pytest.approx(1e-90, rel=1e-6)
        assert raised.value.error_bound > 1e-80

    def test_non_finite_kernel_raises(self):
        with pytest.raises(NumericError):
            f_expectation(lambda b: np.full_like(b, np.nan), (10.0, 10.0))

    def test_slowly_converging_axis_gives_up_early(self):
        # a step kernel's change only halves per halving of the step, so it
        # cannot meet the tolerance by RULE_LEVELS; all ten halvings would
        # evaluate it at over 50 000 nodes
        evaluated = []

        def step(b):
            evaluated.append(b.size)
            return (b > 1.7).astype(float)

        with pytest.raises(NumericError):
            f_expectation(step, (5.0, 7.0))
        assert sum(evaluated) < 1000


class TestIntegrate:
    def test_polynomial_exact(self):
        assert integrate(lambda x: 3 * x * x, 0.0, 2.0) == pytest.approx(
            8.0, abs=1e-10
        )

    def test_semi_infinite_exponential(self):
        assert integrate(lambda x: math.exp(-x), 0.0, math.inf) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_empty_interval(self):
        assert integrate(lambda x: x, 1.0, 1.0) == 0.0

    def test_reversed_limits_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 2.0, 1.0)

    def test_infinite_lower_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, -math.inf, 0.0)

    def test_budget_exhaustion_raises_numeric(self):
        spiky = lambda x: math.sin(50.0 / (x + 1e-9))
        with pytest.raises(NumericError):
            integrate(spiky, 0.0, 1.0)


class TestFindPositiveRoot:
    def test_quadratic(self):
        # z^2 - 4 has the lone positive root 2
        assert find_positive_root([1.0, 0.0, -4.0], 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_frozen_quintic(self):
        # z^5 + 3z^4 + 3z^3 + (1 - 9 tau^2/4) z^2 - 3 tau^2 z - tau^2 at tau = 2.5
        tau = 2.5
        coeffs = [1.0, 3.0, 3.0, 1.0 - 9 * tau**2 / 4, -3 * tau**2, -(tau**2)]
        root = find_positive_root(coeffs, 1.0)
        assert root == pytest.approx(1.9392614754465052955, rel=1e-12)

    def test_bracket_hint_far_off_still_converges(self):
        coeffs = [1.0, 0.0, -4.0]
        assert find_positive_root(coeffs, 1e6) == pytest.approx(2.0, rel=1e-12)
        assert find_positive_root(coeffs, 1e-6) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("tau", [6e-8, 1e-4, 2.5])
    def test_quintic_root_to_relative_precision(self, tau):
        # the b_max quintic, solved exactly in rationals for the same
        # float coefficients, must agree to relative 1e-14 even when the
        # root is far below 1
        coeffs = [1.0, 3.0, 3.0, 1.0 - 2.25 * tau * tau, -3.0 * tau * tau, -tau * tau]
        exact = [Fraction(c) for c in coeffs]

        def sign(z: Fraction) -> bool:
            acc = Fraction(0)
            for c in exact:
                acc = acc * z + c
            return acc > 0

        lo, hi = Fraction(0), Fraction(tau)
        assert not sign(lo) and sign(hi)
        while hi - lo > hi * Fraction(1, 10**20):
            mid = (lo + hi) / 2
            if sign(mid):
                hi = mid
            else:
                lo = mid
        root = find_positive_root(coeffs, tau)
        assert abs(Fraction(root) - lo) <= lo * Fraction(1, 10**14)
        assert f"{root:.12g}" == f"{float(lo):.12g}"

    def test_two_sign_changes_rejected(self):
        # z^2 - 3z + 2 has two positive roots
        with pytest.raises(PreconditionError):
            find_positive_root([1.0, -3.0, 2.0], 1.0)

    def test_no_sign_change_rejected(self):
        with pytest.raises(PreconditionError):
            find_positive_root([1.0, 2.0, 3.0], 1.0)

    def test_constant_rejected(self):
        with pytest.raises(PreconditionError):
            find_positive_root([5.0], 1.0)


class TestClampProbability:
    def test_floor(self):
        assert clamp_probability(0.0) == PROB_FLOOR
        assert clamp_probability(1e-400) == PROB_FLOOR

    def test_ceiling(self):
        assert clamp_probability(1.5) == 1.0

    def test_interior_untouched(self):
        assert clamp_probability(0.37) == 0.37
