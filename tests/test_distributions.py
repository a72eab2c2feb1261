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

from distnull import distributions
from distnull.distributions import (
    PROB_FLOOR,
    RULE_RTOL,
    _f_expectations,
    _f_rule,
    clamp_probability,
    f_expectation,
    find_positive_root,
    integrate,
    noncentral_t_cdf,
    t_cdf,
)
from distnull.errors import DomainError, NumericError
from studies import t_density, t_quantile

# The quantile is solved from the lower tail, so it keeps the 40-digit
# values' digits as the CDF does.
CDF_TOL = 1e-12
INV_TOL = 1e-12


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

    def test_huge_df_is_the_normal_limit(self):
        # scipy's nctdtr is NaN here
        x, nu, theta = -1.0658444367636162, 51740241.72645678, 15.398216730890246
        # at this nu the law is within 1e-9 of its nu -> inf limit N(theta, 1)
        assert noncentral_t_cdf(x, nu, theta) == pytest.approx(
            scipy.special.ndtr(x - theta), abs=1e-9
        )

    # (x, P(T <= x)) at nu = 207.22, theta = 8.4715, where scipy's nctdtr is
    # NaN at the first two and 2.6e-7 off at the third; 40-digit mpmath
    # integral over log(V/nu) of V's density times Phi(x·sqrt(V/nu) - theta)
    DEEP_TAIL = [
        (-2.2218, "1.094981718779722843584612436095627639259e-26"),
        (-2.0, "1.00673447722438617920868630551720492881e-25"),
        (-1.0, "1.554675783454293731294296864753339691444e-21"),
    ]

    @pytest.mark.parametrize("x, expected", DEEP_TAIL)
    def test_deep_tail_against_mpmath(self, x, expected):
        assert noncentral_t_cdf(x, 207.22, 8.4715) == pytest.approx(
            float(expected), rel=1e-12, abs=0.0
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

    @pytest.mark.parametrize("nu", [1.0, 3.0, 207.22, 5.17e7, 1e200, 2.0**600])
    def test_chi_square_law_sums_to_one_and_reproduces_the_mean(self, nu):
        # d2 = inf: b = V/nu, V ~ chi-square(nu), whose mean is 1
        nodes, weights, mode, (below, above) = _f_rule(nu, math.inf, 2)
        assert nodes[4 * mode] == 1.0
        assert math.fsum(weights) == pytest.approx(1.0, rel=1e-14)
        assert math.fsum(nodes * weights) == pytest.approx(1.0, rel=1e-14)
        assert 0.0 <= below < 1e-76 and above == 0.0

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


# The two F laws of the rule's two-axis tests
TWO_LAWS = ((39.0, 7.0), (39.0, 39.0))


def counted(kernel, *dfs):
    """f_expectation of kernel(b, c) over two F laws, and the (b, c) nodes of
    each kernel call, one array of rows per call."""
    calls = []

    def recording(b, c):
        calls.append(np.stack([b, c], axis=1))
        return kernel(b, c)

    return f_expectation(recording, *dfs), calls


def on_level_0(nodes, dfs):
    """Whether each node's b and each node's c is a level-0 node of its law."""
    return [np.isin(nodes[:, axis], _f_rule(*law, 0)[0]) for axis, law in enumerate(dfs)]


def logistic(b, c, slope, tilt):
    """A kernel that turns from 0 to 1 across log c + tilt·log b = 0."""
    return 1.0 / (1.0 + np.exp(-slope * (np.log(c) + tilt * np.log(b))))


class TestTwoAxisRule:
    """The rule over two F laws: the combination step, and the nodes of
    negligible weight it skips."""

    def test_first_halvings_evaluate_no_corner_node(self):
        # certified at b's and c's first halvings, the row evaluates the
        # level-0 grid, the b-odd nodes at c's level-0 nodes and the c-odd
        # nodes at b's, less the skipped ones, and no node odd on both axes
        value, calls = counted(lambda b, c: 1.0 / (1.0 + b * c), *TWO_LAWS)
        nodes = np.concatenate(calls)
        assert len(np.unique(nodes, axis=0)) == len(nodes)
        b_0, c_0 = on_level_0(nodes, TWO_LAWS)
        assert (b_0 | c_0).all()
        assert (~b_0).any() and (~c_0).any()
        assert all(np.isin(nodes[:, axis], _f_rule(*law, 1)[0]).all()
                   for axis, law in enumerate(TWO_LAWS))
        # the three grids in full, from the nodes each axis shows
        sizes = [(len(np.unique(nodes[on, axis])), len(np.unique(nodes[~on, axis])))
                 for axis, on in enumerate((b_0, c_0))]
        (b_even, b_odd), (c_even, c_odd) = sizes
        assert len(nodes) < b_even * c_even + b_odd * c_even + b_even * c_odd
        reference = _f_expectations(lambda rows, b, c: 1.0 / (1.0 + b * c), [TWO_LAWS],
                                    1e-12, patient=True)[0][0]
        assert value == pytest.approx(reference, rel=RULE_RTOL)

    def test_a_row_past_the_combination_step_evaluates_no_node_twice(self):
        # c's first halving misses its share, so the row adds the corner
        # nodes and halves c again, reusing every node it has
        value, calls = counted(lambda b, c: logistic(b, c, 8.0, 0.1), *TWO_LAWS)
        nodes = np.concatenate(calls)
        assert len(np.unique(nodes, axis=0)) == len(nodes)
        b_0, c_0 = on_level_0(nodes, TWO_LAWS)
        assert (~b_0 & ~c_0).any()
        assert not np.isin(nodes[:, 1], _f_rule(*TWO_LAWS[1], 1)[0]).all()
        reference = _f_expectations(lambda rows, b, c: logistic(b, c, 8.0, 0.1), [TWO_LAWS],
                                    1e-12, patient=True)[0][0]
        assert value == pytest.approx(reference, rel=RULE_RTOL)

    @pytest.mark.parametrize("dfs", [TWO_LAWS, ((2.0, 1.0), (2.0, 1.0))])
    def test_constant_kernels(self, dfs):
        assert counted(lambda b, c: np.ones_like(b), *dfs)[0] == pytest.approx(1.0, rel=RULE_RTOL)
        value, calls = counted(lambda b, c: np.full_like(b, 1e-6), *dfs)
        assert value == pytest.approx(1e-6, rel=RULE_RTOL)
        # the value widens the cut made at scale 1, and the wider cut
        # evaluates nodes inside the old one that the old one skipped, but
        # none it evaluated
        first, wider = calls[0], calls[1]
        inside = ((wider >= first.min(axis=0)) & (wider <= first.max(axis=0))).all(axis=1)
        assert inside.any()
        nodes = np.concatenate(calls)
        assert len(np.unique(nodes, axis=0)) == len(nodes)

    def test_error_bound_counts_the_skipped_weight(self, monkeypatch):
        # a cut allowed to skip four times the tolerance's weight leaves out
        # more than the value may miss, and the rule must not certify it
        monkeypatch.setattr(distributions, "_RULE_SKIP", 4.0)
        with pytest.raises(NumericError) as raised:
            f_expectation(lambda b, c: np.ones_like(b), *TWO_LAWS)
        missed = 1.0 - raised.value.best_estimate
        assert raised.value.error_bound >= missed > 2.0 * RULE_RTOL


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
    def test_frozen_quintic(self):
        # z^5 + 3z^4 + 3z^3 + (1 - 9 tau^2/4) z^2 - 3 tau^2 z - tau^2 at tau = 2.5
        root = find_positive_root(2.5)
        assert root == pytest.approx(1.9392614754465052955, rel=1e-12)

    @pytest.mark.parametrize("tau", [6e-8, 1e-4, 2.5])
    def test_quintic_root_to_relative_precision(self, tau):
        # the b_max quintic z^2 (z+1)^3 - tau^2 (1 + 3z/2)^2, solved exactly
        # in rationals at the same float tau, must agree to relative 1e-14
        # even when the root is far below 1
        exact = Fraction(tau)

        def sign(z: Fraction) -> bool:
            return z * z * (z + 1) ** 3 - exact * exact * (1 + Fraction(3, 2) * z) ** 2 > 0

        lo, hi = Fraction(0), Fraction(tau)
        assert not sign(lo) and sign(hi)
        while hi - lo > hi * Fraction(1, 10**20):
            mid = (lo + hi) / 2
            if sign(mid):
                hi = mid
            else:
                lo = mid
        root = find_positive_root(tau)
        assert abs(Fraction(root) - lo) <= lo * Fraction(1, 10**14)
        assert f"{root:.12g}" == f"{float(lo):.12g}"

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
    def test_tau_outside_the_domain_rejected(self, tau):
        with pytest.raises(DomainError):
            find_positive_root(tau)


class TestClampProbability:
    def test_floor(self):
        assert clamp_probability(0.0) == PROB_FLOOR
        assert clamp_probability(1e-400) == PROB_FLOOR

    def test_ceiling(self):
        assert clamp_probability(1.5) == 1.0

    def test_interior_untouched(self):
        assert clamp_probability(0.37) == 0.37


class TestFaults:
    def test_zero_dimensional_mask_is_row_zero(self):
        # a scalar call passes 0-d masks and columns
        faults = distributions._Faults(np.isnan(np.float64(np.nan)), clamp_probability,
                                       np.float64(np.nan))
        assert (list(faults), len(faults), 0 in faults, 1 in faults) == ([0], 1, True, False)
        assert str(faults[0]) == "probability is NaN"
        with pytest.raises(KeyError):
            faults[1]

    def test_columns_broadcast_against_the_mask(self):
        seen = []

        def check(b, p):
            seen.append((b, p))
            raise DomainError(f"row with b={b!r}")

        faults = distributions._Faults([False, True, True], check, 2.0, np.array([0.1, 0.2, 0.3]))
        assert str(faults[2]) == "row with b=2.0"
        assert seen == [(2.0, 0.3)]  # only the row read is checked
        with pytest.raises(KeyError):
            faults[0]

    def test_faulty_row_that_passes_its_check_is_a_bug(self):
        faults = distributions._Faults([True], clamp_probability, [0.5])
        with pytest.raises(AssertionError, match="row 0 is marked faulty but passes its check"):
            faults[0]
