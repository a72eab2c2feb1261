"""The integral variants against high-precision and quadrature references.

The known-answer constants were computed once with mpmath 1.3.0 at 30
significant digits (40 for a cross-check), by `mp.quad` over the F(nu, nu0)
density in y = log b with the Student t CDF from the regularized incomplete
beta function; the double integral of `p_rep_integral` takes minutes there,
so none of them is recomputed here. The property tests compare against
`scipy.integrate.quad` over the same log-b integrands, at the tolerance the
benchmark's own output check allows. The convergence properties check
that both integral variants tend to their closed forms as the degrees of
freedom and b_hat N grow.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from distnull.distributions import RULE_RTOL
from distnull.errors import NumericError
from distnull.replication import ReplicationQuery, p_rep_closed, p_rep_integral
from distnull.significance import TestStatistic, p_sig_closed, p_sig_integral

# (t, n, nu, b_hat, nu0) -> mpmath value of p_sig_integral
P_SIG_REFERENCE = [
    ((2.1, 190, 189, 0.05, 7), 0.53843774992545930934),
    # a variance ratio far below 1/N under an F(30, 1) law with no mean
    ((5.0, 50, 30, 1e-6, 1), 0.00098854474944771458486),
    # a small value, carried by the right tail of the F law
    ((40.0, 1000, 999, 0.01, 40), 3.3940574444362145972e-15),
    ((3.0, 100001, 100000, 0.01, 5), 0.92814691994428524989),
]

# (t, n, nu, b_hat, nu0, alpha, n_r, df_r) -> mpmath value of p_rep_integral
P_REP_REFERENCE = [
    ((3.4648624598456115, 226, 225, 0.4136055941247323, 36, 0.05, 226, 225),
     1.04620908197869e-12),
]


@pytest.mark.parametrize("args, want", P_SIG_REFERENCE)
def test_p_sig_integral_matches_mpmath(args, want):
    t, n, nu, b_hat, nu0 = args
    got = p_sig_integral(TestStatistic.from_t(t, n, nu), b_hat, nu0)
    assert got == pytest.approx(want, rel=RULE_RTOL, abs=0)


@pytest.mark.parametrize("args, want", P_REP_REFERENCE)
def test_p_rep_integral_matches_mpmath(args, want):
    t, n, nu, b_hat, nu0, alpha, n_r, df_r = args
    q = ReplicationQuery(TestStatistic.from_t(t, n, nu), n_r, df_r, alpha)
    # the constant carries 15 significant digits
    assert p_rep_integral(q, b_hat, nu0) == pytest.approx(want, rel=1e-13, abs=0)


# --- quadrature references ------------------------------------------------


def _log_f_density(y: float, d1: float, d2: float) -> float:
    """Log density of y = log b for b ~ F(d1, d2)."""
    return (
        0.5 * d1 * (math.log(d1 / d2) + y)
        - 0.5 * (d1 + d2) * math.log1p(d1 / d2 * math.exp(y))
        - special.betaln(0.5 * d1, 0.5 * d2)
    )


def _f_mean(g, d1: float, d2: float, epsabs: float = 0.0, epsrel: float = 1e-10) -> float:
    """E[g(b)], b ~ F(d1, d2), by quad in log b with breakpoints around the mode.

    |log b| <= 300 leaves out less than 1e-60 of the mass for d2 >= 1.
    """
    sigma = math.sqrt(2.0 / d1 + 2.0 / d2)
    cuts = sorted({min(300.0, max(-300.0, sigma * k)) for k in (-300, -8, -2, 0, 2, 8, 30, 300)})
    return sum(
        integrate.quad(
            lambda y: g(math.exp(y)) * math.exp(_log_f_density(y, d1, d2)),
            lo, hi, epsabs=epsabs, epsrel=epsrel, limit=200,
        )[0]
        for lo, hi in zip(cuts, cuts[1:])
    )


def _p_sig_quad(t, n, nu, b_hat, nu0):
    return _f_mean(
        lambda b: 2.0 * special.stdtr(nu, -abs(t) / math.sqrt(1.0 + b * b_hat * n)), nu, nu0
    )


def _p_rep_quad(t, n, nu, b_hat, nu0, alpha, n_r, df_r):
    t_crit = special.stdtrit(df_r, 1.0 - alpha / 2.0)

    def arg(bb, c):
        one_plus_bn = 1.0 + bb * n
        return (abs(t) * bb * math.sqrt(n * n_r) / one_plus_bn
                - t_crit * math.sqrt(c * (1.0 + bb * n_r))) / math.sqrt(c + bb * n_r / one_plus_bn)

    # Near 1 the kernel is flat at roundoff level and quad cannot converge
    # on it; its complement T(-arg) carries the digits there instead.
    sign = -1.0 if special.stdtr(df_r, arg(b_hat, 1.0)) > 0.5 else 1.0
    # tolerances well inside the check's keep the nested quad short
    value = _f_mean(
        lambda b: _f_mean(
            lambda c: special.stdtr(df_r, sign * arg(b * b_hat, c)), nu, df_r, 1e-12, 1e-8
        ),
        nu, nu0, 1e-11, 1e-8,
    )
    return value if sign > 0 else 1.0 - value


def _close_to_quad(got: float, ref: float) -> bool:
    # the benchmark's integral output check
    return abs(got - ref) <= 1e-7 + 1e-5 * ref


# --- properties -------------------------------------------------------------

# n and b_hat log-uniform over [3, 1e5] and [1e-4, 10]
N = st.floats(0.0, 1.0).map(lambda u: round(3.0 * (1e5 / 3.0) ** u))
B_HAT = st.floats(-4.0, 1.0).map(lambda e: 10.0**e)
NU0 = st.floats(1.0, 60.0)
T = st.floats(-30.0, 30.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t=T, n=N, b_hat=B_HAT, nu0=NU0)
def test_p_sig_integral_properties(t, n, b_hat, nu0):
    stat = TestStatistic.from_t(t, n, n - 1)
    p = p_sig_integral(stat, b_hat, nu0)
    assert 0.0 <= p <= 1.0
    assert p_sig_integral(TestStatistic.from_t(-t, n, n - 1), b_hat, nu0) == p
    # more between-experiment spread never makes a result more significant
    assert p_sig_integral(stat, 2.0 * b_hat, nu0) >= p * (1.0 - 2.0 * RULE_RTOL)
    ref = _p_sig_quad(t, n, n - 1, b_hat, nu0)
    assert _close_to_quad(p, ref), (p, ref)


# a reference that quad cannot certify is no reference
@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@settings(max_examples=4, deadline=None, derandomize=True)
@given(t=T, n=N, b_hat=B_HAT, nu0=NU0, n_r=st.none())
# a value of 0.999998, where the kernel itself is flat at roundoff level
@example(t=-26.1, n=30, b_hat=0.19, nu0=13.4, n_r=None)
# predict --variant integral --b 1e280 --nu0 5 --nr 30 at its df = 25 site
@example(t=-0.09309493362512629, n=26, b_hat=1e280, nu0=5.0, n_r=30)
def test_p_rep_integral_properties(t, n, b_hat, nu0, n_r):
    n_r = n if n_r is None else n_r  # a same-size replication unless set
    q = ReplicationQuery(TestStatistic.from_t(t, n, n - 1), n_r, n_r - 1, 0.05)
    try:
        p = p_rep_integral(q, b_hat, nu0)
    except NumericError as exc:
        # the two values README says the rule may leave uncertified: one
        # smaller than the F(nu, nu0) mass beyond |log b| = 354, which needs
        # nu0 < 5, and one near 0 whose error bound is the mass where the
        # weights underflow, about 1e-320 for each of the two F factors
        beyond_cap = nu0 < 5.0 and exc.best_estimate < 1e-60
        assert beyond_cap or exc.error_bound <= 2e-320, (exc.best_estimate, exc.error_bound)
        return
    assert 0.0 <= p <= 1.0
    flipped = ReplicationQuery(TestStatistic.from_t(-t, n, n - 1), n_r, n_r - 1, 0.05)
    assert p_rep_integral(flipped, b_hat, nu0) == p
    ref = _p_rep_quad(t, n, n - 1, b_hat, nu0, 0.05, n_r, n_r - 1)
    assert _close_to_quad(p, ref), (p, ref)


# --- integral -> closed convergence -------------------------------------------
# The closed forms are the limits of the integral variants as the F factors
# concentrate at 1 (nu, nu0 and df_r growing) and 1/(b_hat N) vanishes.


@settings(max_examples=40, deadline=None, derandomize=True)
@given(t0=st.floats(-5.0, 5.0), b_hat=st.floats(-1.3, 1.0).map(lambda e: 10.0**e))
def test_p_sig_integral_approaches_the_closed_form(t0, b_hat):
    # t0 = t / sqrt(b_hat N) held fixed at N = nu + 1 and nu0 = nu / 6
    gaps = []
    for nu in (30.0, 30000.0):
        stat = TestStatistic.from_t(t0 * math.sqrt(b_hat * (nu + 1.0)), nu + 1.0, nu)
        gaps.append(abs(p_sig_integral(stat, b_hat, nu / 6.0)
                        - p_sig_closed(stat, b_hat, nu / 6.0)))
    assert gaps[1] <= min(gaps[0], 1e-3), gaps


@settings(max_examples=30, deadline=None, derandomize=True)
@given(z=st.floats(-2.0, 2.0))
def test_p_rep_integral_approaches_the_closed_form(z):
    # a same-size replication at N = nu + 1 with nu0 = df_r = nu, t placed so
    # that the closed form's argument tends to z; the gap shrinks as both
    # sqrt(b_hat N / nu0) and 1 / sqrt(b_hat N) do
    gaps = []
    for spread, nu in ((100.0, 300.0), (1e4, 3e6)):
        t = math.sqrt(2.0) * z + special.stdtrit(nu, 0.975) * math.sqrt(1.0 + spread)
        q = ReplicationQuery(TestStatistic.from_t(t, nu + 1.0, nu), nu + 1.0, nu, 0.05)
        b_hat = spread / (nu + 1.0)
        gaps.append(abs(p_rep_integral(q, b_hat, nu) - p_rep_closed(q, b_hat, nu)))
    assert gaps[1] <= min(gaps[0], 0.01), gaps
