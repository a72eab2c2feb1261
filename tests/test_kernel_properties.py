"""Properties of the point, known-b, bound and closed-form kernels.

Bounded, derandomized `hypothesis` runs over t, n, b and nu0 check the
identities README documents for every non-integral variant: values lie in
[0, 1], only |t| matters, the known-b significance grows with b from the
point test at b = 0, the bound form is the known-b form at the cap, and
t0 = mean / S0. The integral variants have their own properties in
`test_integral_reference.py`.

The column kernels behind the closed forms are checked against the public
scalar functions row by row: equal with == where the scalar function
returns, NaN exactly where it raises. The batched b_max bisection is also
checked against the scalar bisection it replaced, kept below as the
reference.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distnull.adapters import statistic_from_summary
from distnull.distributions import _positive_roots, find_positive_root
from distnull.errors import DistnullError, NumericError
from distnull.estimators import BetweenVariance, ExperimentSummary, variance_ratio
from distnull.replication import (
    ReplicationQuery, _b_max, _p_rep_closed, b_max, p_rep_closed, p_rep_given_b,
)
from distnull.significance import (
    TestStatistic,
    _p_point,
    _p_sig_closed,
    _t0,
    p_point,
    p_sig_bound,
    p_sig_closed,
    p_sig_given_b,
    t0_statistic,
)

# n, n_r and b log-uniform over [3, 1e5], [2, 1e5] and [1e-4, 10]
N = st.floats(0.0, 1.0).map(lambda u: round(3.0 * (1e5 / 3.0) ** u))
N_R = st.floats(0.0, 1.0).map(lambda u: round(2.0 * (1e5 / 2.0) ** u))
B = st.floats(-4.0, 1.0).map(lambda e: 10.0**e)
# the closed replication form needs nu0 > 2
NU0 = st.floats(2.5, 60.0)
T = st.floats(-30.0, 30.0)
ALPHA = st.sampled_from([0.1, 0.05, 0.01, 0.001])

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def pair(t: float, n: int) -> tuple[TestStatistic, TestStatistic]:
    return TestStatistic.from_t(t, n, n - 1), TestStatistic.from_t(-t, n, n - 1)


@PROPERTY
@given(t=T, n=N, b=B, b2=B, nu0=NU0)
def test_significance_kernels(t, n, b, b2, nu0):
    stat, flipped = pair(t, n)
    for kernel in (
        p_point,
        lambda s: p_sig_given_b(s, b),
        lambda s: p_sig_bound(s, b),
        lambda s: p_sig_closed(s, b, nu0),
    ):
        p = kernel(stat)
        assert 0.0 <= p <= 1.0
        assert kernel(flipped) == p
    assert p_sig_given_b(stat, 0.0) == p_point(stat)
    assert p_sig_bound(stat, b) == p_sig_given_b(stat, b)
    low, high = sorted((b, b2))
    assert p_sig_given_b(stat, low) <= p_sig_given_b(stat, high)


@PROPERTY
@given(t=T, n=N, n_r=N_R, b=B, nu0=NU0, alpha=ALPHA)
def test_replication_kernels(t, n, n_r, b, nu0, alpha):
    stat, flipped = pair(t, n)
    q = ReplicationQuery(stat, n_r, n_r - 1, alpha)
    q_flipped = ReplicationQuery(flipped, n_r, n_r - 1, alpha)
    for kernel in (
        lambda q: p_rep_given_b(q, b),
        lambda q: p_rep_closed(q, b, nu0),
    ):
        p = kernel(q)
        assert 0.0 <= p <= 1.0
        assert kernel(q_flipped) == p


@PROPERTY
@given(
    mean=st.floats(-10.0, 10.0),
    variance=B,
    s0_sq=B,
    n=N,
    nu0=NU0,
)
def test_t0_is_mean_over_s0(mean, variance, s0_sq, n, nu0):
    e = ExperimentSummary(n=n, mean=mean, sample_variance=variance, df=n - 1)
    b0 = BetweenVariance(s0_sq=s0_sq, nu0=nu0, grand_mean=0.0, mode="as_published")
    t0 = t0_statistic(statistic_from_summary(e), variance_ratio(b0, e))
    assert math.isclose(t0, mean / math.sqrt(s0_sq), rel_tol=1e-12, abs_tol=1e-300)


# --- column kernels -----------------------------------------------------------

SIGN = st.sampled_from([-1.0, 1.0])
# t = 0 (b_max undefined), tau near 1e-8 (the quintic's value at the bracket
# hint rounds to 0 or below it, so the bracket grows), and tau >> 1; below
# about 1e-154, tau^2 underflows and b_max raises for the row alone
COLUMN_T = st.one_of(
    T.filter(lambda t: abs(t) > 1e-9), st.just(0.0),
    st.tuples(SIGN, st.floats(-9.5, -7.0)).map(lambda p: p[0] * 10.0 ** p[1]),
    st.tuples(SIGN, st.floats(1.0, 4.0)).map(lambda p: p[0] * 10.0 ** p[1]),
)
ROWS = st.lists(st.tuples(COLUMN_T, N, st.sampled_from([1, 2]), B, NU0, N_R),
                min_size=1, max_size=12)


def reference_root(coeffs: list[float], hint: float) -> float:
    """The scalar bracket-and-bisect of find_positive_root, row by row."""

    def value(z: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * z + c
        return acc

    lo, f_lo, hi = 0.0, coeffs[-1], hint
    f_hi = value(hi)
    while (f_hi > 0.0) == (f_lo > 0.0) and f_hi != 0.0:
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        f_hi = value(hi)
    if f_hi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * hi:
            break
        f_mid = value(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@PROPERTY
@given(rows=ROWS, alpha=ALPHA)
def test_column_kernels_equal_the_scalar_functions(rows, alpha):
    t, n, lag, b, nu0, n_r = (np.array(c, dtype=float) for c in zip(*rows))
    df, df_r = n - lag, n_r - 1.0
    stats = [TestStatistic.from_t(*row) for row in zip(t, n, df)]
    queries = [ReplicationQuery(s, nr, dr, alpha) for s, nr, dr in zip(stats, n_r, df_r)]
    assert _p_point(t, df).tolist() == [p_point(s) for s in stats]
    assert _t0(t, n, b).tolist() == [t0_statistic(s, bh) for s, bh in zip(stats, b)]
    assert _p_sig_closed(t, n, b, nu0).tolist() == [
        p_sig_closed(s, bh, v) for s, bh, v in zip(stats, b, nu0)
    ]
    assert _p_rep_closed(t, n, b, nu0, alpha, n_r, df_r).tolist() == [
        p_rep_closed(q, bh, v) for q, bh, v in zip(queries, b, nu0)
    ]
    columns = np.array(_b_max(t, n, df, alpha)).T.tolist()
    for s, cells in zip(stats, columns):
        if s.t == 0.0:
            assert all(math.isnan(c) for c in cells)
            continue
        diag = b_max(s, alpha)
        assert cells == [diag.tau, diag.z_max, diag.b_max]
        tau_sq = diag.tau * diag.tau
        coeffs = [1.0, 3.0, 3.0, 1.0 - 2.25 * tau_sq, -3.0 * tau_sq, -tau_sq]
        assert diag.z_max == reference_root(coeffs, diag.tau)


# Rows the scalar functions reject: b_hat of 0 or inf, or so large that
# b_hat * N overflows the closed form's argument; nu0 <= 2, where the closed
# replication form is undefined, and below 1; t = 0, and t so small or large
# that tau^2 underflows to 0 or overflows.
FAULTY_T = st.one_of(
    T, st.just(0.0),
    st.tuples(SIGN, st.floats(-172.0, -168.0)).map(lambda p: p[0] * 10.0 ** p[1]),
    st.tuples(SIGN, st.floats(158.0, 162.0)).map(lambda p: p[0] * 10.0 ** p[1]),
)
FAULTY_B = st.one_of(B, st.sampled_from([0.0, math.inf, 1e306]))
FAULTY_NU0 = st.one_of(NU0, st.sampled_from([0.5, 1.0, 1.5, 2.0, math.inf]))
FAULTY_ROWS = st.lists(st.tuples(FAULTY_T, N, st.sampled_from([1, 2]), FAULTY_B,
                                 FAULTY_NU0, N_R), min_size=1, max_size=12)


def scalar_or_nan(function, *args):
    """The scalar function's value, or NaN where it raises."""
    try:
        return function(*args)
    except DistnullError:
        return math.nan


@PROPERTY
@given(rows=FAULTY_ROWS, alpha=ALPHA)
def test_column_kernels_are_nan_where_the_scalar_functions_raise(rows, alpha):
    t, n, lag, b, nu0, n_r = (np.array(c, dtype=float) for c in zip(*rows))
    df, df_r = n - lag, n_r - 1.0
    stats = [TestStatistic.from_t(*row) for row in zip(t, n, df)]
    queries = [ReplicationQuery(s, nr, dr, alpha) for s, nr, dr in zip(stats, n_r, df_r)]

    def same(column, values) -> bool:
        return np.array_equal(column, np.array(values, dtype=float), equal_nan=True)

    assert same(_p_point(t, df), [scalar_or_nan(p_point, s) for s in stats])
    assert same(_p_sig_closed(t, n, b, nu0), [
        scalar_or_nan(p_sig_closed, s, bh, v) for s, bh, v in zip(stats, b, nu0)
    ])
    assert same(_p_rep_closed(t, n, b, nu0, alpha, n_r, df_r), [
        scalar_or_nan(p_rep_closed, q, bh, v) for q, bh, v in zip(queries, b, nu0)
    ])
    diagnostics = [scalar_or_nan(b_max, s, alpha) for s in stats]
    assert same(np.array(_b_max(t, n, df, alpha)).T, [
        (math.nan,) * 3 if isinstance(d, float) else (d.tau, d.z_max, d.b_max)
        for d in diagnostics
    ])


# descending coefficients with one sign change: a positive head, then zeros
# and negative terms, with magnitudes from 1e-6 to 1e12
COEFFICIENT = st.floats(-6.0, 12.0).map(lambda e: 10.0**e)
POLYNOMIAL = st.tuples(
    st.lists(COEFFICIENT, min_size=1, max_size=3),
    st.lists(st.one_of(st.just(0.0), COEFFICIENT.map(lambda c: -c)), min_size=1, max_size=4),
).filter(lambda p: any(p[1])).map(lambda p: [*p[0], *p[1]])


@PROPERTY
@given(polynomials=st.lists(POLYNOMIAL, min_size=1, max_size=8),
       hints=st.lists(st.floats(-6.0, 6.0).map(lambda e: 10.0**e), min_size=8, max_size=8))
# a root of 1e12, past the bracket's cap, beside one the bracket finds
@example(polynomials=[[1.0, -1e12], [1.0, 0.0, -4.0]], hints=[1.0] * 8)
def test_positive_roots_are_nan_where_find_positive_root_raises(polynomials, hints):
    width = max(map(len, polynomials))
    # leading zeros pad every row to one width without changing its roots
    coeffs = [[0.0] * (width - len(p)) + p for p in polynomials]
    hints = hints[: len(coeffs)]
    roots, bracketed = _positive_roots(coeffs, hints)
    for row, hint, root, low in zip(coeffs, hints, roots.tolist(), bracketed.tolist()):
        try:
            assert root == find_positive_root(row, hint)
        except NumericError as exc:
            assert math.isnan(root) and exc.best_estimate == low
