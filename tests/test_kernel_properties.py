"""Properties of the point, known-b, bound and closed-form kernels.

Bounded, derandomized `hypothesis` runs over t, n, b and nu0 check the
identities README documents for every non-integral variant: values lie in
[0, 1], only |t| matters, the known-b significance grows with b from the
point test at b = 0, the bound form is the known-b form at the cap, and
t0 = mean / S0. The integral variants have their own properties in
`test_integral_reference.py`.

The column kernels behind the closed, bound and integral forms are checked
against the public scalar functions row by row, and each test and forecast
variant's column function against its public function: equal with == where
the public function returns; where it raises, NaN with a fault of the same
class and message. An integral kernel's rows also keep their values and
faults when the rows are permuted. b_max's root is also checked against the
exact rational root of its quintic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distnull.adapters import statistic_from_summary
from distnull.distributions import _stationary_roots, find_positive_root
from distnull.errors import DistnullError
from distnull.estimators import BetweenVariance, ExperimentSummary, variance_ratio
from distnull.replication import (
    ReplicationQuery, _b_max, _p_rep_closed, _p_rep_column, _p_rep_given_b,
    b_max, p_rep_bound, p_rep_closed, p_rep_given_b, p_rep_integral,
)
from distnull.significance import (
    TestStatistic,
    _p_point,
    _p_sig_closed,
    _p_sig_column,
    _t0,
    p_point,
    p_sig_bound,
    p_sig_closed,
    p_sig_given_b,
    p_sig_integral,
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
    assert p_sig_closed(stat, b, nu0) == p_point(
        TestStatistic.from_t(t0_statistic(stat, b), 1.0, nu0))
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
# t = 0 (b_max undefined), tau near 1e-8 (where z_max rounds to tau), and
# tau >> 1, where Newton's method mostly starts from a power of 2
COLUMN_T = st.one_of(
    T.filter(lambda t: abs(t) > 1e-9), st.just(0.0),
    st.tuples(SIGN, st.floats(-9.5, -7.0)).map(lambda p: p[0] * 10.0 ** p[1]),
    st.tuples(SIGN, st.floats(1.0, 4.0)).map(lambda p: p[0] * 10.0 ** p[1]),
)
ROWS = st.lists(st.tuples(COLUMN_T, N, st.sampled_from([1, 2]), B, NU0, N_R),
                min_size=1, max_size=12)


@PROPERTY
@given(rows=ROWS, alpha=ALPHA)
def test_column_kernels_equal_the_scalar_functions(rows, alpha):
    t, n, lag, b, nu0, n_r = (np.array(c, dtype=float) for c in zip(*rows))
    df, df_r = n - lag, n_r - 1.0
    stats = [TestStatistic.from_t(*row) for row in zip(t, n, df)]
    queries = [ReplicationQuery(s, nr, dr, alpha) for s, nr, dr in zip(stats, n_r, df_r)]
    assert outcomes(_p_point(t, df)) == [p_point(s) for s in stats]
    assert _t0(t, n, b).tolist() == [t0_statistic(s, bh) for s, bh in zip(stats, b)]
    assert outcomes(_p_sig_closed(t, n, b, nu0)) == [
        p_sig_closed(s, bh, v) for s, bh, v in zip(stats, b, nu0)
    ]
    assert outcomes(_p_rep_closed(t, n, b, nu0, alpha, n_r, df_r)) == [
        p_rep_closed(q, bh, v) for q, bh, v in zip(queries, b, nu0)
    ]
    assert outcomes(_p_rep_given_b(t, n, b, alpha, n_r, df_r)) == [
        p_rep_given_b(q, bh) for q, bh in zip(queries, b)
    ]
    columns, faults = _b_max(t, n, df, alpha)
    assert not faults
    for s, cells in zip(stats, np.array(columns).T.tolist()):
        if s.t == 0.0:
            assert all(math.isnan(c) for c in cells)
            continue
        diag = b_max(s, alpha)
        assert cells == [diag.tau, diag.z_max, diag.b_max]


# Rows the scalar functions reject: b_hat of 0 or inf, or so large that
# b_hat * N overflows the closed form's argument; nu0 <= 2, where the closed
# replication form is undefined, and below 1; t = 0, and t so small that tau
# or b_max = z_max / N underflows to 0. t near the float range's top end is
# valid: b_max's solver forms neither tau^2 nor z^(5/2).
FAULTY_T = st.one_of(
    T, st.just(0.0),
    st.tuples(SIGN, st.floats(-323.5, -315.0)).map(lambda p: p[0] * 10.0 ** p[1]),
    st.tuples(SIGN, st.floats(300.0, 308.2)).map(lambda p: p[0] * 10.0 ** p[1]),
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


def outcome(function, *args):
    """The scalar function's value, or the class and message of its error."""
    try:
        return function(*args)
    except DistnullError as exc:
        return type(exc), str(exc)


def outcomes(column) -> list:
    """A column kernel's (values, faults) row by row: the value, or the class
    and message of the row's fault, where the value must be NaN."""
    values, faults = column
    assert all(math.isnan(values[i]) for i in faults)
    return [(type(faults[i]), str(faults[i])) if i in faults else v
            for i, v in enumerate(np.asarray(values).tolist())]


# Each test and forecast variant's public function, taking b and nu0.
SIG = {
    "point": lambda s, b, nu0: p_point(s),
    "bound": lambda s, b, nu0: p_sig_bound(s, b),
    "closed": p_sig_closed,
    "integral": p_sig_integral,
}
REP = {
    "bound": lambda q, b, nu0: p_rep_bound(q, b),
    "closed": p_rep_closed,
    "integral": p_rep_integral,
}


def assert_variants_match(variants, stats, queries, t, n, df, b, nu0, alpha, n_r, df_r):
    """Each variant's column function is its public function row by row:
    == where the public function returns, and where it raises, NaN with a
    fault of the same class and message."""
    for variant in variants:
        if variant != "point":
            assert outcomes(_p_rep_column(variant, t, n, df, b, nu0, alpha, n_r, df_r)) == [
                outcome(REP[variant], q, bh, v) for q, bh, v in zip(queries, b, nu0)
            ], variant
        assert outcomes(_p_sig_column(variant, t, n, df, b, nu0)) == [
            outcome(SIG[variant], s, bh, v) for s, bh, v in zip(stats, b, nu0)
        ], variant


@PROPERTY
@given(rows=FAULTY_ROWS, alpha=ALPHA)
def test_column_kernels_are_nan_where_the_scalar_functions_raise(rows, alpha):
    t, n, lag, b, nu0, n_r = (np.array(c, dtype=float) for c in zip(*rows))
    df, df_r = n - lag, n_r - 1.0
    stats = [TestStatistic.from_t(*row) for row in zip(t, n, df)]
    queries = [ReplicationQuery(s, nr, dr, alpha) for s, nr, dr in zip(stats, n_r, df_r)]
    assert_variants_match(("point", "bound", "closed"), stats, queries,
                          t, n, df, b, nu0, alpha, n_r, df_r)
    # at t = 0, where b_max is undefined, the cells are NaN and not faulty
    columns, faults = _b_max(t, n, df, alpha)
    for i, (s, cells) in enumerate(zip(stats, np.array(columns).T.tolist())):
        diagnostic = outcome(b_max, s, alpha)
        if s.t == 0.0:
            assert all(math.isnan(c) for c in cells) and i not in faults
        elif i in faults:
            assert all(math.isnan(c) for c in cells)
            assert (type(faults[i]), str(faults[i])) == diagnostic
        else:
            assert cells == [diagnostic.tau, diagnostic.z_max, diagnostic.b_max]


# Rows of the integral kernels: mixed df, nu0, b_hat, N_r and df_r, with
# rows the scalar functions reject: b_hat of 0 or inf, nu0 below 1 or inf,
# and a df or df_r of 1e150, whose F law the rule cannot represent.
HUGE_DF = st.just(1e150)
INTEGRAL_ROWS = st.lists(
    st.tuples(
        T, N, st.one_of(st.sampled_from([1.0, 2.0]), HUGE_DF),
        st.one_of(B, st.sampled_from([0.0, math.inf])),
        st.one_of(st.sampled_from([1.0, 2.5, 5.0]), st.floats(1.0, 60.0),
                  st.sampled_from([0.5, math.inf])),
        N_R, st.one_of(st.just(1.0), HUGE_DF),
    ),
    min_size=1, max_size=5,
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rows=INTEGRAL_ROWS, alpha=ALPHA, data=st.data())
def test_integral_column_kernels_equal_the_scalar_functions(rows, alpha, data):
    t, n, lag, b, nu0, n_r, lag_r = (np.array(c, dtype=float) for c in zip(*rows))
    # a lag of 1e150 stands for df = 1e150 itself
    df = np.where(lag > 2.0, lag, n - lag)
    df_r = np.where(lag_r > 1.0, lag_r, n_r - lag_r)
    stats = [TestStatistic.from_t(*row) for row in zip(t, n, df)]
    queries = [ReplicationQuery(s, nr, dr, alpha) for s, nr, dr in zip(stats, n_r, df_r)]
    assert_variants_match(("integral",), stats, queries, t, n, df, b, nu0, alpha, n_r, df_r)
    sig = outcomes(_p_sig_column("integral", t, n, df, b, nu0))
    rep = outcomes(_p_rep_column("integral", t, n, df, b, nu0, alpha, n_r, df_r))
    order = np.array(data.draw(st.permutations(range(len(rows)))))
    columns = [c[order] for c in (t, n, df, b, nu0)]
    assert outcomes(_p_sig_column("integral", *columns)) == [sig[k] for k in order]
    assert outcomes(_p_rep_column("integral", *columns, alpha, n_r[order], df_r[order])) == [
        rep[k] for k in order]


# tau log-uniform over [1e-300, 1e300]
TAU = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


def exact_root(tau: float) -> Fraction:
    """The root of z^2 (z+1)^3 - tau^2 (1 + 3z/2)^2 in rationals, bisected
    from [0, tau] to relative 1e-20."""
    t = Fraction(tau)

    def positive(z: Fraction) -> bool:
        return z * z * (z + 1) ** 3 > t * t * (1 + Fraction(3, 2) * z) ** 2

    lo, hi = Fraction(0), t
    while hi - lo > hi * Fraction(1, 10**20):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if positive(mid) else (mid, hi)
    return lo


@PROPERTY
@given(taus=st.lists(TAU, min_size=1, max_size=4))
# either side of tau = 64, where Newton's start switches from tau to a power
# of 2, and the ends of the float range, where tau^2 and z^(5/2) would
# underflow or overflow
@example(taus=[64.0, 64.00000000000001])
@example(taus=[5e-324, 1e-300, 1e300, 1.7976931348623157e308])
def test_stationary_root_is_the_exact_root(taus):
    column = _stationary_roots(taus).tolist()
    for tau, root in zip(taus, column):
        assert root == find_positive_root(tau)
        exact = exact_root(tau)
        assert abs(Fraction(root) - exact) <= 2 * Fraction(math.ulp(root))
        assert f"{root:.12g}" == f"{float(exact):.12g}"


@PROPERTY
@given(taus=st.lists(st.one_of(TAU, st.sampled_from(
    [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308])),
    min_size=1, max_size=8))
def test_positive_roots_are_nan_where_find_positive_root_raises(taus):
    roots = [scalar_or_nan(find_positive_root, tau) for tau in taus]
    assert np.array_equal(_stationary_roots(taus), np.array(roots), equal_nan=True)
