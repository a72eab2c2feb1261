"""Properties of the point, known-b, bound and closed-form kernels.

Bounded, derandomized `hypothesis` runs over t, n, b and nu0 check the
identities README documents for every non-integral variant: values lie in
[0, 1], only |t| matters, the known-b significance grows with b from the
point test at b = 0, the bound form is the known-b form at the cap, and
t0 = mean / S0. The integral variants have their own properties in
`test_integral_reference.py`.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from distnull.adapters import statistic_from_summary
from distnull.estimators import BetweenVariance, ExperimentSummary, variance_ratio
from distnull.replication import ReplicationQuery, p_rep_closed, p_rep_given_b
from distnull.significance import (
    TestStatistic,
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
