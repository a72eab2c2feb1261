"""The package's Student t against 40-digit mpmath.

Pinned constants (mpmath ``betainc``, the normal law at nu = 1e150, and
roots of T_nu(-x) = alpha/2 found with ``findroot``) cover the critical
values and the extremes of nu and t. A bounded, derandomized `hypothesis`
property compares the lower tail with mpmath's regularized incomplete
beta over nu in [0.5, 1e7] and |t| <= 60, and checks that a column and the
scalar functions give the same bits.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distnull import distributions
from distnull.distributions import _critical, _critical_values, _t_cdf, _t_tail, t_cdf

# (alpha, nu, x) with T_nu(-x) = alpha/2
CRITICAL = [
    (0.05, 1.0, "12.70620473617470393777667755634994645368"),
    (0.05, 5.0, "2.570581835636315468952014967026813507198"),
    (0.05, 29.0, "2.04522964213270427171419294216269732808"),
    (0.05, 399.0, "1.965927295920882039031768427220446751642"),
    (0.05, 10000.0, "1.960201239890626234086033282209531421645"),
    (0.005, 1.0, "127.3213364688721429299479041016070412705"),
    (0.005, 5.0, "4.773340604855522028219517376983621792029"),
    (0.005, 29.0, "3.038046744849174995912799326710012635882"),
    (0.005, 399.0, "2.822731904107729643454833194412519921732"),
    (0.005, 10000.0, "2.807657018971397537864706093964014549557"),
    (0.001, 1.0, "636.619248768719602957766335720829310793"),
    (0.001, 5.0, "6.868826625881110216199667631862675509398"),
    (0.001, 29.0, "3.659405019466332848768883296450907935445"),
    (0.001, 399.0, "3.315077012645125531050725744938588096832"),
    (0.001, 10000.0, "3.29149996594160467408803656101085040396"),
    (1e-06, 1.0, "636619.772367057773108183417119665272966"),
    (1e-06, 5.0, "28.4784734629842098230533220295057052748"),
    (1e-06, 29.0, "6.170056101418831177992512497925410174663"),
    (1e-06, 399.0, "4.969091949850241474738035893832729990341"),
    (1e-06, 10000.0, "4.894688616315606091927155390384945638764"),
    (1e-09, 1.0, "636619772.3675813029022437013492501552865"),
    (1e-09, 5.0, "113.6550510764125255260791131564422288637"),
    (1e-09, 29.0, "8.840584220524803628853582807919916176593"),
    (1e-09, 399.0, "6.259186840441147699373825168205568940081"),
    (1e-09, 10000.0, "6.11526858503980466975881534950438599034"),
    (1e-12, 1.0, "636619772367.5813558800923377035248007511"),
    (1e-12, 5.0, "452.5392243334007455062803491594420306786"),
    (1e-12, 29.0, "11.95134432462364769815730206705167948667"),
    (1e-12, 399.0, "7.368676032509775855983735617067708638087"),
    (1e-12, 10000.0, "7.139758936275992188080122415677317710559"),
    # past the switch to the series, where 1/2 minus the tail cancels most
    (0.09, 636655.0, "1.695400289618015883712125911550269408603"),
    (0.122, 2039.0, "1.547076436044837630699390569616781943288"),
    (0.15, 9524.0, "1.439647571440880501288791964858297114192"),
]

# (nu, x, P(T_nu <= -x)); the nu = 1e150 rows at x > 1e150 underflow
TAILS = [
    (1e-3, 1e-170, "0.5"),
    (1e-3, 2.0, "0.4975859347408580413720228"),
    (1e-3, 1e160, "0.3444840773032850187884315"),
    (1e-3, 1e300, "0.249556653271752374902921"),
    (1e150, 1e-170, "0.5"),
    (1e150, 2.0, "0.02275013194817920720028264"),
    (1e150, 30.0, "4.906713927148187059533809e-198"),
    (1e150, 1e160, "0.0"),
    (1e150, 1e300, "0.0"),
    (1.0, 3.18e299, "1.000974484854687678042047e-300"),
    (5.0, 1.57e60, "9.948912333770043600128161e-301"),
    (29.0, 1.09e11, "9.668751960046459743563434e-301"),
    (399.0, 110.0, "7.492684720372624424700506e-301"),
    (1e4, 38.4, "2.322394616630911384912191e-301"),
]


@pytest.mark.parametrize("alpha, nu, expected", CRITICAL)
def test_critical_value(alpha, nu, expected):
    assert _critical(alpha, nu) == pytest.approx(float(expected), rel=1e-15, abs=0.0)


def test_critical_values_column_is_the_scalar():
    for alpha in sorted({row[0] for row in CRITICAL}):
        nus = [row[1] for row in CRITICAL if row[0] == alpha]
        assert _critical_values(alpha, np.array(nus)).tolist() == [_critical(alpha, v) for v in nus]


def test_critical_value_cache_is_bounded():
    # a column of more distinct df than the cache holds still gets every
    # value, and the first df, dropped from the cache, is solved alone again
    nus = 1.0 + np.arange(distributions._CRITICAL_SIZE + 100) / 16.0
    column = _critical_values(0.01, nus)
    assert len(distributions._CRITICAL) == distributions._CRITICAL_SIZE
    assert (0.01, nus[0]) not in distributions._CRITICAL
    assert column[[0, -1]].tolist() == [_critical(0.01, nus[0]), _critical(0.01, nus[-1])]


@pytest.mark.parametrize("nu, x, expected", TAILS)
def test_tail_extremes(nu, x, expected):
    tail = float(expected)
    assert t_cdf(-x, nu) == pytest.approx(tail, rel=1e-13, abs=0.0)
    assert t_cdf(x, nu) == 1.0 - t_cdf(-x, nu)


def test_tail_extremes_column_is_the_scalar():
    nu, x = (np.array(column) for column in list(zip(*TAILS))[:2])
    assert _t_cdf(-x, nu).tolist() == [t_cdf(-v, n) for v, n in zip(x, nu)]


def log_tail_bound(x: float, nu: float) -> mpmath.mpf:
    """log of (nu + x²)·f(x)/((nu - 1)·x), f the t density, which bounds
    P(T_nu <= -x) at x > 0, nu > 1 from above, at 60 digits."""
    with mpmath.workdps(60):
        x, nu = mpmath.mpf(x), mpmath.mpf(nu)
        log_density = (mpmath.loggamma((nu + 1) / 2) - mpmath.loggamma(nu / 2)
                       - mpmath.log(mpmath.pi * nu) / 2 - (nu + 1) / 2 * mpmath.log1p(x * x / nu))
        return log_density + mpmath.log(nu + x * x) - mpmath.log(nu - 1) - mpmath.log(x)


# (nu, x) where w^a underflows and its correction exp(a·w_err/w) may overflow,
# which made the tail 0·inf = NaN
HUGE_DF = [(1e30, 1e10), (1e30, 1e20), (1e200, 5.64e85), (1e200, 1e20)]


@pytest.mark.parametrize("nu, x", HUGE_DF)
def test_huge_df_tail_underflows_to_zero(nu, x):
    assert log_tail_bound(x, nu) < -1075 * math.log(2.0)  # rounds to 0
    assert t_cdf(-x, nu) == 0.0
    assert t_cdf(x, nu) == 1.0


@pytest.mark.parametrize("nu, x", [(1e18, 37.0), (1e19, 37.0), (1e19, 37.5)])
def test_huge_df_tail_where_w_a_underflows_alone(nu, x):
    # w^a is below the normal range but exp(shift) lifts the tail above it;
    # at 1e19 the tail was 0, at 1e18 off by 4e-11
    assert t_cdf(-x, nu) == pytest.approx(float(reference_tail(x, nu)), rel=5e-13, abs=0.0)


# (nu, x, P(T_nu <= -x)) where w = nu/(nu + x²) rounds to 1, so that all of
# w^a's exponent, about -x²/2, is formed apart from w: mpmath's betainc at
# 1e20, the normal law (within 1e-94 of the t's) above
HUGE_DF_TAILS = [
    (1e20, 5.0, "2.866515718791939121569362e-7"),
    (1e20, 20.0, "2.753624118606234802025769e-89"),
    (1e20, 37.0, "5.725571222524603688466217e-300"),
    *((nu, x, tail) for nu in (1e100, distributions._NU_NORMAL) for x, tail in (
        (5.0, "2.866515718791939116737523e-7"),
        (20.0, "2.753624118606233695075623e-89"),
        (37.0, "5.725571222524576822683193e-300"),
    )),
]


@pytest.mark.parametrize("nu, x, expected", HUGE_DF_TAILS)
def test_huge_df_tail_keeps_its_digits(nu, x, expected):
    # the exponent was rounded as a float: 1.1e-13 off at nu = 1e100, x = 37
    assert t_cdf(-x, nu) == pytest.approx(float(expected), rel=3e-15, abs=0.0)


def reference_tail(x: float, nu: float) -> mpmath.mpf:
    """P(T_nu <= -|x|) = I_w(nu/2, 1/2)/2, w = nu/(nu + x²), at 40 digits."""
    with mpmath.workdps(40):
        x, nu = mpmath.mpf(abs(x)), mpmath.mpf(nu)
        w = nu / (nu + x * x)
        return mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, w, regularized=True) / 2


def t_limit(nu: float) -> float:
    """60, or less where the tail would fall below about 1e-280, so that the
    40-digit reference stays quick: (nu/2)·log1p(t²/nu) <= 650."""
    return 60.0 if nu < 2.0 else min(60.0, math.sqrt(nu * math.expm1(1300.0 / nu)))


NU = st.floats(math.log(0.5), math.log(1e7)).map(math.exp)
ROWS = st.lists(st.tuples(NU, st.floats(-1.0, 1.0)), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=ROWS)
# either side of the switch from the continued fraction to the series,
# where the series' sum is cancelled most, and where nu/2 rounds the switch
@example(rows=[(1e4, 1.7318 / t_limit(1e4)), (1e4, -1.7322 / t_limit(1e4)),
               (1e7, 1.7320 / t_limit(1e7))])
def test_tail_against_mpmath(rows):
    nu = np.array([n for n, _ in rows])
    t = np.array([s * t_limit(n) for n, s in rows])
    tails = _t_tail(t, nu)[0]
    for got, x, n in zip(tails.tolist(), t, nu):
        expected = reference_tail(x, n)
        assert abs(got - expected) <= 2e-14 * expected, (x, n)
    column = _t_cdf(t, nu).tolist()
    assert column == [t_cdf(x, n) for x, n in zip(t, nu)]
    assert _t_cdf(t, nu[0]).tolist() == [t_cdf(x, nu[0]) for x in t]
