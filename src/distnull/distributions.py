"""Distribution kernels and numerical utilities.

The Student t CDF and critical values (computed here, for a value or a
column), the certified fixed-node rule for expectations over F-distributed
ratios, the noncentral t as one such expectation, and the root of b_max's
stationary quintic.
Everything downstream builds on these surfaces, so their domains are
checked strictly here.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    DegenerateVarianceError,
    DistnullError,
    DomainError,
    NumericError,
)

__all__ = [
    "PROB_FLOOR",
    "clamp_probability",
    "t_cdf",
    "noncentral_t_cdf",
    "f_expectation",
    "integrate",
    "find_positive_root",
]


# Reported probabilities are clamped to [PROB_FLOOR, 1] so that log10
# columns stay finite; anything at the floor is formatted as "<1e-320".
PROB_FLOOR = 1e-320


def clamp_probability(p: float) -> float:
    """Clamp ``p`` into [PROB_FLOOR, 1.0]."""
    if math.isnan(p):
        raise DomainError("probability is NaN")
    return min(1.0, max(PROB_FLOOR, p))


# Tolerances and subdivision budget of adaptive quadrature.
QUAD_ABS_TOL = 1e-9
QUAD_REL_TOL = 1e-7
QUAD_LIMIT = 200


def _positive(x):
    """Whether x is finite and > 0, for a float or elementwise over a column."""
    return (x > 0.0) & (x < np.inf)


def _at_least(x, low: float):
    """Whether x is finite and >= low, for a float or elementwise over a column."""
    return (x >= low) & (x < np.inf)


def _check_df(nu: float, name: str = "nu") -> float:
    nu = float(nu)
    if not _positive(nu):
        raise DomainError(f"{name} must be finite and > 0, got {nu!r}")
    return nu


def _check_alpha(alpha: float, name: str = "alpha", upper: float = 1.0) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < upper):
        raise DomainError(f"{name} must lie in (0, {upper:g}), got {alpha!r}")
    return alpha


def _check_b_hat(b_hat: float) -> float:
    b_hat = float(b_hat)
    if not _positive(b_hat):
        raise DegenerateVarianceError(
            f"b_hat must be finite and > 0, got {b_hat!r}; the distributional "
            "forms are undefined at zero between-experiment variance (use the "
            "point form)"
        )
    return b_hat


def _check_at_least(value: float, low: float, name: str) -> float:
    value = float(value)
    if not _at_least(value, low):
        raise DomainError(f"{name} must be finite and >= {low:g}, got {value!r}")
    return value


def _check_nu0(nu0: float) -> float:
    return _check_at_least(nu0, 1.0, "nu0")


def _estimated(b_hat, nu0):
    """Whether _check_estimate passes, for floats or elementwise over columns."""
    return _at_least(nu0, 1.0) & _positive(b_hat)


def _check_estimate(b_hat: float, nu0: float) -> None:
    """Every distributional form's checks of an estimate (b_hat, nu0), nu0's first."""
    _check_nu0(nu0)
    _check_b_hat(b_hat)


def _check_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Coefficients of Stirling's series for log Gamma, in powers of 1/x^2.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_remainder(x: float) -> float:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2, free of cancellation."""
    if x < 10.0:
        return math.lgamma(x) - (x - 0.5) * math.log(x) + x - _HALF_LOG_2PI
    inv_sq = 1.0 / (x * x)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * inv_sq + c
    return acc / x


@lru_cache(maxsize=4096)
def _beta_factors(nu: float) -> tuple[float, float]:
    """1/B(a, 1/2) and 1/(nu·B(a, 1/2)) at nu = 2a > 0, to a few ulps.

    1/B(a, 1/2) = sqrt(a/pi)·exp(-rho) with rho = log(Gamma(a)·sqrt(a)/Gamma(a + 1/2))
    ~ 1/(8a) small, so the factor keeps its digits where log B(a, 1/2)
    grows without bound. Below a = 10 the recurrence rho(a) = rho(a + 1) +
    log1p(1/(4a(a + 1)))/2 moves a up; from there rho(a) = 1/2 -
    a·log1p(1/(2a)) + R(a) - R(a + 1/2), with R the Stirling remainder:
    log(a/(a + 1/2)) taken as -log1p(1/(2a)) leaves no two terms that grow
    with a. Below nu = 2**-60 the factors are nu/2 and 1/2 to double
    precision, also where nu/2 underflows.
    """
    if nu < 2.0**-60:
        return 0.5 * nu, 0.5
    a, rho = 0.5 * nu, 0.0
    while a < 10.0:
        rho += 0.5 * math.log1p(0.25 / (a * (a + 1.0)))
        a += 1.0
    rho += 0.5 - a * math.log1p(0.5 / a) + _stirling_remainder(a) - _stirling_remainder(a + 0.5)
    inverse = math.sqrt(nu / (2.0 * math.pi)) * math.exp(-rho)
    return inverse, inverse / nu


# An element of the t tail's continued fraction or series is done at its
# first step within _STEP_TOL of the value; _STEPS bounds the steps (no
# element of a valid t needs a fifth of them).
_STEP_TOL = 2.0**-52
_STEPS = 1000


def _tail_fraction(z, a, index=None):
    """g = 1 + c_1/(1 + c_2/(1 + ...)), with I_w(a, 1/2) = w^a (1 - w)^(-1/2)/(a B(a, 1/2) g)
    and z = w/(1 - w), for a float z or elementwise over a flat column. ``a``
    is a float, or an array of the distinct a and ``index`` the position of
    each element's.

    The continued fraction is the second one of Cephes' incbet, here at b = 1/2:
    c_(2m+1) = z(a + m)(m + 1/2)/((a + 2m)(a + 2m + 1)) and c_(2m+2) =
    z(m + 1)(a + m + 1/2)/((a + 2m + 1)(a + 2m + 2)). Every c is positive, so
    no step of Lentz's method (Numerical Recipes §5.2) cancels, and its
    convergents close in on g from either side: a step within _STEP_TOL of
    1 bounds what is left. Each element is frozen at its own first such
    step, so its value does not depend on the rest of the column, and a
    float gets the same bits.
    """
    if isinstance(z, np.ndarray) and z.size < 2:
        return _one_by_one(_tail_fraction, z, a, index)
    g, c, e = 1.0, 1.0, math.inf
    freeze = _Freezer(z)
    for m in range(_STEPS):
        # c_(2m+1)/z and c_(2m+2)/z as products of ratios, so that no a² is
        # formed; at m = 0 with a/a cancelled, which a = 0 leaves undefined
        odd = (a + m) / (a + 2.0 * m) * ((m + 0.5) / (a + (2.0 * m + 1.0))) if m else 0.5 / (a + 1.0)
        even = (m + 1.0) / (a + (2.0 * m + 1.0)) * ((a + (m + 0.5)) / (a + (2.0 * m + 2.0)))
        if index is not None:
            odd, even = odd[index], even[index]
        for coef in (z * odd, z * even):
            # Lentz's c = 1 + c_k/c and d = 1/(1 + c_k d), with e = 1/d taken
            # as 1 + c_k/e (d = 0, e = inf at the start), and g = g·c/e
            e = coef / e
            e += 1.0
            c = coef / c
            c += 1.0
            step = c / e
            g *= step
        state = freeze(m, abs(step - 1.0) > _STEP_TOL, g, (z, index, g, c, e))
        if state is None:
            break
        z, index, g, c, e = state
    return freeze.result(g)


def _head_series(u, a, index=None):
    """S = 2F1(a + 1/2, 1; 3/2; u), with I_u(1/2, a) = 2 u^(1/2) (1 - u)^a S/B(a, 1/2),
    at u < 3/(2a + 5), for a float u or elementwise over a flat column; ``a``
    and ``index`` are as for _tail_fraction.

    Its terms t_0 = 1, t_(n+1) = t_n (a + 1/2 + n) u/(3/2 + n) are positive and
    fall, by a ratio below (a + 1/2)/(a + 5/2) and then towards u; the
    rounding errors of their sum are summed apart and added back. Each
    element is frozen at its own first term within _STEP_TOL of the sum.
    """
    if isinstance(u, np.ndarray) and u.size < 2:
        return _one_by_one(_head_series, u, a, index)
    total, term, lost = 1.0, 1.0, 0.0
    freeze = _Freezer(u)
    for n in range(_STEPS):
        ratio = (a + (n + 0.5)) / (n + 1.5)
        term *= u * (ratio if index is None else ratio[index])
        # total >= term, so (total - sum) + term is the sum's rounding error
        value = total + term
        error = total - value
        error += term
        lost += error
        total = value
        value = total + lost
        state = freeze(n, term > _STEP_TOL * total, value, (u, index, total, term, lost))
        if state is None:
            break
        u, index, total, term, lost = state
    return freeze.result(value)


def _one_by_one(iteration, column, a, index):
    """``iteration`` over a column of at most one element, run on floats: the
    same bits at a fraction of the cost of the array operations."""
    return np.array([iteration(float(v), float(a if index is None else a[index[0]])) for v in column])


class _Freezer:
    """Keeps each element's value from the first step at which it is done,
    for an iteration over a flat column or a float.

    An element done before goes on iterating with the rest, which costs less
    than cutting every state array down at every step. Every fourth step,
    once at most half of the iterated elements are still open, the call
    returns the state arrays cut down to those, and None when none is open.
    A float in the state (a parameter shared by all elements) is passed
    through. For a float, the call returns None at its first done step.
    """

    def __init__(self, column) -> None:
        self.column = isinstance(column, np.ndarray)
        if self.column:
            self.values = np.empty(column.size)
            self.index = np.arange(column.size)
            self.kept = np.empty(column.size)
            self.open = np.ones(column.size, dtype=bool)

    def __call__(self, step: int, going, current, state):
        """``going`` marks the elements not done at this step."""
        if not self.column:
            return state if going else None
        np.copyto(self.kept, current, where=self.open)
        self.open &= going
        if step % 4 != 3:
            return state
        count = np.count_nonzero(self.open)
        if 2 * count > self.open.size:
            return state
        closed = ~self.open
        self.values[self.index[closed]] = self.kept[closed]
        if not count:
            return None
        keep = self.open
        self.index, self.kept, self.open = self.index[keep], self.kept[keep], self.open[keep]
        return [v[keep] if isinstance(v, np.ndarray) else v for v in state]

    def result(self, current):
        """The kept values; an element still open keeps its current one."""
        if not self.column:
            return current
        self.values[self.index] = self.kept
        return self.values


# Above _FAR, a product split for double-double arithmetic would overflow.
_FAR = 2.0**995
# Beyond _NU_NORMAL degrees of freedom the t law is the normal one to
# double precision (their tails differ by O(1/nu)), and nu is taken as it.
_NU_NORMAL = 2.0**600
# Elements of x per block of _t_tail, small enough (64 KiB of float64) that
# the iterations' temporaries stay in cache.
_T_BLOCK = 1 << 13


@np.errstate(all="ignore")  # rows outside the domain are computed too
def _t_tail(x, nu) -> tuple[np.ndarray, np.ndarray]:
    """P(T_nu <= -|x|) and |x| times the t density at x, elementwise over x and
    nu (a float or a column); NaN where x is NaN or nu is not finite and > 0.

    With w = nu/(nu + x²), u = x²/(nu + x²) and a = nu/2, the tail is
    I_w(a, 1/2)/2. Its prefactor w^a·u^(1/2)/B(a, 1/2), which is |x| times
    the density, is a product of powers: w is formed in double-double
    arithmetic from x² split exactly, so w^a keeps its digits at any a, and
    1/B(a, 1/2) comes from _beta_factors. Where x² nears overflow, w^a is
    (sqrt(nu)/x)^nu. Below w = (a + 1)/(a + 5/2) the tail is the prefactor
    over nu·u·_tail_fraction(w/u); above it, 1/2 minus the tail is the
    prefactor times _head_series(u), to first order at the u that w's
    double-double form implies.
    """
    x, nu = np.asarray(x, dtype=float), np.asarray(nu, dtype=float)
    shape = np.broadcast_shapes(x.shape, nu.shape)
    x = np.abs(np.broadcast_to(x, shape).ravel())
    valid = x == x
    x = np.where(valid, x, 0.0)
    if nu.ndim:
        nu = np.broadcast_to(nu, shape).ravel()
        valid &= _positive(nu)
        nu = np.where(valid, np.minimum(nu, _NU_NORMAL), 1.0)
    else:
        positive = bool(_positive(nu))
        valid &= positive
        nu = min(float(nu), _NU_NORMAL) if positive else 1.0
    tail, scale = np.empty(x.size), np.empty(x.size)
    for start in range(0, x.size, _T_BLOCK):
        block = slice(start, start + _T_BLOCK)
        tail[block], scale[block] = _t_tail_block(x[block], nu[block] if np.ndim(nu) else nu)
    tail[~valid] = scale[~valid] = np.nan
    return tail.reshape(shape), scale.reshape(shape)


def _t_tail_block(x, nu) -> tuple[np.ndarray, np.ndarray]:
    """_t_tail over a flat block of finite x >= 0, at a finite nu > 0 or a
    column of them like x. A column of one distinct nu, and a branch no
    element takes, cost nothing extra."""
    if np.ndim(nu) and nu.min() == nu.max():
        nu = float(nu[0])
    if np.ndim(nu):
        distinct, index = np.unique(nu, return_inverse=True)
        half = 0.5 * distinct
        factors = np.array([_beta_factors(v) for v in distinct.tolist()])[index]
        inverse_beta, inverse_nu_beta = factors[:, 0], factors[:, 1]
    else:
        half, index = 0.5 * nu, None
        inverse_beta, inverse_nu_beta = _beta_factors(nu)
        # np.power at a scalar exponent of 1/2 or 2 takes a shortcut whose
        # bits differ from those at a column of them
        nu = np.full(x.size, nu)
    a = 0.5 * nu
    sq, sq_err = _two_prod(x, x)
    s, s_err = _two_sum(nu, sq)
    w, u = nu / s, sq / s
    # w + w_err is nu/(nu + x²) to about 2**-104
    w_err = ((nu - w * s) - _two_prod(w, s)[1] - w * (s_err + sq_err)) / s
    # w^a and u^(1/2), each as a sum of a rounded value and its correction;
    # w^a takes its correction factor exp(shift) whole where w has lost
    # digits that a magnifies, as where nu is above about 2**53
    power = np.power(w, a)
    shift = a * (w_err / w)
    # where x² nears overflow, w = nu/x², u = 1 and w^a = (sqrt(nu)/x)^nu to
    # double precision
    far = sq >= _FAR
    if far.any():
        u[far], w_err[far], shift[far] = 1.0, 0.0, 0.0
        power[far] = np.power(np.sqrt(nu[far]) / x[far], nu[far])
    # w, or sqrt(nu)/x where x² nears overflow, underflows to 0 at nu below
    # 2**-79, where w^a = exp(a·log w) is 1 to double precision, as
    # |a·log w| < 2**-60
    lost = (w == 0.0) & (nu < 2.0**-79)
    if lost.any():
        power[lost], w_err[lost], shift[lost] = 1.0, 0.0, 0.0
    whole = np.abs(shift) > 2.0**-26
    # w^a below the normal range is taken with exp(shift), which may overflow, in log form
    logged = whole & (power < np.finfo(float).tiny)
    power = np.where(whole, power * np.exp(shift), power)
    power[logged] = np.exp(a[logged] * np.log(w[logged]) + shift[logged])
    # there shift carries most of w^a's exponent once nu passes about 2**55,
    # and its rounding error with it; where q = x²/nu < 2**-20, w^a is
    # exp(-(x²/2)·log1p(q)/q) instead, with x²/2 in double-double and
    # log1p(q)/q = 1 - q/2 + q²/3 - q³/4
    near = whole & (sq < 2.0**-20 * nu)
    if near.any():
        q, x_sq_half = sq[near] / nu[near], 0.5 * sq[near]
        low = x_sq_half * q * (0.5 - q * (1.0 / 3.0 - 0.25 * q)) - 0.5 * sq_err[near]
        # apart only where exp(-x²/2) does not underflow, so exp(low) not overflow
        power[near] = np.where(x_sq_half < 746.0, np.exp(low) * np.exp(-x_sq_half),
                               np.exp(low - x_sq_half))
    power_lo = np.where(whole, 0.0, power * np.expm1(shift))
    # u·(1 + u_shift) = 1 - w·(1 + w_err/w), where 1 - w is exact for w >= 1/2
    u_shift = np.where(u > 0.0, (((1.0 - w) - u) - w_err) / u, 0.0)
    root_u = np.sqrt(u)
    root_lo = root_u * (0.5 * u_shift)
    # w < (a + 1)/(a + 5/2), asked of u, which keeps its digits where w rounds to 1
    direct = u > 1.5 / (a + 2.5)
    tail = np.empty(x.size)
    if direct.any():
        index_d, nu_beta_d = index, inverse_nu_beta
        if index is not None:
            index_d, nu_beta_d = index[direct], inverse_nu_beta[direct]
        fraction = _tail_fraction(w[direct] / u[direct], half, index_d)
        tail[direct] = (power + power_lo)[direct] * (nu_beta_d / (root_u + root_lo)[direct]) / fraction
    head = ~direct
    if head.any():
        # 1/2 minus the tail is w^a·u^(1/2)·S/B, S at u·(1 + u_shift) to first
        # order, as u·S'(u) = (1/2 - (1/2 - u(a + 1/2))·S)/(1 - u); the product
        # is formed in double-double so that only its last rounding meets the
        # cancellation with 1/2
        index_h, beta_h = index, inverse_beta
        if index is not None:
            index_h, beta_h = index[head], inverse_beta[head]
        u_h, a_h = u[head], a[head]
        series = _head_series(u_h, half, index_h)
        series_lo = u_shift[head] * (0.5 - (0.5 - u_h * (a_h + 0.5)) * series) / w[head]
        product = _dd_mul(_dd_mul((power[head], power_lo[head]), (root_u[head], root_lo[head])),
                          (series, series_lo))
        product = _dd_mul(product, (beta_h, 0.0))
        tail[head] = (0.5 - product[0]) - product[1]
    scale = (power + power_lo) * (root_u + root_lo) * inverse_beta
    return tail, scale


def _t_cdf(x, nu) -> np.ndarray:
    """The Student t CDF elementwise over x and nu; NaN where _t_tail is."""
    tail = _t_tail(x, nu)[0]
    return np.where(np.asarray(x) > 0.0, 1.0 - tail, tail)


# Newton steps on log P(T <= -x) in log x stop for an element at one below
# _NEWTON_TOL; _NEWTON_STEPS bounds them.
_NEWTON_TOL = 1e-12
_NEWTON_STEPS = 100


@np.errstate(all="ignore")  # a safeguarded step may propose 0, inf or NaN
def _t_tail_quantile(p: float, nu) -> np.ndarray:
    """The x > 0 with P(T_nu <= -x) = p, at p in (0, 1/2), over a column of
    finite nu > 0.

    Newton's method on log P(T <= -x) in log x, whose slope is minus |x|
    times the density over the tail, starts from the smaller of a
    Cornish-Fisher estimate and the tail's power law. A step that leaves
    the bracket the tails so far have set bisects it in log x instead.
    Each element is frozen after its own first step below _NEWTON_TOL.
    """
    nu = np.asarray(nu, dtype=float).ravel()
    log_p = math.log(p)
    # normal quantile to 4.5e-4 (Abramowitz & Stegun 26.2.23), then
    # Cornish-Fisher to order 1/nu^2 (A&S 26.7.5)
    s = math.sqrt(-2.0 * log_p)
    z = s - (2.515517 + s * (0.802853 + s * 0.010328)) / (
        1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308))
    )
    g1 = (z**3 + z) / 4.0
    g2 = (5.0 * z**5 + 16.0 * z**3 + 3.0 * z) / 96.0
    expansion = z + g1 / nu + g2 / (nu * nu)
    # P(T <= -x) ~ (nu/x²)^(nu/2)/(nu B(nu/2, 1/2)) as x grows
    inverse_nu_beta = np.array([_beta_factors(v)[1] for v in nu.tolist()])
    power_law = np.exp((0.5 * nu * np.log(nu) + np.log(inverse_nu_beta) - log_p) / nu)
    x = np.minimum(expansion, power_law)
    lo, hi = np.zeros_like(nu), np.full_like(nu, np.inf)
    freeze = _Freezer(nu)
    for n in range(_NEWTON_STEPS):
        tail, scale = _t_tail(x, nu)
        above = tail > p
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        step = np.log(tail / p) * tail / scale
        guess = x + x * np.expm1(step)
        done = np.abs(step) <= _NEWTON_TOL
        inside = done | ((guess > lo) & (guess < hi))
        bisect = np.where(hi < np.inf, np.sqrt(lo * hi), 16.0 * x)
        x = np.where(inside, guess, np.where(lo > 0.0, bisect, x / 16.0))
        state = freeze(n, ~done, x, (nu, x, lo, hi))
        if state is None:
            break
        nu, x, lo, hi = state
    return freeze.result(x)


def t_cdf(x: float, nu: float) -> float:
    """Student t CDF with ``nu`` degrees of freedom at ``x``."""
    x = _check_finite(x, "x")
    nu = _check_df(nu)
    return float(_t_cdf(x, nu))


def _critical(alpha: float, df: float) -> float:
    """Two-sided critical value of a level-alpha t test: the x with T_df(-x) = alpha/2."""
    return float(_critical_values(alpha, [df])[0])


def _critical_values(alpha: float, df) -> np.ndarray:
    """_critical over an array of df, with one solve over the distinct df."""
    distinct, inverse = np.unique(df, return_inverse=True)
    return _t_tail_quantile(alpha / 2.0, distinct)[inverse]


_SQRT_HALF = math.sqrt(0.5)
# The relative tolerance the noncentral t's rule certifies: a thousandth of
# RULE_RTOL, so that its 12 printed digits hold
_NONCENTRAL_RTOL = 1e-13


def _normal_lower(z: np.ndarray) -> np.ndarray:
    """Phi(z) elementwise, from math.erfc, which keeps the lower tail's digits."""
    return 0.5 * np.array([math.erfc(-v * _SQRT_HALF) for v in z.tolist()])


def _noncentral_t_mass(lo: float, hi: float, nu: float, theta: float,
                       outside: bool = False) -> float:
    """P(lo <= T <= hi) for T noncentral t with ``nu`` degrees of freedom and
    noncentrality ``theta``, or P(T outside [lo, hi]) if ``outside``; lo may be
    -inf.

    T = (Z + theta)/r with Z standard normal and r² = V/nu, V ~ chi-square(nu)
    independent of Z, so the mass is E[Phi(hi·r - theta) - Phi(lo·r - theta)],
    one expectation over V/nu ~ F(nu, inf) on f_expectation's rule, with no
    difference of two CDFs. At each node the mass of [l, h] = [lo·r - theta,
    hi·r - theta] is taken, after mirroring it to h > -l, as Phi(h) - Phi(l)
    where h <= 0 and as 1 - Phi(l) - Phi(-h) where not: each Phi from the tail
    it is smallest in, so no node cancels more than its own value. The mass
    outside is Phi(l) + Phi(-h), a sum of positive terms. The rule is
    patient, since the kernel changes over a width of about 2/theta in
    log V, and certifies the mass to _NONCENTRAL_RTOL relative (absolute
    below PROB_FLOOR); it raises its NumericError where it cannot.
    """

    def kernel(rows, b):
        r = np.sqrt(b)
        # r is 0 where b underflows, and -inf·0 is NaN
        low = lo * r - theta if lo > -math.inf else np.full_like(r, -math.inf)
        high = hi * r - theta
        flip = low > -high
        low, high = np.where(flip, -high, low), np.where(flip, -low, high)
        below, beyond = _normal_lower(low), _normal_lower(-np.abs(high))
        if outside:
            return below + np.where(high > 0.0, beyond, 1.0 - beyond)
        return np.where(high > 0.0, (1.0 - below) - beyond, beyond - below)

    mass = _checked(_f_expectations(kernel, [((nu, math.inf),)], _NONCENTRAL_RTOL, patient=True))
    return min(1.0, max(0.0, float(mass[0])))


def noncentral_t_cdf(x: float, nu: float, theta: float) -> float:
    """Noncentral t CDF with ``nu`` degrees of freedom and noncentrality ``theta``:
    P(T <= x) = E[Phi(x·sqrt(V/nu) - theta)], V ~ chi-square(nu), by
    _noncentral_t_mass."""
    x = _check_finite(x, "x")
    nu = _check_df(nu)
    theta = _check_finite(theta, "theta")
    return _noncentral_t_mass(-math.inf, x, nu, theta)


# The fixed-node rule of f_expectation: the relative tolerance it certifies,
# the step halvings allowed per axis, its coarsest step in z = log(b)/sigma,
# the cap on |log b| that keeps b, 1/b and their squares finite, the
# number of kernel values summed as one block (256 KiB of float64), the
# most kernel values evaluated at once, over all the expectations the rule
# runs in lockstep (2 MiB of float64), the most nodes one axis's rule may
# hold (32 MiB of float64), and the share of rtol times the value's scale
# that a rule over two or more axes may skip of its level-0 grid's weight.
RULE_RTOL = 1e-10
RULE_LEVELS = 10
_RULE_STEP = 0.5
_RULE_LOG_MAX = 354.0
_RULE_BLOCK = 1 << 15
_RULE_ROUND = 1 << 18
_RULE_NODES = 1 << 22
_RULE_SKIP = 5e-4


@lru_cache(maxsize=64)
def _f_rule(d1: float, d2: float, level: int):
    """Trapezoid nodes and weights for b ~ F(d1, d2) at step _RULE_STEP/2**level.

    In y = log b the law (_f_law, or _chi2_law at d2 = inf) is log-concave
    with its mode at y = 0 and curvature scale sigma there. Nodes sit at
    y = sigma*z on the grid z = k*h, over the law's y-range; every level
    holds the one before at its even positions, and y = 0 is at index
    mode * 2**level. Returns (nodes, weights, mode, (below, above)), the
    last pair bounding the mass beyond the range's ends, which lie within
    one coarsest step of the outermost nodes.
    Raises NumericError where the rule cannot represent the law: a step of
    the law's fails, as where s rounds to 0 or 1, a bound is not finite,
    the grid exceeds _RULE_NODES, or a weight is not finite, as where 1 - s
    rounds to 1 and the first log1p meets -1.
    """
    try:
        sigma, y_lo, y_hi, outside, weight = _chi2_law(d1) if d2 == math.inf else _f_law(d1, d2)
        k_lo = math.ceil(y_lo / (sigma * _RULE_STEP))
        k_hi = math.floor(y_hi / (sigma * _RULE_STEP))
        size = (k_hi - k_lo) << level
    except (ValueError, OverflowError):
        size = math.inf
    if size < _RULE_NODES and math.isfinite(sum(outside)):
        h = _RULE_STEP / 2**level
        y = sigma * h * np.arange(k_lo << level, (k_hi << level) + 1)
        with np.errstate(all="ignore"):
            weights = weight(h, y)
        if np.isfinite(weights).all():
            return np.exp(y), weights, -k_lo, outside
    raise NumericError(f"the quadrature rule cannot represent F({d1!r}, {d2!r})")


def _f_law(d1: float, d2: float):
    """F(d1, d2) in y = log b for _f_rule: sigma, the y-range's ends, the
    masses beyond them, and the weight function of (h, y).

    The density is exp(log_mode - d1/2 * log1p((1 - s)*expm1(-y)) - d2/2 *
    log1p(s*expm1(y))), s = d1/(d1 + d2), whose mode is y = 0 and whose
    curvature scale there is sigma = sqrt(2/d1 + 2/d2); in this form no two
    large terms cancel. The range is where a weight can be represented and
    |y| stays under the cap, and the masses beyond it are bounded by the
    linear tail bounds of the log density.
    """
    sigma = math.sqrt(2.0 / d1 + 2.0 / d2)
    a, c = 0.5 * d1, 0.5 * d2
    s = d1 / (d1 + d2)
    # log of the density at y = 0; Stirling's series cancels the O(d)
    # terms of the beta normaliser analytically
    log_mode = (
        _stirling_remainder(a + c) - _stirling_remainder(a) - _stirling_remainder(c)
        - math.log(sigma) - _HALF_LOG_2PI
    )
    # log density <= upper - c*y for y > 0 and <= lower + a*y for y < 0
    upper = log_mode - (a + c) * math.log(s)
    lower = log_mode - (a + c) * math.log1p(-s)
    y_hi = min(_RULE_LOG_MAX, (upper + 740.0) / c)
    y_lo = max(-_RULE_LOG_MAX, -(lower + 740.0) / a)
    outside = (math.exp(lower + a * y_lo) / a, math.exp(upper - c * y_hi) / c)
    return sigma, y_lo, y_hi, outside, lambda h, y: h * sigma * np.exp(
        log_mode - a * np.log1p((1.0 - s) * np.expm1(-y)) - c * np.log1p(s * np.expm1(y)))


# 1/n! for n = 2..17: e^y - 1 - y = y²·(1/2! + y/3! + ...), to double
# precision at |y| < 1/2
_EXCESS = tuple(1.0 / math.factorial(n) for n in range(2, 18))


def _exp_excess(y):
    """e^y - 1 - y elementwise, from its series where |y| < 1/2, so that
    it keeps its digits where y is small."""
    out = np.expm1(y) - y
    small = np.abs(y) < 0.5
    x = y[small]
    series = np.zeros_like(x)
    for c in reversed(_EXCESS):
        series = series * x + c
    out[small] = x * x * series
    return out


def _chi2_law(nu: float):
    """_f_law for b = V/nu, V ~ chi-square(nu), the F(nu, inf) law.

    With a = nu/2, y = log b has the log-concave density exp(log(a)/2 +
    c - f(y)), f(y) = a·(e^y - 1 - y), c = -log(2 pi)/2 - R(a) and R the
    Stirling remainder, whose mode is y = 0; sigma = 1/sqrt(a), so the
    weight h·sigma times the density is h·exp(c - f(y)), normalised at any
    nu without a factor that over- or underflows. The range's ends are
    one coarsest step beyond where f(y) >= a·m, m = (c + 740)/a, so that
    every weight within a step of them is below exp(-740): that is on the
    right at sqrt(2m) or log(2m + 2), as e^y - 1 - y exceeds y²/2 and e^y/2
    there, and on the left at the root t of t²/(2 + t) = m, as e^-t - 1 + t
    >= t²/(2 + t). By f's convexity the mass beyond an end y_e is at most
    the density there over |f'(y_e)|. Only the right end is capped, at
    log b = _RULE_LOG_MAX: on the left b falls to 0 where it underflows,
    so a value is certified down to PROB_FLOOR at any nu >= 1; a kernel of
    this law takes b = 0.
    """
    a = 0.5 * nu
    sigma = math.sqrt(2.0 / nu)
    log_weight = -_HALF_LOG_2PI - _stirling_remainder(a)
    m = (log_weight + 740.0) / a
    step = sigma * _RULE_STEP
    y_hi = min(_RULE_LOG_MAX, min(math.sqrt(2.0 * m), math.log(2.0 * (m + 1.0))) + step)
    y_lo = -(0.5 * (m + math.sqrt(m * (m + 8.0))) + step)
    ends = np.array([y_lo, y_hi])
    # density over |f'| is sigma·exp(log_weight - f)/|expm1(y)|
    outside = tuple((sigma * np.exp(log_weight - a * _exp_excess(ends))
                     / np.abs(np.expm1(ends))).tolist())
    return sigma, y_lo, y_hi, outside, lambda h, y: h * np.exp(log_weight - a * _exp_excess(y))


@lru_cache(maxsize=64)
def _f_tails(d1: float, d2: float):
    """Level-0 weight mass at or beyond each node, from the left and the right."""
    _, weights, mode, (below, above) = _f_rule(d1, d2, 0)
    return below + np.cumsum(weights), above + np.cumsum(weights[::-1])[::-1], mode


def _f_span(d1: float, d2: float, eps: float) -> tuple[int, int, float]:
    """Level-0 node range [lo, hi] whose outside mass is at most ``eps`` if it can be.

    The density is increasing left of the mode and decreasing right of it,
    so at every level the weights of the nodes left of node lo sum to at
    most the level-0 mass at or left of it; likewise on the right. Returns
    lo, hi and that bound on the mass left out.
    """
    left, right, mode = _f_tails(d1, d2)
    lo = min(mode, max(0, int(np.searchsorted(left, eps, side="right")) - 1))
    cut = int(np.searchsorted(right[::-1], eps, side="right"))
    hi = max(mode, min(len(right) - 1, len(right) - cut))
    return lo, hi, float(left[lo] + right[hi])


def _f_grid(dfs: tuple[float, float], span, level: int):
    nodes, weights, _, _ = _f_rule(*dfs, level)
    window = slice(span[0] << level, (span[1] << level) + 1)
    return nodes[window], weights[window]


def _carried(values, kept, old, new):
    """The level-0 kernel values held for the spans ``old``, placed in a grid
    over the spans ``new``, which contain them (a cut only widens as the
    scale falls), and the mask of the places they fill: those of the nodes
    the old cut ``kept`` (all of them where it is None), since a skipped
    node holds no value. Every other place holds 0."""
    shape = tuple(hi - lo + 1 for lo, hi, _ in new)
    known, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    if values is not None:
        inside = tuple(slice(held_lo - lo, held_hi - lo + 1)
                       for (held_lo, held_hi, _), (lo, _, _) in zip(old, new))
        known[inside] = values
        mask[inside] = True if kept is None else kept
    return known, mask


def _skip_floor(weights, budget):
    """The floor below which a node of the tensor grid of the axis weights
    ``weights`` is skipped: the least kept product of its weights, such that
    the products below it sum to at most ``budget``; and the grid's mask of
    the nodes it keeps."""
    products = reduce(np.multiply.outer, weights)
    ordered = np.sort(products, axis=None)
    count = int(np.searchsorted(np.cumsum(ordered), budget, side="right"))
    floor = float(ordered[min(count, ordered.size - 1)])
    return floor, products >= floor


def _rule(dfs, rtol, patient):
    """The rule of f_expectation for one expectation, as a generator; with
    ``rtol`` and ``patient`` as _f_expectations'.

    It yields each tensor grid whose weighted kernel sum it needs, as
    (grids, floor, known, mask): ``grids`` holds each axis's (nodes,
    weights), and a node whose weights' product is below ``floor`` is
    skipped: it counts as 0 and is not evaluated. A level-0 grid comes with
    the kernel values it already has, in ``known`` where ``mask`` is set; a
    refinement's comes with None for both. Each grid is sent back its sum
    and the weight it skipped, a level-0 grid also all its values. The
    generator returns the certified value, or raises the rule's errors.

    Over two or more axes, each cut sets a floor on the products of the
    level-0 weights, such that the nodes below it weigh at most
    _RULE_SKIP·rtol·scale, and keeps it until that weight passes ten times
    the budget of a lower scale. At levels (l_1, ..., l_k) the floor is
    scaled by 2**-(l_1 + ... + l_k), as each node's weights are, so a node
    is skipped at every level or at none. The kernel lies in [0, 1], so the
    error bound adds the skipped weight of every grid the value combines to
    the truncated mass and the last changes.

    Over two axes, once b's first halving meets its share, c is halved at
    b's level 0. If that change meets its share too, the value is T(1, 0) +
    T(0, 1) - T(0, 0), the combination technique (Griebel, Schneider &
    Zenger 1992), with no node at odd positions on both axes evaluated.
    Otherwise only those nodes are added, and the rule goes on from T(1, 1).
    """
    dfs = [(_check_df(d1, "d1"), math.inf if d2 == math.inf else _check_df(d2, "d2"))
           for d1, d2 in dfs]
    k = len(dfs)
    scale, spans, level_0, kept, origin = 1.0, None, None, None, None
    while True:
        # cut the z-ranges for values near scale; start over if a cut moves,
        # or if its floor skips too much weight for the scale, keeping the
        # level-0 values the new cut shares with the old
        wanted = [_f_span(d1, d2, rtol * scale / (64 * k)) for d1, d2 in dfs]
        budget = _RULE_SKIP * rtol * scale
        if wanted != spans or origin[1] > 10.0 * budget:
            known, mask = _carried(level_0, kept, spans, wanted)
            spans = wanted
            truncation = sum(span[2] for span in spans)
            grids = [_f_grid(d, span, 0) for d, span in zip(dfs, spans)]
            floor, kept = (0.0, None) if k == 1 else _skip_floor([w for _, w in grids], budget)
            levels, changes, shrinks = [0] * k, [math.inf] * k, [0.0] * k
            value, skipped, level_0 = yield grids, floor, known, mask
            origin = value, skipped
        if scale > PROB_FLOOR and value < 0.5 * scale:
            scale = max(value, PROB_FLOOR)
            continue
        tolerance = max(rtol * value, PROB_FLOOR)
        axis = next((i for i in range(k) if not changes[i] <= 0.5 * tolerance / k), None)
        if axis is None:
            break
        # refining cannot help a kernel that is not finite, nor, once the
        # value is known to 10%, a tolerance below the mass beyond the cap,
        # nor an axis whose change, shrinking per halving as it last did,
        # misses its share after the halvings left (at once with none left),
        # unless the rule is patient
        slow = 0.0 if patient and levels[axis] < RULE_LEVELS else (
            changes[axis] * shrinks[axis] ** (RULE_LEVELS - levels[axis]))
        if math.isnan(value) or (truncation > tolerance and max(changes) <= 0.1 * value) or (
            slow > 0.5 * tolerance / k
        ):
            break
        previous = value
        finer = _f_grid(dfs[axis], spans[axis], levels[axis] + 1)
        odd = (finer[0][1::2], finer[1][1::2])
        if k == 2 and axis == 1 and levels == [1, 0]:
            side, side_skipped, _ = yield [_f_grid(dfs[0], spans[0], 0), odd], \
                math.ldexp(floor, -1), None, None
            across = 0.5 * origin[0] + side
            if abs(across - origin[0]) <= 0.5 * tolerance / k:
                changes[1] = abs(across - origin[0])
                value += across - origin[0]
                skipped += (0.5 * origin[1] + side_skipped) + origin[1]
                break
            corner, corner_skipped, _ = yield [(grids[0][0][1::2], grids[0][1][1::2]), odd], \
                math.ldexp(floor, -2), None, None
            # at b's level 1 the c-odd nodes at b's level-0 nodes weigh half
            value = 0.5 * (previous + side) + corner
            skipped = 0.5 * (skipped + side_skipped) + corner_skipped
        else:
            # halving an axis's step halves the weights of the nodes it keeps
            added = list(grids)
            added[axis] = odd
            total, added_skipped, _ = yield added, math.ldexp(floor, -sum(levels) - 1), None, None
            value = 0.5 * previous + total
            skipped = 0.5 * skipped + added_skipped
        levels[axis] += 1
        grids[axis] = finer
        shrinks[axis] = min(1.0, abs(value - previous) / changes[axis])
        changes[axis] = abs(value - previous)
    error = truncation + sum(changes) + skipped
    if not error <= max(rtol * value, PROB_FLOOR):
        raise NumericError(
            "quadrature did not reach requested tolerance",
            best_estimate=value,
            error_bound=error,
        )
    return value


def _block_plan(grids, floor, mask, cut):
    """For the block of whole rows ``cut`` of a request's grid: the flat
    positions of the values to evaluate, or None for all of them, and the
    mask of the nodes the floor keeps with the products of their weights,
    or None for both where the floor is 0."""
    keep = product = None
    if floor > 0.0:
        product = reduce(np.multiply.outer, [grids[0][1][cut], *(w for _, w in grids[1:])])
        keep = product >= floor
    if mask is not None:
        return np.flatnonzero(~mask[cut] if keep is None else keep & ~mask[cut]), keep, product
    if keep is None or keep.all():
        return None, keep, product
    return np.flatnonzero(keep), keep, product


def _block_groups(requests):
    """Every request's blocks as (slot, cut, count, plan), ``count`` values
    to evaluate by their _block_plan, in groups of consecutive blocks of at
    most _RULE_ROUND values (a larger block alone), each with its size. A
    block is planned once, as its group is built, so that no group holds the
    positions of every block of a large grid."""
    group, size = [], 0
    for slot, (_, (grids, floor, _, mask)) in enumerate(requests):
        first = len(grids[0][0])
        inner = math.prod(len(nodes) for nodes, _ in grids[1:])
        rows = max(1, _RULE_BLOCK // max(1, inner))
        for start in range(0, first, rows):
            cut = slice(start, start + rows)
            plan = _block_plan(grids, floor, mask, cut)
            count = (min(first, start + rows) - start) * inner if plan[0] is None else plan[0].size
            if group and size + count > _RULE_ROUND:
                yield group, size
                group, size = [], 0
            group.append((slot, cut, count, plan))
            size += count
    if group:
        yield group, size


def _grid_sums(kernel, requests) -> list[tuple[float, float, np.ndarray | None]]:
    """Each (row, (grids, floor, known, mask)) request's weighted kernel sum,
    the weight of the nodes it skips and, for one with a mask, its grid's
    kernel values.

    A node whose weights' product is below ``floor`` is skipped: it is not
    evaluated, and counts as 0 unless ``known`` holds its value; nor is a
    node ``mask`` marks as known evaluated. A grid is cut into blocks of whole
    rows of its first axis, about _RULE_BLOCK values each, and a block's
    sum is its values times the other axes' weights, last axis first,
    times the first axis's: the same floats in the same order whatever else
    is evaluated. The kernel runs once over the values to evaluate of each
    group of _block_groups, and each block is summed from a fresh copy.
    """
    totals, skips = [0.0] * len(requests), [0.0] * len(requests)
    values = [[] for _ in requests]
    for group, size in _block_groups(requests):
        nodes = []
        for slot, cut, _, (todo, _, _) in group:
            grids = requests[slot][1][0]
            axes = np.ix_(grids[0][0][cut], *(nodes for nodes, _ in grids[1:]))
            shape = np.broadcast_shapes(*(a.shape for a in axes))
            axes = [np.broadcast_to(a, shape).ravel() for a in axes]
            nodes.append(axes if todo is None else [a[todo] for a in axes])
        rows = np.repeat([requests[slot][0] for slot, *_ in group], [b[2] for b in group])
        out = kernel(rows, *map(np.concatenate, zip(*nodes))) if size else np.empty(0)
        offset = 0
        for slot, cut, count, (todo, keep, product) in group:
            grids, _, known, _ = requests[slot][1]
            new = out[offset:offset + count]
            offset += count
            shape = (len(grids[0][0][cut]), *(len(nodes) for nodes, _ in grids[1:]))
            if todo is None:
                block = new.reshape(shape).copy()
            else:
                block = np.zeros(shape) if known is None else known[cut].copy()
                block.reshape(-1)[todo] = new
                if known is not None:
                    values[slot].append(block)
            if keep is not None:
                skips[slot] += float(np.sum(product, where=~keep))
            for _, weights in reversed(grids[1:]):
                block = block @ weights
            totals[slot] += float(block @ grids[0][1][cut])
    return [(total, skipped, np.concatenate(held) if held else None)
            for total, skipped, held in zip(totals, skips, values)]


def _f_expectations(kernel, dfs, rtol=RULE_RTOL, patient=False
                    ) -> tuple[np.ndarray, dict[int, DistnullError]]:
    """f_expectation for many rows at once: row i's expectation is over the
    F laws ``dfs[i]``, of ``kernel(rows, *nodes)``, which gives the kernel
    values of the rows ``rows`` at the nodes ``nodes``, flat and alike.

    The rows run the rule in lockstep: each round gathers the grids every
    open row needs, evaluates the kernel over them together, and advances
    each row. Rows join while a round holds under _RULE_ROUND values, so a
    round's values stay bounded. Returns the values, NaN where the rule
    raises, and the error of each such row. The values are certified to
    ``rtol`` relative, as f_expectation's are to RULE_RTOL; a row over two
    or more F laws skips the nodes of negligible weight and counts their
    weight in its error bound (_rule).

    A kernel may change over a width far below the coarsest step, as the
    noncentral t's does in V where theta is large beside sqrt(nu): until the
    step resolves that width, its change shrinks per halving only as a step
    function's does. A ``patient`` rule spends every one of RULE_LEVELS
    halvings on an axis before it gives up on it.
    """
    values = np.full(len(dfs), np.nan)
    faults: dict[int, DistnullError] = {}
    active: dict[int, tuple] = {}

    def advance(row, rule, reply):
        try:
            active[row] = rule, rule.send(reply)
        except StopIteration as stop:
            values[row] = stop.value
            active.pop(row, None)
        except DistnullError as exc:
            faults[row] = exc
            active.pop(row, None)

    joined = 0
    while True:
        size = sum(math.prod(len(nodes) for nodes, _ in grids)
                   for _, (grids, *_) in active.values())
        while joined < len(dfs) and size < _RULE_ROUND:
            advance(joined, _rule(dfs[joined], rtol, patient), None)
            if joined in active:
                size += math.prod(len(nodes) for nodes, _ in active[joined][1][0])
            joined += 1
        if not active:
            return values, faults
        rows = list(active.items())
        sums = _grid_sums(kernel, [(row, request) for row, (_, request) in rows])
        for (row, (rule, _)), reply in zip(rows, sums):
            advance(row, rule, reply)


class _Faults(Mapping):
    """Each ``faulty`` row's error, built when it is read: what ``check``
    raises on the row's element of each column, as a Python scalar. A column
    broadcasts against ``faulty``, so a float stands for every row, and a
    0-d ``faulty``, as a scalar call passes, has the one row 0."""

    def __init__(self, faulty, check, *columns):
        self.faulty, self.check, self.columns = np.asarray(faulty, dtype=bool), check, columns

    def __contains__(self, row) -> bool:
        return 0 <= row < self.faulty.size and bool(self.faulty.flat[row])

    def __getitem__(self, row: int) -> DistnullError:
        if row not in self:
            raise KeyError(row)
        cells = [np.broadcast_to(c, self.faulty.shape).flat[row].item() for c in self.columns]
        try:
            self.check(*cells)
        except DistnullError as exc:
            return exc
        raise AssertionError(f"row {row} is marked faulty but passes its check")

    def __iter__(self) -> Iterator[int]:
        return iter(np.flatnonzero(self.faulty).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.faulty))


def _checked(column):
    """The values of a kernel that returns (values, faults), or the fault of
    its first faulty row raised."""
    values, faults = column
    if faults:
        raise faults[min(faults)]
    return values


def f_expectation(kernel: Callable[..., np.ndarray], *dfs: tuple[float, float]) -> float:
    """E[kernel(b_1, ..., b_k)] for independent b_i ~ F(d1_i, d2_i); dfs holds the (d1_i, d2_i),
    and d2_i = inf is the law of V/d1_i, V ~ chi-square(d1_i).

    ``kernel`` takes one broadcastable node array per axis and returns
    values in [0, 1]. The rule is the trapezoid rule in z_i = log(b_i)/sigma_i
    (Trefethen & Weideman 2014), which converges geometrically because the
    F law is smooth and log-concave in log b. Each z-range is cut where the
    weight mass left outside, which bounds the dropped terms because the
    kernel is at most 1, is below RULE_RTOL/64 of the value. Then one axis
    at a time has its step halved, reusing the nodes it had, until the
    change in the value is below that axis's share of RULE_RTOL/2 of the
    value. Over two or more axes the rule skips the nodes whose weights'
    product is negligible, about a hundredth of the tolerance's weight a
    grid at most, and over two it certifies a value at both axes' first
    halvings without the nodes odd on both (_rule); the error bound adds
    the weight it skips. The result is certified to RULE_RTOL relative (absolute below
    PROB_FLOOR). NumericError, with the best estimate and its error bound,
    is raised when an axis would need more than RULE_LEVELS halvings (as
    soon as its change, shrinking per halving as it last did, would still
    miss its share there), or when the F mass outside the nodes, with the
    weight skipped, exceeds the value's tolerance: the mass beyond
    |log b| = 354, below 1e-76 and, for d2 >= 5, below 1e-300, plus for
    every (d1, d2) the mass where the weights underflow, up to about
    1e-320 per axis, so a value near 0 can fail at any d2. This is one row
    of _f_expectations.
    """
    return float(_checked(_f_expectations(lambda rows, *nodes: kernel(*nodes), [dfs]))[0])


def integrate(f: Callable[[float], float], lower: float, upper: float) -> float:
    """Adaptive quadrature of ``f`` over [lower, upper]; upper may be inf.
    No command calls it; the tests use it as a reference, and perfbench's
    span table wraps it.

    Semi-infinite ranges are mapped onto [0, 1) through x = lower + u/(1-u)
    before subdividing. Raises NumericError (carrying the best estimate and
    its error bound) when the requested tolerance cannot be certified
    within the subdivision budget.
    """
    lower = float(lower)
    upper = float(upper)
    if math.isnan(lower) or math.isnan(upper):
        raise DomainError("integration limits must not be NaN")
    if math.isinf(lower):
        raise DomainError("lower integration limit must be finite")
    if upper <= lower:
        if upper == lower:
            return 0.0
        raise DomainError("upper integration limit must be >= lower")

    if math.isinf(upper):

        def transformed(u: float) -> float:
            w = 1.0 - u
            if w <= 0.0:
                return 0.0
            return f(lower + u / w) / (w * w)

        return _adaptive(transformed, 0.0, 1.0)

    return _adaptive(f, lower, upper)


def _adaptive(f: Callable[[float], float], a: float, b: float) -> float:
    # Imported on first use: scipy.integrate adds about a quarter second to
    # every start, and no command integrates.
    from scipy.integrate import quad

    result = quad(
        f, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT,
        full_output=True,
    )
    value, abserr = float(result[0]), float(result[1])
    converged = len(result) == 3
    if not converged:
        # Budget exhausted or roundoff-limited: accept only if the
        # reported bound still certifies the requested tolerance.
        tolerance = max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(value))
        if not (abserr <= tolerance):
            raise NumericError(
                "quadrature did not reach requested tolerance",
                best_estimate=value,
                error_bound=abserr,
            )
    return value


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _two_sum(a, b):
    """a + b as an unevaluated pair (sum, rounding error), exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """a * b as an unevaluated pair (product, rounding error), exactly (Dekker)."""
    p = a * b
    c, d = _SPLIT * a, _SPLIT * b
    ah, bh = c - (c - a), d - (d - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(x, y):
    """Product of two double-double pairs, to about 2**-104 relative."""
    p, e = _two_prod(x[0], y[0])
    e = e + (x[0] * y[1] + x[1] * y[0])
    s = p + e
    return s, e - (s - p)


def _quintic_residual(z, m_sq, shift, shift_one):
    """z²(z+1)³ − τ²(1+3z/2)² over 2^(2e+4j), in double-double, and the
    leading part of its second term.

    With τ = m·2^e, j = max(e, 0) // 3, shift = j − e and shift_one = −2j,
    the terms over 2^(2e+4j) are Z²W³ and m²V² for Z = z·2^shift, and
    W = (z+1)·2^shift_one and V = (1+3z/2)·2^shift_one. Near the root all
    four factors are within a few units of 1: no term over- or underflows.
    """
    zs, zc, one = np.ldexp(z, shift), np.ldexp(z, shift_one), np.ldexp(1.0, shift_one)
    w = _two_sum(zc, one)
    v_hi, v_err = _two_sum(w[0], 0.5 * zc)
    v = (v_hi, v_err + w[1])
    first = _dd_mul(_two_prod(zs, zs), _dd_mul(_dd_mul(w, w), w))
    second = _dd_mul(m_sq, _dd_mul(v, v))
    s, e = _two_sum(first[0], -second[0])
    return s + (e + (first[1] - second[1])), second[0]


def _solve_stationary(tau):
    """The root of z(z+1)^(3/2) = τ(1 + 3z/2) at finite τ > 0, and whether it
    is certified; for a float or a column alike.

    h(z) = z(z+1)^(3/2)/(1 + 3z/2) increases and is convex, so the root is
    unique and Newton's method on h − τ falls to it from any start above it:
    min(τ, 2^k), 2^k >= (1.5τ)^(2/3), as h(τ) >= τ and h(z) >= (2/3)z^(3/2).
    Six steps reach the rounding noise of h (five suffice in every binade).
    One more step with the quintic's residual in double-double polishes the
    root, which is certified when that residual is negative one float below
    it and positive one float above. Every operation is exact or correctly
    rounded, so a column and a float give the same bits.
    """
    mantissa, e = np.frexp(tau)
    z = np.minimum(tau, np.ldexp(1.0, (2 * e) // 3 + 2))

    def log_slope(z):  # z·h'(z)/h(z)
        return 1.0 + 0.75 * (z / (1.0 + z)) * (z / (1.0 + 1.5 * z))

    for _ in range(6):
        w = 1.0 + z
        ratio = (tau / z) * ((1.0 + 1.5 * z) / w) / np.sqrt(w)  # τ/h(z)
        z = z - z * (1.0 - ratio) / log_slope(z)
    j = np.maximum(e, 0) // 3
    scaled = (_two_prod(mantissa, mantissa), j - e, -2 * j)
    residual, second = _quintic_residual(z, *scaled)
    # residual/second = (h/τ)² − 1, about twice Newton's step in log z
    z = z - z * (residual / (2.0 * second)) / log_slope(z)
    below = _quintic_residual(np.nextafter(z, 0.0), *scaled)[0]
    above = _quintic_residual(np.nextafter(z, np.inf), *scaled)[0]
    return z, (below < 0.0) & (above > 0.0)


def _stationary_roots(tau) -> np.ndarray:
    """find_positive_root's root over a column of τ; NaN where τ is not finite
    and > 0, or the root is not certified."""
    tau = np.asarray(tau, dtype=float)
    valid = _positive(tau)
    z, certified = _solve_stationary(np.where(valid, tau, 1.0))
    return np.where(valid & certified, z, np.nan)


def find_positive_root(tau: float) -> float:
    """The positive root z_max <= τ of b_max's quintic z²(z+1)³ = τ²(1 + 3z/2)²,
    within one ulp, at a finite τ > 0."""
    z, certified = _solve_stationary(_check_df(tau, "tau"))
    if not certified:
        raise NumericError("b_max's root was not certified", best_estimate=float(z))
    return float(z)
