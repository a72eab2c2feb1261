"""Distribution kernels and numerical utilities.

Student t CDF/quantile/density, noncentral t CDF, the certified fixed-node
rule for expectations over F-distributed ratios, adaptive quadrature (the
noncentral t fallback), and the bracketed polynomial root finder.
Everything downstream builds on these surfaces, so their domains are
checked strictly here.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import cache, lru_cache

import numpy as np

from .errors import (
    DegenerateVarianceError,
    DomainError,
    NumericError,
    PreconditionError,
)

__all__ = [
    "PROB_FLOOR",
    "clamp_probability",
    "t_cdf",
    "t_density",
    "t_quantile",
    "noncentral_t_cdf",
    "f_expectation",
    "integrate",
    "find_positive_root",
]


@cache
def _special():
    """scipy.special, imported on first use: estimate and simulate never need it."""
    from scipy import special

    return special


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


def _check_df(nu: float, name: str = "nu") -> float:
    nu = float(nu)
    if not (math.isfinite(nu) and nu > 0):
        raise DomainError(f"{name} must be finite and > 0, got {nu!r}")
    return nu


def _check_alpha(alpha: float, name: str = "alpha", upper: float = 1.0) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < upper):
        raise DomainError(f"{name} must lie in (0, {upper:g}), got {alpha!r}")
    return alpha


def _check_b_hat(b_hat: float) -> float:
    b_hat = float(b_hat)
    if not (math.isfinite(b_hat) and b_hat > 0.0):
        raise DegenerateVarianceError(
            f"b_hat must be finite and > 0, got {b_hat!r}; the distributional "
            "forms are undefined at zero between-experiment variance (use the "
            "point form)"
        )
    return b_hat


def _check_nu0(nu0: float) -> float:
    nu0 = float(nu0)
    if not (math.isfinite(nu0) and nu0 >= 1.0):
        raise DomainError(f"nu0 must be finite and >= 1, got {nu0!r}")
    return nu0


def _check_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def t_cdf(x: float, nu: float) -> float:
    """Student t CDF with ``nu`` degrees of freedom at ``x``."""
    x = _check_finite(x, "x")
    nu = _check_df(nu)
    return float(_special().stdtr(nu, x))


def t_density(x: float, nu: float) -> float:
    """Student t density with ``nu`` degrees of freedom at ``x``."""
    x = _check_finite(x, "x")
    nu = _check_df(nu)
    log_pdf = (
        _special().gammaln((nu + 1.0) / 2.0)
        - _special().gammaln(nu / 2.0)
        - 0.5 * math.log(nu * math.pi)
        - ((nu + 1.0) / 2.0) * math.log1p(x * x / nu)
    )
    return float(math.exp(log_pdf))


def t_quantile(p: float, nu: float) -> float:
    """Inverse Student t CDF: the x with t_cdf(x, nu) = p, for 0 < p < 1."""
    p = float(p)
    nu = _check_df(nu)
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile level must lie strictly in (0, 1), got {p!r}")
    return float(_special().stdtrit(nu, p))


@lru_cache(maxsize=4096)
def _critical(alpha: float, df: float) -> float:
    """Two-sided critical value T⁻¹_df(1 − alpha/2) of a level-alpha t test."""
    return t_quantile(1.0 - alpha / 2.0, df)


def _critical_values(alpha: float, df) -> np.ndarray:
    """_critical over an array of df, one lookup per distinct df."""
    distinct, inverse = np.unique(df, return_inverse=True)
    return np.array([_critical(alpha, d) for d in distinct.tolist()])[inverse]


def _chi2_log_pdf(v: float, nu: float) -> float:
    return (
        (nu / 2.0 - 1.0) * math.log(v)
        - v / 2.0
        - (nu / 2.0) * math.log(2.0)
        - _special().gammaln(nu / 2.0)
    )


def noncentral_t_cdf(x: float, nu: float, theta: float) -> float:
    """Noncentral t CDF with ``nu`` degrees of freedom and noncentrality ``theta``.

    Delegates to the series implementation; if that returns a non-finite
    value the scale-mixture representation

        P(T <= x) = E_V[ Phi(x * sqrt(V/nu) - theta) ],   V ~ chi-square(nu)

    is integrated numerically instead.
    """
    x = _check_finite(x, "x")
    nu = _check_df(nu)
    theta = _check_finite(theta, "theta")

    value = float(_special().nctdtr(nu, theta, x))
    if math.isfinite(value):
        return min(1.0, max(0.0, value))
    ndtr = _special().ndtr

    def mixture(v: float) -> float:
        if v <= 0.0:
            return 0.0
        return float(ndtr(x * math.sqrt(v / nu) - theta)) * math.exp(
            _chi2_log_pdf(v, nu)
        )

    try:
        value = integrate(mixture, 0.0, math.inf)
    except NumericError as exc:
        raise NumericError(
            f"noncentral t CDF failed to converge at x={x}, nu={nu}, theta={theta}",
            best_estimate=exc.best_estimate,
            error_bound=exc.error_bound,
        ) from exc
    return min(1.0, max(0.0, value))


# The fixed-node rule of f_expectation: the relative tolerance it certifies,
# the step halvings allowed per axis, its coarsest step in z = log(b)/sigma,
# the cap on |log b| that keeps b, 1/b and their squares finite, the
# number of kernel values evaluated at once (256 KiB of float64), and the
# most nodes one axis's rule may hold (32 MiB of float64).
RULE_RTOL = 1e-10
RULE_LEVELS = 10
_RULE_STEP = 0.5
_RULE_LOG_MAX = 354.0
_RULE_BLOCK = 1 << 15
_RULE_NODES = 1 << 22

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Coefficients of Stirling's series for log Gamma, in powers of 1/x^2.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_remainder(x: float) -> float:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2, free of cancellation."""
    if x < 10.0:
        return float(_special().gammaln(x)) - (x - 0.5) * math.log(x) + x - _HALF_LOG_2PI
    inv_sq = 1.0 / (x * x)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * inv_sq + c
    return acc / x


@lru_cache(maxsize=64)
def _f_rule(d1: float, d2: float, level: int):
    """Trapezoid nodes and weights for b ~ F(d1, d2) at step _RULE_STEP/2**level.

    In y = log b the F law has the log-concave density exp(log_mode -
    d1/2 * log1p((1 - s)*expm1(-y)) - d2/2 * log1p(s*expm1(y))), s = d1/(d1 +
    d2), whose mode is y = 0 and whose curvature scale there is sigma =
    sqrt(2/d1 + 2/d2); in this form no two large terms cancel. Nodes sit
    at y = sigma*z on the grid z = k*h, over the z-range where a weight can
    be represented and |y| stays under the cap; every level holds the one
    before at its even positions, and y = 0 is at index mode * 2**level.
    Returns (nodes, weights, mode, (below, above)), the last pair bounding
    the mass beyond the range's ends, which lie within one coarsest step
    of the outermost nodes, by the linear tail bounds of the log density.
    Raises NumericError where the rule cannot represent F(d1, d2): s rounds
    to 0 or 1, a bound is not finite, or the grid exceeds _RULE_NODES.
    """
    try:
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
        k_lo = math.ceil(y_lo / (sigma * _RULE_STEP))
        k_hi = math.floor(y_hi / (sigma * _RULE_STEP))
        outside = (math.exp(lower + a * y_lo) / a, math.exp(upper - c * y_hi) / c)
        size = (k_hi - k_lo) << level
    except (ValueError, OverflowError):
        size = math.inf
    if not (size < _RULE_NODES and math.isfinite(sum(outside))):
        raise NumericError(f"the quadrature rule cannot represent F({d1!r}, {d2!r})")
    h = _RULE_STEP / 2**level
    y = sigma * h * np.arange(k_lo << level, (k_hi << level) + 1)
    weights = h * sigma * np.exp(
        log_mode - a * np.log1p((1.0 - s) * np.expm1(-y)) - c * np.log1p(s * np.expm1(y))
    )
    return np.exp(y), weights, -k_lo, outside


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


def _weighted_sum(kernel, grids) -> float:
    """Sum of kernel values times weights over the tensor grid, in row blocks."""
    (first, first_weights), *rest = grids
    rows = max(1, _RULE_BLOCK // max(1, math.prod(len(nodes) for nodes, _ in rest)))
    total = 0.0
    for start in range(0, len(first), rows):
        block = slice(start, start + rows)
        values = kernel(*np.ix_(first[block], *(nodes for nodes, _ in rest)))
        for _, weights in reversed(rest):
            values = values @ weights
        total += float(values @ first_weights[block])
    return total


def f_expectation(kernel: Callable[..., np.ndarray], *dfs: tuple[float, float]) -> float:
    """E[kernel(b_1, ..., b_k)] for independent b_i ~ F(d1_i, d2_i); dfs holds the (d1_i, d2_i).

    ``kernel`` takes one broadcastable node array per axis and returns
    values in [0, 1]. The rule is the trapezoid rule in z_i = log(b_i)/sigma_i
    (Trefethen & Weideman 2014), which converges geometrically because the
    F law is smooth and log-concave in log b. Each z-range is cut where the
    weight mass left outside, which bounds the dropped terms because the
    kernel is at most 1, is below RULE_RTOL/64 of the value. Then one axis
    at a time has its step halved, reusing the nodes it had, until the
    change in the value is below that axis's share of RULE_RTOL/2 of the
    value. The result is certified to RULE_RTOL relative (absolute below
    PROB_FLOOR). NumericError, with the best estimate and its error bound,
    is raised when an axis would need more than RULE_LEVELS halvings (as
    soon as its change, shrinking per halving as it last did, would still
    miss its share there), or when the F mass outside the nodes exceeds
    the value's tolerance: the mass beyond |log b| = 354, below 1e-76 and,
    for d2 >= 5, below 1e-300, plus for every (d1, d2) the mass where the
    weights underflow, up to about 1e-320 per axis, so a value near 0 can
    fail at any d2.
    """
    dfs = [(_check_df(d1, "d1"), _check_df(d2, "d2")) for d1, d2 in dfs]
    k = len(dfs)
    scale, spans = 1.0, None
    while True:
        # cut the z-ranges for values near scale; start over if a cut moves
        wanted = [_f_span(d1, d2, RULE_RTOL * scale / (64 * k)) for d1, d2 in dfs]
        if wanted != spans:
            spans = wanted
            truncation = sum(span[2] for span in spans)
            grids = [_f_grid(d, span, 0) for d, span in zip(dfs, spans)]
            levels, changes, shrinks = [0] * k, [math.inf] * k, [0.0] * k
            value = _weighted_sum(kernel, grids)
        if scale > PROB_FLOOR and value < 0.5 * scale:
            scale = max(value, PROB_FLOOR)
            continue
        tolerance = max(RULE_RTOL * value, PROB_FLOOR)
        axis = next((i for i in range(k) if not changes[i] <= 0.5 * tolerance / k), None)
        if axis is None:
            break
        # refining cannot help a kernel that is not finite, nor, once the
        # value is known to 10%, a tolerance below the mass beyond the cap,
        # nor an axis whose change, shrinking per halving as it last did,
        # misses its share after the halvings left (at once with none left)
        slow = changes[axis] * shrinks[axis] ** (RULE_LEVELS - levels[axis])
        if math.isnan(value) or (truncation > tolerance and max(changes) <= 0.1 * value) or (
            slow > 0.5 * tolerance / k
        ):
            break
        levels[axis] += 1
        finer = _f_grid(dfs[axis], spans[axis], levels[axis])
        # halving an axis's step halves the weights of the nodes it keeps
        added = list(grids)
        added[axis] = (finer[0][1::2], finer[1][1::2])
        previous = value
        value = 0.5 * previous + _weighted_sum(kernel, added)
        grids[axis] = finer
        shrinks[axis] = min(1.0, abs(value - previous) / changes[axis])
        changes[axis] = abs(value - previous)
    error = truncation + sum(changes)
    if not error <= max(RULE_RTOL * value, PROB_FLOOR):
        raise NumericError(
            "quadrature did not reach requested tolerance",
            best_estimate=value,
            error_bound=error,
        )
    return value


def integrate(f: Callable[[float], float], lower: float, upper: float) -> float:
    """Adaptive quadrature of ``f`` over [lower, upper]; upper may be inf.

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
    # every start, and most commands never integrate.
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


def _horner(columns: list[np.ndarray], z: np.ndarray) -> np.ndarray:
    acc = columns[0]
    for c in columns[1:]:
        acc = acc * z + c
    return acc


@np.errstate(all="ignore")  # Horner may overflow far from a root, as it does row by row
def _positive_roots(coeffs, hints) -> tuple[np.ndarray, np.ndarray]:
    """Each row's positive root as find_positive_root finds it, and its bracket's low end.

    ``coeffs`` holds one row of descending coefficients per polynomial and
    ``hints`` a bracket hint each, rows that pass find_positive_root's
    checks. All rows are bracketed and bisected at once with the arithmetic
    of one row alone, so each root keeps its bits. A root is NaN where the
    bracket outgrew 1e9 first.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    rows, width = coeffs.shape
    # Trailing zero coefficients only contribute roots at z = 0, so shift
    # them out; the leading zeros this leaves add exactly 0 under Horner.
    trailing = np.argmax(coeffs[:, ::-1] != 0.0, axis=1)
    shift = np.arange(width) - trailing[:, None]
    poly = np.where(shift >= 0, np.take_along_axis(coeffs, np.maximum(shift, 0), axis=1), 0.0)
    columns = list(poly.T)

    lo, f_lo = np.zeros(rows), columns[-1]
    hi = np.asarray(hints, dtype=float)
    f_hi = _horner(columns, hi)
    grow = ((f_hi > 0.0) == (f_lo > 0.0)) & (f_hi != 0.0)
    failed = np.zeros(rows, dtype=bool)
    while grow.any():
        lo, f_lo = np.where(grow, hi, lo), np.where(grow, f_hi, f_lo)
        hi = np.where(grow, 2.0 * hi, hi)
        failed |= grow & (hi > 1e9)
        grow &= ~failed
        f_hi = np.where(grow, _horner(columns, hi), f_hi)
        grow &= ((f_hi > 0.0) == (f_lo > 0.0)) & (f_hi != 0.0)

    # Bisection keeps the sign of f at lo, so only that sign is tracked; a
    # row's root is the midpoint at which it first stops.
    positive_at_lo, bracketed = f_lo > 0.0, lo
    roots = np.where(~failed & (f_hi == 0.0), hi, np.nan)
    pending = ~failed & (f_hi != 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _horner(columns, mid)
        stop = pending & ((hi - lo <= 1e-15 * hi) | (f_mid == 0.0))
        roots = np.where(stop, mid, roots)
        pending &= ~stop
        if not pending.any():
            break
        right = (f_mid > 0.0) == positive_at_lo
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return np.where(pending, 0.5 * (lo + hi), roots), bracketed


def find_positive_root(coeffs: Sequence[float], bracket_hint: float) -> float:
    """Unique positive root of the polynomial with descending ``coeffs``.

    Requires exactly one sign change in the nonzero coefficient sequence,
    which (Descartes) guarantees exactly one positive root. The bracket is
    grown geometrically from ``bracket_hint`` and the root isolated by
    bisection to relative width 1e-15.
    """
    coeffs = [float(c) for c in coeffs]
    if not coeffs or any(not math.isfinite(c) for c in coeffs):
        raise DomainError("coefficients must be a nonempty finite sequence")
    signs = [c > 0.0 for c in coeffs if c != 0.0]
    if len(signs) < 2:
        raise PreconditionError("polynomial is constant after stripping zeros")
    changes = sum(1 for prev, cur in zip(signs, signs[1:]) if prev != cur)
    if changes != 1:
        raise PreconditionError(
            f"expected exactly one coefficient sign change, found {changes}"
        )
    hint = float(bracket_hint)
    if not (math.isfinite(hint) and hint > 0):
        raise DomainError(f"bracket_hint must be finite and > 0, got {hint!r}")
    root, bracketed = (float(c[0]) for c in _positive_roots([coeffs], [hint]))
    if math.isnan(root):
        raise NumericError("failed to bracket the positive root", best_estimate=bracketed)
    return root
