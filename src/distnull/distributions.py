"""Distribution kernels and numerical utilities.

Student t CDF/quantile/density, noncentral t CDF, the F density used as a
mixture weight, adaptive quadrature (finite and semi-infinite), and the
bracketed polynomial root finder. Everything downstream builds on these
surfaces, so their domains are checked strictly here.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import lru_cache

from scipy import special as _sp

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
    "f_density",
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
    return float(_sp.stdtr(nu, x))


def t_density(x: float, nu: float) -> float:
    """Student t density with ``nu`` degrees of freedom at ``x``."""
    x = _check_finite(x, "x")
    nu = _check_df(nu)
    log_pdf = (
        _sp.gammaln((nu + 1.0) / 2.0)
        - _sp.gammaln(nu / 2.0)
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
    return float(_sp.stdtrit(nu, p))


@lru_cache(maxsize=4096)
def _critical(alpha: float, df: float) -> float:
    """Two-sided critical value T⁻¹_df(1 − alpha/2) of a level-alpha t test."""
    return t_quantile(1.0 - alpha / 2.0, df)


def _chi2_log_pdf(v: float, nu: float) -> float:
    return (
        (nu / 2.0 - 1.0) * math.log(v)
        - v / 2.0
        - (nu / 2.0) * math.log(2.0)
        - _sp.gammaln(nu / 2.0)
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

    value = float(_sp.nctdtr(nu, theta, x))
    if math.isfinite(value):
        return min(1.0, max(0.0, value))

    def mixture(v: float) -> float:
        if v <= 0.0:
            return 0.0
        return float(_sp.ndtr(x * math.sqrt(v / nu) - theta)) * math.exp(
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


def f_density(x: float, d1: float, d2: float) -> float:
    """F distribution density with (``d1``, ``d2``) degrees of freedom at ``x >= 0``.

    Evaluated in log space so extreme df pairs neither overflow nor
    underflow prematurely; this sits in quadrature hot loops, hence the
    direct formula rather than a distribution object.
    """
    x = float(x)
    d1 = _check_df(d1, "d1")
    d2 = _check_df(d2, "d2")
    if not (x >= 0.0) or math.isinf(x):
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    if x == 0.0:
        if d1 > 2.0:
            return 0.0
        if d1 == 2.0:
            return 1.0
        return math.inf
    log_pdf = (
        (d1 / 2.0) * math.log(d1 / d2)
        + (d1 / 2.0 - 1.0) * math.log(x)
        - ((d1 + d2) / 2.0) * math.log1p(d1 * x / d2)
        - _sp.betaln(d1 / 2.0, d2 / 2.0)
    )
    return float(math.exp(log_pdf))


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


def _polynomial(coeffs: Sequence[float], z: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * z + c
    return acc


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
    while coeffs and coeffs[0] == 0.0:
        coeffs = coeffs[1:]
    # Trailing zero coefficients only contribute roots at z = 0.
    while coeffs and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    if len(coeffs) < 2:
        raise PreconditionError("polynomial is constant after stripping zeros")

    signs = [c > 0.0 for c in coeffs if c != 0.0]
    changes = sum(1 for prev, cur in zip(signs, signs[1:]) if prev != cur)
    if changes != 1:
        raise PreconditionError(
            f"expected exactly one coefficient sign change, found {changes}"
        )

    hint = float(bracket_hint)
    if not (math.isfinite(hint) and hint > 0):
        raise DomainError(f"bracket_hint must be finite and > 0, got {hint!r}")

    lo, f_lo = 0.0, coeffs[-1]
    hi = hint
    f_hi = _polynomial(coeffs, hi)
    while (f_hi > 0.0) == (f_lo > 0.0) and f_hi != 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi > 1e9:
            raise NumericError(
                "failed to bracket the positive root", best_estimate=lo
            )
        f_hi = _polynomial(coeffs, hi)
    if f_hi == 0.0:
        return hi

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * hi:
            break
        f_mid = _polynomial(coeffs, mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
