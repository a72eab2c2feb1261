"""Monte Carlo engine for the hierarchical model.

Simulates mu_i ~ N(mu0, sigma0^2), X_ij ~ N(mu_i, sigma^2) for the
``simulate`` command, and builds the predictor-target pair table and its
forecast bins for ``calibrate``. Everything is deterministic given a seed:
each task draws from its own counter-derived substream, so results do not
depend on execution order. The paper's simulation studies built on it
(type-1 rates, replication calibration on a multi-lab ladder, misscaled-b
sensitivity and estimator bias) live beside the tests that run them, in
``tests/studies.py``.
"""

from __future__ import annotations

import numbers
from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import Literal, Sequence

import numpy as np

from .distributions import _check_at_least, _check_df, _check_finite, _Faults
from .errors import DomainError, _raise_first
from .estimators import (
    BetweenVariance,
    SiteTable,
    TaskSet,
    VarianceMode,
    _between_variance,
)
from .adapters import _statistic_faults
from .significance import _p_sig_column
from .replication import _p_rep_column

__all__ = [
    "SimConfig",
    "CalibrationBin",
    "DESK_ALPHA_LEVELS",
    "MIN_BIN_PAIRS",
    "simulate_raw_task",
    "task_pair_records",
    "bin_pairs",
    "calibration_gap",
    "gap_direction",
]

DESK_ALPHA_LEVELS = (0.1, 0.05, 0.01, 0.005, 0.001)
# Forecasts are binned at width 1/_BINS; bins with fewer than
# MIN_BIN_PAIRS pairs are reported but left out of calibration summaries.
_BINS = 40
MIN_BIN_PAIRS = 40

ForecastVariant = Literal["closed", "integral"]

# One ordered predictor-target site pair at one alpha level.
PAIR_DTYPE = np.dtype([
    ("predictor", np.intp),
    ("target", np.intp),
    ("alpha", float),
    ("forecast", float),
    ("predictor_significant", bool),
    ("success", bool),
])


def _typed(value, kind: type) -> bool:
    """Whether a config value is of ``kind``; a bool, which passes as 0 or 1, is not."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Generative parameters for simulated tasks.

    One task = k_experiments experiments of n_per_experiment measurements
    each, sharing the effect distribution N(mu0, sigma0^2).
    """

    mu0: float = 0.0
    sigma0: float = 0.25
    sigma: float = 1.0
    n_per_experiment: int = 190
    k_experiments: int = 25
    n_tasks: int = 16
    seed: int = 20250801

    def __post_init__(self) -> None:
        for name in ("mu0", "sigma0", "sigma"):
            value = getattr(self, name)
            if not _typed(value, numbers.Real):
                raise DomainError(f"{name} must be a number, got {value!r}")
        _check_finite(self.mu0, "mu0")
        _check_at_least(self.sigma0, 0.0, "sigma0")
        _check_df(self.sigma, "sigma")
        for name, least in (("n_per_experiment", 2), ("k_experiments", 2), ("n_tasks", 1)):
            value = getattr(self, name)
            if not (_typed(value, numbers.Integral) and value >= least):
                raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
        if not (_typed(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class CalibrationBin:
    """One forecast bin, [lower, upper) of width 1/40, for one
    predictor-significance group; the last bin also holds forecasts of 1."""

    lower: float
    upper: float
    pair_count: int
    mean_forecast: float
    observed_rate: float
    predictor_significant: bool

    @property
    def gap(self) -> float:
        """observed_rate − mean_forecast."""
        return self.observed_rate - self.mean_forecast


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


@np.errstate(over="ignore", invalid="ignore")  # a draw that overflows is left non-finite
def simulate_raw_task(config: SimConfig, stream: int) -> np.ndarray:
    """Raw draws of one task: array of shape (K, N), row per experiment."""
    rng = _stream_rng(config.seed, stream)
    mus = config.mu0 + config.sigma0 * rng.standard_normal(config.k_experiments)
    draws = rng.standard_normal((config.k_experiments, config.n_per_experiment))
    draws *= config.sigma
    draws += mus[:, None]
    return draws


def _fit(
    table: SiteTable, mode: VarianceMode, scale_e: float = 1.0
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ChainMap]:
    """Each task's between-variance S0^2 scaled by ``scale_e``, each site's
    b-hat and nu0 from it, and the error of each faulty task: its fit's,
    else its scaled fit's overflow, else its first site's statistic error."""
    (s0_sq, nu0, grand_mean), fit_faults = _between_variance(table, mode)
    with np.errstate(over="ignore", divide="ignore"):  # faulty cells are reported below
        scaled = scale_e * s0_sq
        b_hat = scaled[table.task_of] / table.variance
    overflow = _Faults(np.isfinite(s0_sq) & ~np.isfinite(scaled),
                       partial(BetweenVariance, mode=mode), scaled, nu0, grand_mean)
    faults = ChainMap({}, fit_faults, overflow)
    _first_of_task(faults, table.task_of, _statistic_faults(table))
    return (scaled, b_hat, nu0[table.task_of]), faults


def _first_of_task(faults: ChainMap, task_of: np.ndarray, row_faults: Mapping) -> None:
    """Add to ``faults``, by task, the first of ``row_faults`` (by row) in
    each task that has no fault yet; ``task_of`` maps a row to its task."""
    for i in sorted(row_faults):
        if task_of[i] not in faults:
            faults[int(task_of[i])] = row_faults[i]


def _pairs(table: SiteTable) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered (predictor, target) pair of distinct sites of one task,
    as row indices, task by task and row-major within a task."""
    sizes = table.k * (table.k - 1)
    task = np.repeat(np.arange(sizes.size), sizes)
    local = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    i, j = np.divmod(local, table.k[task] - 1)
    return table.offsets[task] + i, table.offsets[task] + j + (j >= i)


def task_pair_records(
    tasks: TaskSet | SiteTable,
    alphas: Sequence[float],
    mode: VarianceMode = "as_published",
    scale_e: float = 1.0,
    variant: ForecastVariant = "closed",
) -> np.ndarray:
    """Ordered predictor-target pair forecasts and outcomes, task by task.

    ``tasks`` is one TaskSet, or a SiteTable whose tasks have >= 2 sites
    each. Returns one row of ``PAIR_DTYPE`` per (task, alpha, predictor,
    target) with target != predictor in the same task, in that order;
    predictor and target index the table's rows (a TaskSet's experiments).
    The between-variance estimate (scaled by ``scale_e``) drives the whole
    analysis: the predictor's forecast, the predictor-significance split,
    and the target's observed significance. The forecast uses the
    predictor's S² and N plus the target's N as N_r; the target's own
    variance is never consulted for the forecast. Success means the target
    reaches significance at the same alpha with matching sign. A task whose
    S0² estimate is zero has no b-hat and raises DegenerateVarianceError.
    A task's error is the first it meets: its fit's, then its sites'
    significance in site order, then each alpha's forecasts in pair order;
    the first faulty task raises its error, prefixed with its task.
    """
    _check_df(scale_e, "scale_e")
    if variant not in ("closed", "integral"):
        raise DomainError(f"unknown forecast variant {variant!r}")
    table = tasks if isinstance(tasks, SiteTable) else SiteTable.from_tasks([tasks])
    (_, b_hats, nu0), faults = _fit(table, mode, scale_e)
    t, n, df = table.t, table.n, table.df
    p_sigs, sig_faults = _p_sig_column(variant, t, n, df, b_hats, nu0)
    _first_of_task(faults, table.task_of, sig_faults)
    if faults:  # the forecasts of the first faulty task and later ones cannot come first
        b_hats = np.where(table.task_of >= min(faults), np.nan, b_hats)

    predictor, target = _pairs(table)
    # A forecast depends on the target only through its (N_r, df_r), so it
    # is computed once per distinct (predictor, N_r, df_r), in pair order.
    design = np.unique(np.column_stack([n, df]), axis=0, return_inverse=True)[1].reshape(-1)
    keys = predictor * len(table) + design[target]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    i, j = predictor[first[order]], target[first[order]]
    same_sign = (t < 0)[predictor] == (t < 0)[target]
    records = np.empty((len(alphas), predictor.size), dtype=PAIR_DTYPE)
    for rows, alpha in zip(records, alphas):
        values, rep_faults = _p_rep_column(variant, t[i], n[i], df[i], b_hats[i], nu0[i], alpha,
                                           n[j], df[j])
        _first_of_task(faults, table.task_of[i], rep_faults)
        forecasts = np.empty(first.size)
        forecasts[order] = values
        significant = p_sigs <= alpha
        rows["predictor"] = predictor
        rows["target"] = target
        rows["alpha"] = alpha
        rows["forecast"] = forecasts[inverse]
        rows["predictor_significant"] = significant[predictor]
        rows["success"] = significant[target] & same_sign
    _raise_first(faults, lambda j: f"task {table.task_ids[j]!r}")
    # each task's alphas in turn
    pair_task = np.tile(table.task_of[predictor], len(alphas))
    return records.reshape(-1)[np.argsort(pair_task, kind="stable")]


def bin_pairs(records: np.ndarray) -> list[CalibrationBin]:
    """Group a pair table into forecast bins of width 1/40 per
    predictor-significance group, in group then forecast order; a bin
    without pairs is left out.

    Each bin's forecasts are summed in record order.
    """
    width = 1.0 / _BINS
    forecast = records["forecast"]
    index = np.minimum((forecast / width).astype(np.int64), _BINS - 1)
    key = records["predictor_significant"] * _BINS + index
    counts = np.bincount(key)
    sums = np.bincount(key, weights=forecast)
    successes = np.bincount(key, weights=records["success"])
    bins = []
    for k in np.flatnonzero(counts):
        sig, index = divmod(int(k), _BINS)
        bins.append(
            CalibrationBin(
                lower=index * width,
                upper=(index + 1) * width,
                pair_count=int(counts[k]),
                mean_forecast=float(sums[k] / counts[k]),
                observed_rate=float(successes[k] / counts[k]),
                predictor_significant=bool(sig),
            )
        )
    return bins


def calibration_gap(bins: Sequence[CalibrationBin]) -> float | None:
    """Pair-weighted mean gap over bins with >= MIN_BIN_PAIRS pairs.

    Positive means forecasts underestimated replication; None when no bin
    has enough pairs.
    """
    included = [b for b in bins if b.pair_count >= MIN_BIN_PAIRS]
    if not included:
        return None
    weight = sum(b.pair_count for b in included)
    return sum(b.pair_count * b.gap for b in included) / weight


def gap_direction(gap: float) -> str:
    """Direction named by the sign of a mean calibration gap."""
    if gap > 0:
        return "underestimation"
    if gap < 0:
        return "overestimation"
    return "balanced"
