"""Monte Carlo engine for the hierarchical model.

Simulates mu_i ~ N(mu0, sigma0^2), X_ij ~ N(mu_i, sigma^2) and drives the
real library functions over the simulated data, producing calibration
evidence: type-1 rates, predictor-target replication calibration, the
sensitivity of calibration to a scaled between-variance estimate, and
estimator bias audits. Everything is deterministic given a seed: each
task draws from its own counter-derived substream, so results do not
depend on execution order. The simulated tasks are summarized into one
SiteTable, which every study reads by column, as the commands do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Literal, Sequence

import numpy as np

from .distributions import _check_alpha, _checked, _faults
from .errors import DistnullError, DomainError, _raise_first
from .estimators import (
    BetweenVariance,
    ExperimentSummary,
    SiteTable,
    TaskSet,
    VarianceMode,
    _between_variance,
)
from .adapters import statistic_from_summary
from .significance import _p_point, _p_sig_closed, _p_sig_column, _p_sig_given_b
from .replication import _p_rep_column

__all__ = [
    "SimConfig",
    "CalibrationBin",
    "Type1Row",
    "ScaleCalibration",
    "BiasRow",
    "DESK_ALPHA_LEVELS",
    "MIN_BIN_PAIRS",
    "desk_tasks",
    "sensitivity_tasks",
    "simulate_raw_task",
    "simulate_task",
    "simulate_tasks",
    "type1_calibration",
    "task_pair_records",
    "bin_pairs",
    "replication_calibration",
    "calibration_correlation",
    "calibration_gap",
    "gap_direction",
    "sensitivity_sweep",
    "estimator_bias",
]

DESK_ALPHA_LEVELS = (0.1, 0.05, 0.01, 0.005, 0.001)
# Bins with fewer pairs are reported but left out of calibration summaries.
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


@dataclass(frozen=True)
class SimConfig:
    """Generative parameters for simulated tasks.

    One task = k_experiments experiments of n_per_experiment measurements
    each, sharing the effect distribution N(mu0, sigma0^2).
    ``variance_scale_e`` multiplies the estimated between-experiment
    variance in downstream analysis (it does not change the data).
    """

    mu0: float = 0.0
    sigma0: float = 0.25
    sigma: float = 1.0
    n_per_experiment: int = 190
    k_experiments: int = 25
    n_tasks: int = 16
    alpha_levels: tuple[float, ...] = DESK_ALPHA_LEVELS
    seed: int = 20250801
    variance_scale_e: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu0):
            raise DomainError(f"mu0 must be finite, got {self.mu0!r}")
        if not (math.isfinite(self.sigma0) and self.sigma0 >= 0):
            raise DomainError(f"sigma0 must be >= 0, got {self.sigma0!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"sigma must be > 0, got {self.sigma!r}")
        if self.n_per_experiment < 2:
            raise DomainError("n_per_experiment must be >= 2")
        if self.k_experiments < 2:
            raise DomainError("k_experiments must be >= 2")
        if self.n_tasks < 1:
            raise DomainError("n_tasks must be >= 1")
        for a in self.alpha_levels:
            _check_alpha(a, "alpha level")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise DomainError("seed must be a 64-bit unsigned integer")
        if not (math.isfinite(self.variance_scale_e) and self.variance_scale_e > 0):
            raise DomainError("variance_scale_e must be > 0")

    @property
    def b_true(self) -> float:
        return (self.sigma0 / self.sigma) ** 2


@dataclass(frozen=True)
class CalibrationBin:
    """One forecast bin of width 1/40 for one predictor-significance group."""

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

    @property
    def standard_error(self) -> float:
        """Binomial standard error of the observed rate."""
        p = self.observed_rate
        return math.sqrt(p * (1.0 - p) / self.pair_count)


@dataclass(frozen=True)
class Type1Row:
    alpha: float
    variant: str
    trials: int
    rejections: int

    @property
    def rate(self) -> float:
        return self.rejections / self.trials


@dataclass(frozen=True)
class ScaleCalibration:
    """Calibration table at one variance-scale e, with directional summary.

    ``mean_gap`` is calibration_gap over the bins: positive means forecasts
    underestimated replication.
    """

    scale: float
    bins: tuple[CalibrationBin, ...]
    mean_gap: float
    bins_under: int
    bins_over: int

    @property
    def direction(self) -> str:
        return gap_direction(self.mean_gap)


@dataclass(frozen=True)
class BiasRow:
    mode: str
    mean_estimate: float
    true_sigma0_sq: float
    relative_bias: float
    reps: int


def _ladder(
    rows: Sequence[tuple[float, float, int]],
    seed: int,
    k_experiments: int,
    alpha_levels: tuple[float, ...],
) -> tuple[SimConfig, ...]:
    configs = []
    for ratio, b, n in rows:
        sigma0 = math.sqrt(b)
        configs.append(
            SimConfig(
                mu0=ratio * sigma0,
                sigma0=sigma0,
                sigma=1.0,
                n_per_experiment=n,
                k_experiments=k_experiments,
                n_tasks=1,
                alpha_levels=alpha_levels,
                seed=seed,
            )
        )
    return tuple(configs)


def desk_tasks(seed: int = 20250801) -> tuple[SimConfig, ...]:
    """Sixteen-task ladder at Many-Labs scale (K=25, mean N=190).

    Mirrors the published multi-lab pattern: a couple of null effects
    plus a majority of strongly replicating ones, between-experiment
    variance ratios in the observed low-b range, and per-task sample
    sizes jittered around 190 so forecast values do not pile onto a few
    bins. The mix puts calibration bins at both ends of the forecast
    axis with the heavy bins in the saturated regions.
    """
    rows = (
        (0.0, 0.05, 180), (0.0, 0.11, 200),
        (7.5, 0.06, 170), (8.0, 0.12, 205), (8.5, 0.07, 185),
        (9.0, 0.10, 195), (9.5, 0.04, 175), (10.0, 0.08, 210),
        (10.5, 0.13, 190), (11.0, 0.06, 180), (11.5, 0.09, 200),
        (12.0, 0.11, 175), (12.5, 0.05, 195), (13.0, 0.08, 185),
        (13.5, 0.10, 205), (14.0, 0.07, 190),
    )
    return _ladder(rows, seed, 25, DESK_ALPHA_LEVELS)


def sensitivity_tasks(seed: int = 20250801) -> tuple[SimConfig, ...]:
    """Two task families built to expose the variance-scale direction.

    Few experiments per task (K=6) make the significance cutoff swing
    strongly with the scale factor e, and near-degenerate between
    variance keeps the forecast centre comparatively sticky. The small-N
    family pins observed success at 1 under e=0.5 while its fat target
    df spreads forecasts strictly below; the moderate-N family keeps
    forecasts spread while e=1.5 pushes the cutoff past the effect and
    collapses observed success. Together the binned gaps flip sign with
    e at alpha=0.001.
    """
    small_sites = SimConfig(
        mu0=4.4, sigma0=0.02, sigma=1.0, n_per_experiment=6,
        k_experiments=6, n_tasks=120, alpha_levels=(0.001,), seed=seed,
    )
    moderate_sites = SimConfig(
        mu0=1.5, sigma0=0.02, sigma=1.0, n_per_experiment=41,
        k_experiments=6, n_tasks=120, alpha_levels=(0.001,), seed=seed,
    )
    return (small_sites, moderate_sites)


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def simulate_raw_task(config: SimConfig, stream: int) -> np.ndarray:
    """Raw draws of one task: array of shape (K, N), row per experiment."""
    rng = _stream_rng(config.seed, stream)
    mus = config.mu0 + config.sigma0 * rng.standard_normal(config.k_experiments)
    draws = rng.standard_normal((config.k_experiments, config.n_per_experiment))
    draws *= config.sigma
    draws += mus[:, None]
    return draws


def _simulated_table(config: SimConfig, streams: Sequence[int]) -> SiteTable:
    """The tasks of ``streams``, each drawn from its own stream; each task's
    (K, N) draws are reduced along axis 1, which keeps ``summarize``'s bits."""
    k, n = config.k_experiments, config.n_per_experiment
    mean, variance = np.empty((len(streams), k)), np.empty((len(streams), k))
    with np.errstate(all="ignore"):  # checked below
        for row, stream in enumerate(streams):
            draws = simulate_raw_task(config, stream)
            mean[row], variance[row] = draws.mean(axis=1), draws.var(axis=1, ddof=1)
    if not (np.isfinite(mean).all() and np.isfinite(variance).all()):
        raise DomainError("simulated summaries must be finite")
    return SiteTable(
        [f"task{stream:04d}" for stream in streams], np.arange(len(streams) + 1) * k,
        np.full(mean.size, float(n)), mean.ravel(), variance.ravel(), np.full(mean.size, n - 1.0),
    )


def simulate_task(config: SimConfig, stream: int) -> TaskSet:
    """One simulated task, summarized. Deterministic given (seed, stream)."""
    return _simulated_table(config, [stream]).task(0)


def _config_streams(
    configs: SimConfig | Sequence[SimConfig],
) -> list[tuple[SimConfig, range]]:
    """Each config with its streams: a config's n_tasks, or one run of streams per config."""
    if isinstance(configs, SimConfig):
        return [(configs, range(configs.n_tasks))]
    out, stream = [], 0
    for config in configs:
        out.append((config, range(stream, stream + config.n_tasks)))
        stream += config.n_tasks
    return out


def simulate_tasks(configs: SimConfig | Sequence[SimConfig]) -> list[TaskSet]:
    """All tasks of a config (or one task per config in a sequence)."""
    return [simulate_task(c, s) for c, streams in _config_streams(configs) for s in streams]


def _fit(
    table: SiteTable, mode: VarianceMode, scale_e: float = 1.0
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], dict[int, DistnullError]]:
    """Each task's between-variance S0^2 scaled by ``scale_e``, each site's
    b-hat and nu0 from it, and the error of each faulty task: its fit's,
    else its scaled fit's overflow, else its first site's statistic error."""
    (s0_sq, nu0, grand_mean), faults = _between_variance(table, mode)
    with np.errstate(over="ignore", divide="ignore"):  # faulty cells are reported below
        scaled = scale_e * s0_sq
        b_hat = scaled[table.task_of] / table.variance
    faults.update(_faults(np.isfinite(s0_sq) & ~np.isfinite(scaled),
                          partial(BetweenVariance, mode=mode), scaled, nu0, grand_mean))
    undefined = ~(np.isfinite(table.t) & np.isfinite(table.effect) & (table.variance > 0))
    site_faults = _faults(undefined, lambda *row: statistic_from_summary(ExperimentSummary(*row)),
                          table.n, table.mean, table.variance, table.df)
    _first_of_task(faults, table.task_of, site_faults)
    return (scaled, b_hat, nu0[table.task_of]), faults


def _first_of_task(faults: dict, task_of: np.ndarray, row_faults: dict) -> None:
    """Add to ``faults``, by task, the first of ``row_faults`` (by row) in
    each task that has no fault yet; ``task_of`` maps a row to its task."""
    for i, exc in sorted(row_faults.items()):
        faults.setdefault(int(task_of[i]), exc)


def type1_calibration(
    config: SimConfig,
    mode: VarianceMode = "as_published",
) -> list[Type1Row]:
    """Null rejection rates of the point, known-b, and estimated-b tests.

    Requires mu0 = 0 (the distributional null). Every experiment is
    tested three ways: p_point, p_sig_given_b at the true b, and
    p_sig_closed at the task's estimated b-hat with nu0 = K−1.
    """
    if config.mu0 != 0.0:
        raise DomainError("type-1 calibration requires mu0 = 0")
    table = _simulated_table(config, range(config.n_tasks))
    _, b_hats, nu0 = _checked(_fit(table, mode))
    t, n, df = table.t, table.n, table.df
    estimated = _checked(_p_sig_closed(t, n, b_hats, nu0))
    arrays = {
        "point": _p_point(t, df)[0],
        "true_b": _checked(_p_sig_given_b(t, n, df, config.b_true)),
        "estimated_b": estimated,
    }
    rows = []
    for alpha in config.alpha_levels:
        for variant, values in arrays.items():
            rows.append(
                Type1Row(
                    alpha=alpha,
                    variant=variant,
                    trials=int(values.size),
                    rejections=int(np.count_nonzero(values <= alpha)),
                )
            )
    return rows


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
    if not (math.isfinite(scale_e) and scale_e > 0):
        raise DomainError(f"scale_e must be > 0, got {scale_e!r}")
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


def bin_pairs(records: np.ndarray, bin_width: float = 1.0 / 40.0) -> list[CalibrationBin]:
    """Group a pair table into forecast bins per predictor-significance group.

    Each bin's forecasts are summed in record order.
    """
    n_bins = int(round(1.0 / bin_width))
    forecast = records["forecast"]
    index = np.minimum((forecast / bin_width).astype(np.int64), n_bins - 1)
    key = records["predictor_significant"] * n_bins + index
    counts = np.bincount(key)
    sums = np.bincount(key, weights=forecast)
    successes = np.bincount(key, weights=records["success"])
    bins = []
    for k in np.flatnonzero(counts):
        sig, index = divmod(int(k), n_bins)
        bins.append(
            CalibrationBin(
                lower=index * bin_width,
                upper=(index + 1) * bin_width,
                pair_count=int(counts[k]),
                mean_forecast=float(sums[k] / counts[k]),
                observed_rate=float(successes[k] / counts[k]),
                predictor_significant=bool(sig),
            )
        )
    return bins


def replication_calibration(
    configs: SimConfig | Sequence[SimConfig],
    alpha_levels: Sequence[float] | None = None,
    mode: VarianceMode = "as_published",
    variant: ForecastVariant = "closed",
    scale_e: float | None = None,
) -> list[CalibrationBin]:
    """Predictor-target calibration bins over simulated tasks.

    ``configs`` is a single config (its n_tasks tasks) or one config per
    task; pairs are pooled across tasks and alpha levels before binning.
    """
    tables = []
    for config, streams in _config_streams(configs):
        alphas = alpha_levels if alpha_levels is not None else config.alpha_levels
        e = scale_e if scale_e is not None else config.variance_scale_e
        table = _simulated_table(config, streams)
        tables.append(
            task_pair_records(table, alphas, mode=mode, scale_e=e, variant=variant)
        )
    return bin_pairs(np.concatenate(tables))


def calibration_correlation(
    bins: Sequence[CalibrationBin], min_pairs: int = MIN_BIN_PAIRS
) -> float:
    """Pearson correlation of mean forecast vs observed rate over included bins."""
    included = [b for b in bins if b.pair_count >= min_pairs]
    if len(included) < 3:
        raise DomainError(
            f"need at least 3 bins with >= {min_pairs} pairs, got {len(included)}"
        )
    x = np.array([b.mean_forecast for b in included])
    y = np.array([b.observed_rate for b in included])
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise DomainError("calibration bins are degenerate (no spread)")
    return float(np.corrcoef(x, y)[0, 1])


def calibration_gap(
    bins: Sequence[CalibrationBin], min_pairs: int = MIN_BIN_PAIRS
) -> float | None:
    """Pair-weighted mean gap over bins with >= ``min_pairs`` pairs.

    Positive means forecasts underestimated replication; None when no bin
    has enough pairs.
    """
    included = [b for b in bins if b.pair_count >= min_pairs]
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


def sensitivity_sweep(
    configs: SimConfig | Sequence[SimConfig],
    scales: Sequence[float] = (0.5, 0.75, 1.25, 1.5),
    alpha_levels: Sequence[float] | None = None,
    mode: VarianceMode = "as_published",
    min_pairs: int = MIN_BIN_PAIRS,
) -> list[ScaleCalibration]:
    """Re-run the calibration with the S0² estimate scaled by each e.

    The scaling is applied to the entire analysis (forecasts and the
    significance calls defining success), mirroring an analyst whose
    between-variance estimate is off by the factor e while the data stay
    fixed.
    """
    out = []
    for scale in scales:
        bins = replication_calibration(
            configs, alpha_levels=alpha_levels, mode=mode, scale_e=scale
        )
        mean_gap = calibration_gap(bins, min_pairs)
        if mean_gap is None:
            raise DomainError(f"no bins with >= {min_pairs} pairs at e={scale}")
        gaps = [b.gap for b in bins if b.pair_count >= min_pairs]
        out.append(
            ScaleCalibration(
                scale=scale,
                bins=tuple(bins),
                mean_gap=mean_gap,
                bins_under=sum(g > 0 for g in gaps),
                bins_over=sum(g < 0 for g in gaps),
            )
        )
    return out


def estimator_bias(config: SimConfig, reps: int) -> list[BiasRow]:
    """Monte Carlo mean and bias of both between-variance estimators."""
    if reps < 1000:
        raise DomainError(f"need reps >= 1000 for a stable audit, got {reps}")
    true = config.sigma0**2
    table = _simulated_table(config, range(reps))
    sums = {mode: sum(_checked(_fit(table, mode))[0].tolist())
            for mode in ("as_published", "moment_corrected")}
    rows = []
    for mode, total in sums.items():
        mean = total / reps
        rel = (mean - true) / true if true > 0 else math.nan
        rows.append(
            BiasRow(
                mode=mode,
                mean_estimate=mean,
                true_sigma0_sq=true,
                relative_bias=rel,
                reps=reps,
            )
        )
    return rows
