"""The paper's simulation studies, run by the acceptance and oracle tests.

Each drives the package's own functions over tasks simulated by
``distnull.oracle``: null rejection rates of the three test variants,
predictor-target replication calibration on a Many-Labs-scale ladder of
tasks, the sensitivity of that calibration to a misscaled between-variance
estimate, and the bias of both between-variance estimators.

It also holds the Student t density and quantile and the phi coefficient
of a 2x2 table, which only the tests call: the commands need the t's tail
and critical values, and the contingency slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from distnull.adapters import ContingencyTable
from distnull.distributions import (
    _beta_factors,
    _check_df,
    _check_finite,
    _checked,
    _t_tail_quantile,
)
from distnull.errors import DegeneratePredictorError, DomainError
from distnull.estimators import SiteTable, TaskSet, VarianceMode
from distnull.oracle import (
    DESK_ALPHA_LEVELS,
    MIN_BIN_PAIRS,
    CalibrationBin,
    ForecastVariant,
    SimConfig,
    _fit,
    bin_pairs,
    calibration_gap,
    gap_direction,
    simulate_raw_task,
    task_pair_records,
)
from distnull.significance import _p_point, _p_sig_closed, _p_sig_given_b


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
        "true_b": _checked(_p_sig_given_b(t, n, df, (config.sigma0 / config.sigma) ** 2)),
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


def t_density(x: float, nu: float) -> float:
    """Student t density with ``nu`` degrees of freedom at ``x``."""
    x = _check_finite(x, "x")
    nu = _check_df(nu)
    return _beta_factors(nu)[0] / math.sqrt(nu) * math.exp(-0.5 * (nu + 1.0) * math.log1p(x * x / nu))


def t_quantile(p: float, nu: float) -> float:
    """Inverse Student t CDF: the x with t_cdf(x, nu) = p, for 0 < p < 1."""
    p = float(p)
    nu = _check_df(nu)
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile level must lie strictly in (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    # 1 - p is exact for p > 1/2
    x = float(_t_tail_quantile(min(p, 1.0 - p), nu)[0])
    return -x if p < 0.5 else x


def phi_coefficient(table: ContingencyTable) -> float:
    """phi = (n11·n00 − n10·n01)/√(n1x·n0x·n1y·n0y) ∈ [−1, 1].

    Equals the Pearson correlation of the expanded 0/1 pairs.
    """
    n1x = table.n11 + table.n10
    n0x = table.n01 + table.n00
    n1y = table.n11 + table.n01
    n0y = table.n10 + table.n00
    denom = n1x * n0x * n1y * n0y
    if denom == 0:
        raise DegeneratePredictorError(
            "phi undefined: a margin of the table is zero"
        )
    return (table.n11 * table.n00 - table.n10 * table.n01) / math.sqrt(denom)
