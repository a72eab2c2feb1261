"""Tests for the simulation harness and calibration machinery."""

import math
from dataclasses import replace

import numpy as np
import pytest

from distnull.errors import DomainError
from distnull.estimators import (
    ExperimentSummary,
    TaskSet,
    between_variance,
    standardize_means,
    variance_ratio,
)
from distnull.oracle import (
    DESK_ALPHA_LEVELS,
    PAIR_DTYPE,
    CalibrationBin,
    SimConfig,
    bin_pairs,
    calibration_correlation,
    calibration_gap,
    desk_tasks,
    estimator_bias,
    gap_direction,
    replication_calibration,
    sensitivity_sweep,
    sensitivity_tasks,
    simulate_raw_task,
    simulate_task,
    simulate_tasks,
    task_pair_records,
    type1_calibration,
)
from distnull.adapters import statistic_from_summary
from distnull.replication import ReplicationQuery, p_rep_closed
from distnull.significance import p_sig_closed


def small_config(**overrides) -> SimConfig:
    base = dict(
        mu0=1.0,
        sigma0=0.3,
        sigma=1.0,
        n_per_experiment=20,
        k_experiments=6,
        n_tasks=6,
        alpha_levels=(0.05,),
        seed=9,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSimulation:
    def test_raw_task_shape_and_determinism(self):
        config = small_config(k_experiments=5, n_per_experiment=8)
        first = simulate_raw_task(config, 0)
        again = simulate_raw_task(config, 0)
        other = simulate_raw_task(config, 1)
        assert first.shape == (5, 8)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_raw_task_null_moments(self):
        # mu0 = 0, sigma0 = 0 collapses the generative model to iid N(0, 1).
        config = small_config(
            mu0=0.0, sigma0=0.0, k_experiments=200, n_per_experiment=100
        )
        rows = simulate_raw_task(config, 0)
        assert abs(rows.mean()) < 0.05
        assert abs(rows.var(ddof=1) - 1.0) < 0.1

    def test_simulate_task_matches_numpy(self):
        config = small_config()
        rows = simulate_raw_task(config, 3)
        task = simulate_task(config, 3)
        assert len(task.experiments) == config.k_experiments
        for row, summary in zip(rows, task.experiments):
            assert summary.n == config.n_per_experiment
            assert summary.df == config.n_per_experiment - 1
            assert summary.mean == pytest.approx(row.mean(), rel=1e-12)
            assert summary.sample_variance == pytest.approx(row.var(ddof=1), rel=1e-12)

    def test_task_id_format(self):
        assert simulate_task(small_config(), 7).task_id == "task0007"

    def test_simulate_tasks_single_config_enumerates_streams(self):
        config = small_config(n_tasks=3)
        tasks = simulate_tasks(config)
        assert [t.task_id for t in tasks] == ["task0000", "task0001", "task0002"]
        assert tasks[1].experiments == simulate_task(config, 1).experiments

    def test_simulate_tasks_sequence_continues_streams(self):
        # Same-seed configs in a sequence must not replay the same draws.
        config = small_config(n_tasks=2)
        tasks = simulate_tasks([config, config])
        assert len(tasks) == 4
        assert tasks[2].experiments == simulate_task(config, 2).experiments
        means = [t.experiments[0].mean for t in tasks]
        assert len(set(means)) == 4

    def test_config_validation(self):
        with pytest.raises(DomainError):
            small_config(mu0=math.nan)
        with pytest.raises(DomainError):
            small_config(sigma0=-0.1)
        with pytest.raises(DomainError):
            small_config(sigma=0.0)
        with pytest.raises(DomainError):
            small_config(n_per_experiment=1)
        with pytest.raises(DomainError):
            small_config(k_experiments=1)
        with pytest.raises(DomainError):
            small_config(n_tasks=0)
        with pytest.raises(DomainError):
            small_config(alpha_levels=(0.05, 1.0))
        with pytest.raises(DomainError):
            small_config(seed=-1)
        with pytest.raises(DomainError):
            small_config(variance_scale_e=0.0)

    def test_b_true(self):
        config = small_config(sigma0=0.3, sigma=1.5)
        assert config.b_true == pytest.approx(0.04, rel=1e-12)


class TestType1Calibration:
    def test_requires_null(self):
        with pytest.raises(DomainError):
            type1_calibration(small_config(mu0=0.5))

    def test_rates(self):
        config = small_config(
            mu0=0.0,
            sigma0=math.sqrt(0.1),
            n_per_experiment=50,
            k_experiments=25,
            n_tasks=40,
            alpha_levels=(0.05,),
            seed=3,
        )
        rows = type1_calibration(config)
        assert len(rows) == 3
        rates = {row.variant: row for row in rows}
        assert set(rates) == {"point", "true_b", "estimated_b"}
        for row in rows:
            assert row.alpha == 0.05
            assert row.trials == 25 * 40
            assert row.rate == row.rejections / row.trials
        # Testing against the correct null holds the level; the point
        # test ignores mu-variation and rejects wildly under b = 0.1.
        assert abs(rates["true_b"].rate - 0.05) < 0.03
        assert rates["point"].rate > 0.15
        assert rates["estimated_b"].rate < rates["point"].rate


def mixed_task() -> TaskSet:
    """Six sites whose (n, df) designs repeat, two of them with equal n only."""
    return TaskSet("mixed", tuple(
        ExperimentSummary(n=n, mean=mean, sample_variance=var, df=df)
        for n, df, mean, var in [
            (20, 19, 0.9, 1.0), (35, 34, 0.4, 1.3), (20, 19, 0.7, 0.8),
            (50, 49, 0.2, 1.1), (35, 33, 0.6, 0.9), (20, 19, 1.2, 1.2),
        ]
    ))


def assert_matches_pair_loop(task: TaskSet) -> None:
    """task_pair_records equals a per-pair recomputation, bit for bit."""
    alphas = (0.05, 0.01)
    records = task_pair_records(task, alphas)
    k = len(task.experiments)
    assert len(records) == len(alphas) * k * (k - 1)

    b0 = between_variance(task, "as_published")
    stats = [statistic_from_summary(e) for e in task.experiments]
    expected = []
    for alpha in alphas:
        for i, predictor in enumerate(task.experiments):
            b_hat = variance_ratio(b0, predictor)
            p_i = p_sig_closed(stats[i], b_hat, b0.nu0)
            for j, target in enumerate(task.experiments):
                if i == j:
                    continue
                query = ReplicationQuery(
                    stat=stats[i], n_r=target.n, df_r=target.df, alpha=alpha
                )
                p_j = p_sig_closed(stats[j], variance_ratio(b0, target), b0.nu0)
                same_sign = (stats[i].t >= 0) == (stats[j].t >= 0)
                expected.append((
                    alpha, i, j,
                    p_rep_closed(query, b_hat, b0.nu0),
                    p_i <= alpha,
                    p_j <= alpha and same_sign,
                ))
    assert [
        (r["alpha"], r["predictor"], r["target"], r["forecast"],
         r["predictor_significant"], r["success"])
        for r in records
    ] == expected
    assert np.all((0.0 <= records["forecast"]) & (records["forecast"] <= 1.0))


class TestPairRecords:
    def test_matches_direct_recomputation(self):
        for task in (simulate_task(small_config(), 0), mixed_task()):
            assert_matches_pair_loop(task)

    def test_success_needs_the_predictors_sign(self):
        # every site is significant, but the last one in the other direction
        task = TaskSet("signs", tuple(
            ExperimentSummary(n=1000, mean=mean, sample_variance=1.0, df=999)
            for mean in [1.0] * 19 + [-1.0]
        ))
        records = task_pair_records(task, (0.05,))
        assert records["predictor_significant"].all()
        mixed = (records["predictor"] == 19) | (records["target"] == 19)
        assert not records["success"][mixed].any()
        assert records["success"][~mixed].all()

    def test_scale_e_shifts_forecasts(self):
        task = simulate_task(small_config(), 1)
        base = task_pair_records(task, (0.05,))
        scaled = task_pair_records(task, (0.05,), scale_e=1.5)
        assert np.any(base["forecast"] != scaled["forecast"])
        # The scale multiplies the S0^2 estimate before everything else.
        b0 = replace(
            between_variance(task, "as_published"),
            s0_sq=1.5 * between_variance(task, "as_published").s0_sq,
        )
        stat = statistic_from_summary(task.experiments[0])
        target = task.experiments[1]
        query = ReplicationQuery(stat=stat, n_r=target.n, df_r=target.df, alpha=0.05)
        direct = p_rep_closed(query, variance_ratio(b0, task.experiments[0]), b0.nu0)
        assert scaled[0]["forecast"] == pytest.approx(direct, rel=1e-12)

    def test_scale_e_validation(self):
        task = simulate_task(small_config(), 0)
        with pytest.raises(DomainError):
            task_pair_records(task, (0.05,), scale_e=0.0)

    def test_unknown_variant(self):
        task = simulate_task(small_config(), 0)
        with pytest.raises(DomainError):
            task_pair_records(task, (0.05,), variant="bogus")


def pairs(*rows):
    """A pair table with the given (forecast, significant, success) rows."""
    table = np.zeros(len(rows), dtype=PAIR_DTYPE)
    for record, (forecast, significant, success) in zip(table, rows):
        record["forecast"] = forecast
        record["predictor_significant"] = significant
        record["success"] = success
    return table


class TestBinning:
    def test_synthetic_grouping(self):
        records = pairs(
            (0.0, False, False),
            (0.0124, False, True),
            (0.025, False, True),
            (0.999, True, True),
            (1.0, True, False),
        )
        bins = bin_pairs(records)
        assert [b.predictor_significant for b in bins] == [False, False, True]
        assert [b.lower for b in bins] == pytest.approx([0.0, 0.025, 0.975])
        first, second, top = bins
        assert first.pair_count == 2
        assert first.mean_forecast == pytest.approx(0.0062, rel=1e-12)
        assert first.observed_rate == 0.5
        assert first.upper == 0.025
        assert second.pair_count == 1
        assert second.observed_rate == 1.0
        # forecast = 1.0 clamps into the top bin instead of falling off.
        assert top.pair_count == 2
        assert top.upper == 1.0
        assert top.mean_forecast == pytest.approx(0.9995, rel=1e-12)

    def test_standard_error(self):
        b = CalibrationBin(
            lower=0.0,
            upper=0.025,
            pair_count=2,
            mean_forecast=0.01,
            observed_rate=0.5,
            predictor_significant=False,
        )
        assert b.standard_error == pytest.approx(math.sqrt(0.25 / 2), rel=1e-12)

    def test_custom_width(self):
        bins = bin_pairs(pairs((0.3, False, True)), bin_width=0.25)
        assert bins[0].lower == 0.25
        assert bins[0].upper == 0.5


def synthetic_bin(mean_forecast, observed_rate, pair_count=40):
    return CalibrationBin(
        lower=0.0,
        upper=0.025,
        pair_count=pair_count,
        mean_forecast=mean_forecast,
        observed_rate=observed_rate,
        predictor_significant=True,
    )


class TestCalibrationGap:
    def test_pair_weighted_over_included_bins(self):
        bins = [
            synthetic_bin(0.10, 0.15, pair_count=40),
            synthetic_bin(0.50, 0.45, pair_count=120),
            synthetic_bin(0.90, 0.10, pair_count=39),  # too few pairs
        ]
        assert calibration_gap(bins) == pytest.approx(
            (40 * 0.05 - 120 * 0.05) / 160, rel=1e-12
        )

    def test_no_included_bin(self):
        assert calibration_gap([synthetic_bin(0.5, 0.6, pair_count=39)]) is None

    def test_direction_names_the_sign(self):
        assert gap_direction(0.01) == "underestimation"
        assert gap_direction(-0.01) == "overestimation"
        assert gap_direction(0.0) == "balanced"


class TestCalibrationCorrelation:
    def test_linear_bins(self):
        bins = [
            synthetic_bin(0.1, 0.12),
            synthetic_bin(0.5, 0.48),
            synthetic_bin(0.9, 0.95),
        ]
        assert calibration_correlation(bins) > 0.99

    def test_sparse_bins_excluded(self):
        bins = [
            synthetic_bin(0.1, 0.12),
            synthetic_bin(0.5, 0.48),
            synthetic_bin(0.9, 0.95, pair_count=39),
        ]
        with pytest.raises(DomainError):
            calibration_correlation(bins)

    def test_degenerate_bins(self):
        bins = [synthetic_bin(0.5, r) for r in (0.1, 0.5, 0.9)]
        with pytest.raises(DomainError):
            calibration_correlation(bins)


class TestCalibrationPipeline:
    def test_pair_count_conservation(self):
        config = small_config()
        bins = replication_calibration(config)
        k = config.k_experiments
        assert sum(b.pair_count for b in bins) == config.n_tasks * k * (k - 1)

    def test_scale_e_changes_bins(self):
        config = small_config()
        base = replication_calibration(config)
        scaled = replication_calibration(config, scale_e=1.5)
        assert [b.mean_forecast for b in base] != [b.mean_forecast for b in scaled]

    def test_sensitivity_sweep_smoke(self):
        config = small_config(
            mu0=4.4,
            sigma0=0.02,
            n_per_experiment=6,
            n_tasks=10,
            alpha_levels=(0.001,),
        )
        rows = sensitivity_sweep(config, scales=(0.5, 1.5))
        assert [r.scale for r in rows] == [0.5, 1.5]
        for row in rows:
            assert math.isfinite(row.mean_gap)
            assert row.direction in {"underestimation", "overestimation"}
            assert row.bins_under >= 0 and row.bins_over >= 0
            assert isinstance(row.bins, tuple)


class TestEstimatorBias:
    def test_reps_guard(self):
        with pytest.raises(DomainError):
            estimator_bias(small_config(), 999)

    def test_bias_directions(self):
        config = small_config(
            mu0=0.0,
            sigma0=0.2,
            n_per_experiment=40,
            k_experiments=8,
            n_tasks=1,
            seed=11,
        )
        rows = {r.mode: r for r in estimator_bias(config, 1000)}
        published = rows["as_published"]
        moment = rows["moment_corrected"]
        assert published.true_sigma0_sq == pytest.approx(0.04, rel=1e-12)
        assert published.reps == 1000
        # The additive form absorbs the within-experiment sampling noise
        # of the means; the moment form subtracts it back out.
        assert published.relative_bias > 0.5
        assert abs(moment.relative_bias) < 0.3
        assert abs(moment.relative_bias) < published.relative_bias
        assert published.mean_estimate > moment.mean_estimate > 0.0


class TestPresets:
    def test_desk_tasks_structure(self):
        configs = desk_tasks()
        assert len(configs) == 16
        nulls = [c for c in configs if c.mu0 == 0.0]
        assert len(nulls) == 2
        for config in configs:
            assert config.n_tasks == 1
            assert config.k_experiments == 25
            assert config.alpha_levels == DESK_ALPHA_LEVELS
            assert config.sigma == 1.0
            assert 170 <= config.n_per_experiment <= 210
            assert 0.039 <= config.b_true <= 0.131
            assert config.seed == 20250801
        assert desk_tasks(seed=7)[0].seed == 7

    def test_desk_config_overrides(self):
        # SimConfig's defaults are the desk scale (K=25, N=190)
        config = SimConfig(n_tasks=2, seed=42)
        assert config.n_tasks == 2
        assert config.seed == 42
        assert config.k_experiments == 25
        assert config.n_per_experiment == 190

    def test_sensitivity_tasks_structure(self):
        small, moderate = sensitivity_tasks()
        for config in (small, moderate):
            assert config.k_experiments == 6
            assert config.n_tasks == 120
            assert config.alpha_levels == (0.001,)
            assert config.sigma0 == 0.02
        assert small.n_per_experiment == 6
        assert moderate.n_per_experiment == 41
        assert small.mu0 == 4.4
        assert moderate.mu0 == 1.5


class TestStandardizedMeans:
    def test_variance_near_one_at_desk_scale(self):
        # Dividing the means by sqrt(S0^2 + S^2/N) should leave roughly
        # unit spread when the generative model matches.
        for stream in range(4):
            task = simulate_task(SimConfig(seed=20250801), stream)
            z = standardize_means(task, between_variance(task, "as_published"))
            assert 0.5 <= float(np.var(z, ddof=1)) <= 1.5


class TestNullUniformity:
    def test_estimated_b_significance_near_uniform(self):
        # Under the generative null the closed-form significance values,
        # computed from the task's own (b_hat, nu0), should be close to
        # Uniform(0, 1). K = 400 keeps the estimate tight enough that
        # plug-in noise cannot push the deviation past the gate.
        config = SimConfig(
            mu0=0.0,
            sigma0=0.5,
            sigma=1.0,
            n_per_experiment=190,
            k_experiments=400,
            n_tasks=100,
            alpha_levels=(0.05,),
            seed=17,
        )
        values = []
        for task in simulate_tasks(config):
            b0 = between_variance(task, "as_published")
            for exp in task.experiments:
                values.append(
                    p_sig_closed(
                        statistic_from_summary(exp), variance_ratio(b0, exp), b0.nu0
                    )
                )
        values = np.sort(np.array(values))
        grid = (np.arange(values.size) + 0.5) / values.size
        assert float(np.max(np.abs(values - grid))) <= 0.15
