"""Between-experiment variance estimators against hand-worked values."""

from __future__ import annotations

import math

import numpy as np
import pytest

from distnull.errors import (
    DegenerateVarianceError,
    DomainError,
    InsufficientDataError,
)
from distnull.estimators import (
    BetweenVariance,
    ExperimentSummary,
    TaskSet,
    between_variance,
    standardize_means,
    summarize,
    variance_ratio,
)


def three_site_task() -> TaskSet:
    return TaskSet(
        "demo",
        (
            ExperimentSummary(n=10, mean=1.0, sample_variance=2.0, df=9),
            ExperimentSummary(n=20, mean=2.0, sample_variance=1.0, df=19),
            ExperimentSummary(n=30, mean=3.0, sample_variance=1.5, df=29),
        ),
    )


class TestSummarize:
    def test_matches_numpy(self):
        values = [1.2, -0.4, 3.3, 0.0, 2.1]
        s = summarize(values)
        assert s.n == 5
        assert s.df == 4
        assert s.mean == pytest.approx(np.mean(values))
        assert s.sample_variance == pytest.approx(np.var(values, ddof=1))

    def test_rejects_single_value(self):
        with pytest.raises(InsufficientDataError):
            summarize([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            summarize([1.0, math.nan, 2.0])

    def test_rejects_matrix(self):
        with pytest.raises(DomainError):
            summarize([[1.0, 2.0], [3.0, 4.0]])

    def test_constant_sample_allowed(self):
        s = summarize([2.0, 2.0, 2.0])
        assert s.sample_variance == 0.0


class TestTaskSet:
    def test_k_property(self):
        assert three_site_task().k == 3

    def test_rejects_single_experiment(self):
        with pytest.raises(InsufficientDataError):
            TaskSet("solo", (ExperimentSummary(10, 0.0, 1.0, 9),))

    def test_summary_validation(self):
        with pytest.raises(DomainError):
            ExperimentSummary(n=0, mean=0.0, sample_variance=1.0, df=9)
        with pytest.raises(DomainError):
            ExperimentSummary(n=10, mean=0.0, sample_variance=-1.0, df=9)
        with pytest.raises(DomainError):
            ExperimentSummary(n=10, mean=0.0, sample_variance=1.0, df=0)


class TestBetweenVariance:
    # Hand computation for the three-site task: grand mean 2, raw spread
    # of means S_m^2 = 1; noise add-on (1/3)[9*2/(10*7) + 19*1/(20*17)
    # + 29*1.5/(30*27)]; moment subtraction (1/3)[2/10 + 1/20 + 1.5/30].
    ADD_ON = (9 * 2 / (10 * 7) + 19 * 1 / (20 * 17) + 29 * 1.5 / (30 * 27)) / 3
    SUBTRACT = (2 / 10 + 1 / 20 + 1.5 / 30) / 3

    def test_as_published_hand_value(self):
        b0 = between_variance(three_site_task(), "as_published")
        assert b0.grand_mean == pytest.approx(2.0)
        assert b0.nu0 == 2
        assert b0.s0_sq == pytest.approx(1.0 + self.ADD_ON, rel=1e-14)
        assert b0.mode == "as_published"

    def test_moment_corrected_hand_value(self):
        b0 = between_variance(three_site_task(), "moment_corrected")
        assert b0.s0_sq == pytest.approx(1.0 - self.SUBTRACT, rel=1e-14)
        assert b0.mode == "moment_corrected"

    def test_moment_clamped_at_zero(self):
        task = TaskSet(
            "flat",
            (
                ExperimentSummary(n=10, mean=0.5, sample_variance=2.0, df=9),
                ExperimentSummary(n=10, mean=0.5, sample_variance=2.0, df=9),
            ),
        )
        b0 = between_variance(task, "moment_corrected")
        assert b0.s0_sq == 0.0

    def test_as_published_strictly_larger(self):
        pub = between_variance(three_site_task(), "as_published").s0_sq
        mom = between_variance(three_site_task(), "moment_corrected").s0_sq
        assert pub > mom

    def test_small_df_rejected(self):
        task = TaskSet(
            "tiny",
            (
                ExperimentSummary(n=3, mean=0.0, sample_variance=1.0, df=2),
                ExperimentSummary(n=10, mean=1.0, sample_variance=1.0, df=9),
            ),
        )
        with pytest.raises(DomainError):
            between_variance(task)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            between_variance(three_site_task(), "bayes")


class TestVarianceRatio:
    def test_definition(self):
        task = three_site_task()
        b0 = between_variance(task)
        first = task.experiments[0]
        assert variance_ratio(b0, first) == pytest.approx(
            b0.s0_sq / first.sample_variance
        )

    def test_zero_variance_rejected(self):
        b0 = between_variance(three_site_task())
        degenerate = ExperimentSummary(n=10, mean=0.0, sample_variance=0.0, df=9)
        with pytest.raises(DegenerateVarianceError):
            variance_ratio(b0, degenerate)


class TestStandardizeMeans:
    def test_hand_values(self):
        task = three_site_task()
        b0 = between_variance(task)
        zs = standardize_means(task, b0)
        s0 = math.sqrt(b0.s0_sq)
        assert zs == pytest.approx((-1.0 / s0, 0.0, 1.0 / s0))

    def test_mean_is_zero(self):
        rng = np.random.default_rng(5)
        task = TaskSet(
            "random",
            tuple(
                summarize(rng.normal(rng.normal(0, 0.4), 1.0, size=25))
                for _ in range(12)
            ),
        )
        zs = standardize_means(task, between_variance(task))
        assert sum(zs) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        # multiplying every raw measurement by a constant leaves z unchanged
        rng = np.random.default_rng(11)
        samples = [rng.normal(rng.normal(0, 0.4), 1.0, size=25) for _ in range(8)]
        base = TaskSet("base", tuple(summarize(s) for s in samples))
        scaled = TaskSet("scaled", tuple(summarize(7.5 * s) for s in samples))
        assert standardize_means(base, between_variance(base)) == pytest.approx(
            standardize_means(scaled, between_variance(scaled)), rel=1e-12
        )

    def test_degenerate_spread_rejected(self):
        b0 = BetweenVariance(
            s0_sq=0.0, nu0=2, grand_mean=0.5, mode="moment_corrected"
        )
        task = TaskSet(
            "flat",
            (
                ExperimentSummary(n=10, mean=0.5, sample_variance=2.0, df=9),
                ExperimentSummary(n=10, mean=0.5, sample_variance=2.0, df=9),
            ),
        )
        with pytest.raises(DegenerateVarianceError):
            standardize_means(task, b0)

    def test_mode_passthrough(self):
        # the z scale is the S0 of whichever fit is passed in
        task = three_site_task()
        b0 = between_variance(task, "moment_corrected")
        s0 = math.sqrt(b0.s0_sq)
        assert standardize_means(task, b0) == pytest.approx(
            tuple((e.mean - b0.grand_mean) / s0 for e in task.experiments),
            rel=1e-15,
        )
        assert standardize_means(task, b0) != pytest.approx(
            standardize_means(task, between_variance(task, "as_published"))
        )
