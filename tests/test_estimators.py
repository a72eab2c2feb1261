"""Between-experiment variance estimators against hand-worked values."""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

from conftest import run_cli, write_csv
from distnull import cli
from distnull.errors import (
    DegenerateVarianceError,
    DomainError,
    InsufficientDataError,
)
from distnull.estimators import (
    ExperimentSummary,
    TaskSet,
    between_variance,
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
    """The standardized means z_i = (mean_i - grand_mean) / S0 are the z
    column of ``estimate``; their other properties are checked in test_cli."""

    def test_degenerate_spread_rejected(self, tmp_path):
        # equal site means give a moment fit of S0^2 = 0, so no site has a
        # standardized mean
        path = write_csv(
            tmp_path / "flat.csv",
            ["task", "site", "n", "mean", "variance", "df"],
            [["flat", "s1", "10", "0.5", "2.0", "9"],
             ["flat", "s2", "10", "0.5", "2.0", "9"]],
        )
        task = cli.load_sites(path, None)[1].task(0)
        assert between_variance(task, "moment_corrected").s0_sq == 0.0
        code, out, err = run_cli(["estimate", "--input", path, "--mode", "moment"])
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["z"], r["note"]) for r in rows] == [("", "degenerate_variance")] * 2
