"""Family adapters against scipy and brute-force reductions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from distnull.adapters import (
    ContingencyTable,
    contingency_regression,
    regression,
    statistic_from_summary,
    unpaired_summary,
)
from distnull.errors import (
    DegeneratePredictorError,
    DegenerateVarianceError,
    DomainError,
    InsufficientDataError,
)
from distnull.estimators import ExperimentSummary, summarize
from distnull.significance import p_point
from studies import phi_coefficient


class TestOneSample:
    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0.3, 1.2, size=40)
        stat = statistic_from_summary(summarize(values))
        t_ref, _ = sstats.ttest_1samp(values, 0.0)
        assert stat.t == pytest.approx(float(t_ref), rel=1e-12)
        assert stat.n == 40
        assert stat.df == 39
        assert stat.effect == pytest.approx(stat.t / math.sqrt(40))

    def test_from_summary_equivalent(self):
        # a hand-built summary row gives the statistic of the raw values
        rng = np.random.default_rng(2)
        values = rng.normal(0.0, 1.0, size=25)
        direct = statistic_from_summary(summarize(values))
        row = ExperimentSummary(
            n=25, mean=float(np.mean(values)),
            sample_variance=float(np.var(values, ddof=1)), df=24,
        )
        assert statistic_from_summary(row).t == pytest.approx(direct.t, rel=1e-14)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            statistic_from_summary(summarize([1.0, 1.0, 1.0]))


class TestPaired:
    def test_matches_scipy_on_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.5, 1.0, size=30)
        y = rng.normal(0.0, 1.0, size=30)
        stat = statistic_from_summary(summarize(x - y))
        t_ref, _ = sstats.ttest_rel(x, y)
        assert stat.t == pytest.approx(float(t_ref), rel=1e-12)
        assert stat.n == 30
        assert stat.df == 29

    def test_too_few_pairs(self):
        with pytest.raises(InsufficientDataError):
            summarize([1.0 - 0.5])


class TestUnpaired:
    def test_matches_scipy_pooled(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.4, 1.0, size=18)
        b = rng.normal(0.0, 1.3, size=26)
        stat = statistic_from_summary(unpaired_summary(a, b))
        t_ref, _ = sstats.ttest_ind(a, b, equal_var=True)
        assert stat.t == pytest.approx(float(t_ref), rel=1e-12)
        assert stat.n == pytest.approx(18 * 26 / 44, rel=1e-15)
        assert stat.df == 42
        assert stat.effect == pytest.approx(stat.t / math.sqrt(18 * 26 / 44))

    def test_summary_slots(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.4, 1.0, size=18)
        b = rng.normal(0.0, 1.0, size=26)
        summary = unpaired_summary(a, b)
        assert summary.n == pytest.approx(18 * 26 / 44, rel=1e-15)
        assert summary.df == 42
        assert summary.mean == pytest.approx(float(np.mean(a) - np.mean(b)))

    @settings(max_examples=200, deadline=None)
    @given(
        na=st.integers(2, 40),
        nb=st.integers(2, 40),
        shift=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_scipy(self, na, nb, shift, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(shift, 1.0, size=na)
        b = rng.normal(0.0, 1.5, size=nb)
        stat = statistic_from_summary(unpaired_summary(a, b))
        ref = sstats.ttest_ind(a, b, equal_var=True)
        assert stat.t == pytest.approx(float(ref.statistic), rel=1e-9, abs=1e-12)
        assert p_point(stat) == pytest.approx(float(ref.pvalue), rel=1e-9)
        assert stat.n == pytest.approx(na * nb / (na + nb), rel=1e-15)
        assert stat.df == na + nb - 2

    def test_each_group_needs_two(self):
        with pytest.raises(InsufficientDataError):
            unpaired_summary([1.0], [0.0, 0.5, 1.5])


class TestRegression:
    def test_matches_linregress(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, size=35)
        y = 0.7 * x + rng.normal(0, 0.8, size=35)
        summary = regression(x, y)
        ref = sstats.linregress(x, y)
        assert summary.mean == pytest.approx(ref.slope, rel=1e-12)
        stat = statistic_from_summary(summary)
        assert stat.t == pytest.approx(ref.slope / ref.stderr, rel=1e-10)
        assert stat.df == 33

    def test_brute_force_least_squares(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 5, size=20)
        y = 1.5 - 0.4 * x + rng.normal(0, 0.5, size=20)
        summary = regression(x, y)
        dx = x - x.mean()
        q = float(np.sum(dx * dx))
        slope = float(np.sum(dx * y) / q)
        fitted = y.mean() + slope * dx
        sse = float(np.sum((y - fitted) ** 2))
        assert summary.n == pytest.approx(q, rel=1e-14)
        assert summary.mean == pytest.approx(slope, rel=1e-14)
        assert summary.sample_variance == pytest.approx(sse / 18, rel=1e-12)

    def test_constant_predictor_rejected(self):
        with pytest.raises(DegeneratePredictorError):
            regression([1.0, 1.0, 1.0, 1.0], [0.1, 0.2, 0.3, 0.4])

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            regression([0.0, 1.0], [0.0, 1.0])

    def test_perfect_fit_rejected_at_statistic(self):
        summary = regression([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 4.0, 6.0])
        with pytest.raises(DegenerateVarianceError):
            statistic_from_summary(summary)


class TestContingency:
    @staticmethod
    def expand(table: ContingencyTable) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = [], []
        for (x, y), count in (
            ((1, 1), table.n11), ((1, 0), table.n10),
            ((0, 1), table.n01), ((0, 0), table.n00),
        ):
            xs.extend([x] * count)
            ys.extend([y] * count)
        return np.array(xs, dtype=float), np.array(ys, dtype=float)

    def test_count_arithmetic_matches_expansion(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            counts = rng.integers(1, 40, size=4)
            table = ContingencyTable(*map(int, counts))
            xs, ys = self.expand(table)
            direct = contingency_regression(table)
            expanded = regression(xs, ys)
            assert direct.mean == pytest.approx(expanded.mean, abs=1e-12)
            assert direct.n == pytest.approx(expanded.n, rel=1e-12)
            assert direct.sample_variance == pytest.approx(
                expanded.sample_variance, abs=1e-12
            )

    def test_phi_equals_pearson(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            counts = rng.integers(1, 40, size=4)
            table = ContingencyTable(*map(int, counts))
            xs, ys = self.expand(table)
            pearson = float(np.corrcoef(xs, ys)[0, 1])
            assert phi_coefficient(table) == pytest.approx(pearson, abs=1e-12)

    def test_statistic_is_slope_t(self):
        table = ContingencyTable(n11=21, n10=9, n01=8, n00=22)
        stat = statistic_from_summary(contingency_regression(table))
        xs, ys = self.expand(table)
        ref = sstats.linregress(xs, ys)
        assert stat.t == pytest.approx(ref.slope / ref.stderr, rel=1e-10)

    def test_zero_margin_rejected(self):
        with pytest.raises(DegeneratePredictorError):
            contingency_regression(ContingencyTable(n11=0, n10=0, n01=5, n00=5))
        with pytest.raises(DegeneratePredictorError):
            phi_coefficient(ContingencyTable(n11=5, n10=5, n01=0, n00=0))

    def test_count_validation(self):
        with pytest.raises(DomainError):
            ContingencyTable(n11=-1, n10=1, n01=1, n00=1)
        with pytest.raises(DomainError):
            ContingencyTable(n11=1.5, n10=1, n01=1, n00=1)
        with pytest.raises(InsufficientDataError):
            ContingencyTable(n11=1, n10=0, n01=0, n00=0)

