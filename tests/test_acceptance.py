"""Acceptance suite: generative, property-based, and golden-file checks.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion. Each test enforces its own runtime budget.
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from conftest import run_cli, write_csv
from distnull.adapters import (
    ContingencyTable,
    regression,
    statistic_from_summary,
)
from distnull.distributions import t_cdf
from distnull.estimators import between_variance, variance_ratio
from distnull.oracle import SimConfig
from distnull.power import PowerQuery, beta_distributional, power_ceiling
from distnull.replication import (
    ReplicationQuery,
    b_max,
    killeen_p_rep,
    p_rep_closed,
    p_rep_curve,
    p_rep_integral,
)
from distnull.significance import (
    TestStatistic,
    p_point,
    p_sig_closed,
    p_sig_given_b,
    p_sig_integral,
)
from studies import (
    calibration_correlation,
    desk_tasks,
    estimator_bias,
    phi_coefficient,
    replication_calibration,
    sensitivity_sweep,
    sensitivity_tasks,
    simulate_tasks,
    t_density,
    t_quantile,
    type1_calibration,
)


class budget:
    """Context manager asserting the block finishes inside its budget."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit}s"
        return False


def test_01_null_reduction():
    with budget(1.0):
        rng = np.random.default_rng(20250801)
        for _ in range(1000):
            n = int(rng.integers(5, 500))
            stat = TestStatistic.from_t(
                float(rng.uniform(-6.0, 6.0)), n, float(rng.integers(3, 400))
            )
            assert abs(p_sig_given_b(stat, 0.0) - p_point(stat)) < 1e-12
    print("ACCEPTANCE 1 null-reduction: PASS")


def test_02_type1_calibration():
    with budget(120.0):
        base = dict(
            mu0=0.0,
            sigma0=math.sqrt(0.1),
            sigma=1.0,
            k_experiments=25,
            n_tasks=4000,
            seed=20250801,
        )
        rows = {
            (r.alpha, r.variant): r
            for r in type1_calibration(SimConfig(n_per_experiment=200, **base), (0.01, 0.05))
        }
        trials = 25 * 4000
        for alpha in (0.01, 0.05):
            rate = rows[(alpha, "true_b")].rate
            se = math.sqrt(alpha * (1.0 - alpha) / trials)
            assert abs(rate - alpha) <= 3.0 * se, (alpha, rate)
        point_200 = rows[(0.05, "point")].rate
        assert point_200 > 0.25
        wide = {
            (r.alpha, r.variant): r
            for r in type1_calibration(SimConfig(n_per_experiment=1000, **base), (0.05,))
        }
        assert wide[(0.05, "point")].rate > point_200
    print("ACCEPTANCE 2 type1-calibration: PASS")


def test_03_closed_vs_integral():
    with budget(300.0):
        configs = [
            SimConfig(
                mu0=ratio * math.sqrt(b),
                sigma0=math.sqrt(b),
                sigma=1.0,
                n_per_experiment=n,
                k_experiments=25,
                n_tasks=1,
                seed=20250810,
            )
            for ratio in (0.0, 1.5, 3.0, 4.5)
            for b in (0.05, 0.15)
            for n in (50, 150, 350)
        ]
        sig_closed, sig_integral, rep_closed, rep_integral = [], [], [], []
        for task in simulate_tasks(configs):
            b0 = between_variance(task, "as_published")
            for exp in task.experiments:
                stat = statistic_from_summary(exp)
                b_hat = variance_ratio(b0, exp)
                sig_closed.append(p_sig_closed(stat, b_hat, b0.nu0))
                sig_integral.append(p_sig_integral(stat, b_hat, b0.nu0))
                query = ReplicationQuery(
                    stat=stat, n_r=exp.n, df_r=exp.df, alpha=0.05
                )
                rep_closed.append(p_rep_closed(query, b_hat, b0.nu0))
                rep_integral.append(p_rep_integral(query, b_hat, b0.nu0))
        assert len(sig_closed) >= 500
        r_sig = float(np.corrcoef(sig_closed, sig_integral)[0, 1])
        r_rep = float(np.corrcoef(rep_closed, rep_integral)[0, 1])
        assert r_sig >= 0.99, r_sig
        assert r_rep >= 0.96, r_rep
    print("ACCEPTANCE 3 closed-vs-integral: PASS")


def test_04_replication_calibration():
    with budget(300.0):
        bins = replication_calibration(desk_tasks())
        assert calibration_correlation(bins) >= 0.9
        heavy = [b for b in bins if b.pair_count >= 200]
        assert heavy, "expected at least one bin with >= 200 pairs"
        for b in heavy:
            assert abs(b.observed_rate - b.mean_forecast) <= 0.05, (
                b.lower,
                b.pair_count,
                b.observed_rate,
                b.mean_forecast,
            )
    print("ACCEPTANCE 4 replication-calibration: PASS")


def test_05_sensitivity_direction():
    with budget(300.0):
        shrunk, inflated = sensitivity_sweep(sensitivity_tasks(), (0.001,), scales=(0.5, 1.5))
        assert shrunk.scale == 0.5 and inflated.scale == 1.5
        assert shrunk.mean_gap > 0.0 and shrunk.direction == "underestimation"
        assert inflated.mean_gap < 0.0 and inflated.direction == "overestimation"
        under = scipy.stats.binomtest(
            shrunk.bins_under,
            shrunk.bins_under + shrunk.bins_over,
            alternative="greater",
        )
        over = scipy.stats.binomtest(
            inflated.bins_under,
            inflated.bins_under + inflated.bins_over,
            alternative="less",
        )
        assert under.pvalue < 0.01, under.pvalue
        assert over.pvalue < 0.01, over.pvalue
    print("ACCEPTANCE 5 sensitivity-direction: PASS")


def test_06_bmax_diagnostics():
    with budget(60.0):
        rng = np.random.default_rng(20250806)
        step = 1e-4
        for _ in range(1000):
            n = int(rng.integers(20, 400))
            t = float(rng.uniform(0.3, 4.0)) * (1 if rng.random() < 0.5 else -1)
            alpha = float(rng.uniform(0.05, 0.45))
            stat = TestStatistic.from_t(t, n, n - 1)
            result = b_max(stat, alpha)
            tau = result.tau
            # exactly one admissible root of the quintic
            roots = np.roots(
                [1.0, 3.0, 3.0, 1.0 - 2.25 * tau**2, -3.0 * tau**2, -(tau**2)]
            )
            positive = [
                z
                for z in roots
                if abs(z.imag) < 1e-7 * max(1.0, abs(z)) and z.real > 1e-9
            ]
            assert len(positive) == 1
            assert abs(positive[0].real - result.z_max) < 1e-6
            assert result.z_max <= tau * (1.0 + 1e-12)
            bound = abs(stat.effect) / (
                math.sqrt(n) * t_quantile(1.0 - alpha / 2.0, n - 1)
            )
            assert result.b_max <= bound * (1.0 + 1e-12)
            grid = np.arange(step, bound + step / 2.0, step)
            query = ReplicationQuery(stat=stat, n_r=n, df_r=n - 1, alpha=alpha)
            values = p_rep_curve(query, grid)
            assert abs(float(grid[int(np.argmax(values))]) - result.b_max) <= step + 1e-12
    print("ACCEPTANCE 6 bmax-diagnostics: PASS")


def test_07_power_ceiling():
    with budget(30.0):
        n, df, alpha = 30.0, 29.0, 0.05
        for effect in (0.5, 1.0, 2.0, 4.0):
            beta = beta_distributional(
                PowerQuery(effect=effect, n=n, df=df, alpha=alpha, b=1e8 / n)
            )
            ceiling = power_ceiling(effect, df, alpha)
            assert abs(beta - (1.0 - ceiling)) <= 1e-5
        for effect in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
            for b in (0.01, 0.1, 1.0, 10.0):
                for n_i in (10.0, 50.0, 200.0):
                    q = PowerQuery(
                        effect=effect, n=n_i, df=n_i - 1.0, alpha=alpha, b=b
                    )
                    power = 1.0 - beta_distributional(q)
                    assert power <= power_ceiling(effect, n_i - 1.0, alpha) + 1e-12
        assert abs(power_ceiling(0.0, 29.0, 0.05) - 0.05) <= 1e-9
    print("ACCEPTANCE 7 power-ceiling: PASS")


def test_08_estimator_audit():
    with budget(60.0):
        config = SimConfig(
            mu0=0.0,
            sigma0=0.2,
            sigma=1.0,
            n_per_experiment=200,
            k_experiments=25,
            n_tasks=1,
            seed=20250801,
        )
        rows = {r.mode: r for r in estimator_bias(config, 10000)}
        moment = rows["moment_corrected"]
        assert moment.true_sigma0_sq == pytest.approx(0.04)
        assert abs(moment.mean_estimate - 0.04) / 0.04 <= 0.02
        published = rows["as_published"]
        assert published.relative_bias > 0.0
        print(
            "ACCEPTANCE 8 note: as_published relative bias "
            f"{published.relative_bias:+.3f} at N=200, K=25"
        )
    print("ACCEPTANCE 8 estimator-audit: PASS")


def test_09_adapter_equivalence():
    with budget(30.0):
        rng = np.random.default_rng(20250809)
        for _ in range(1000):
            counts = rng.integers(1, 50, size=4)
            table = ContingencyTable(*(int(c) for c in counts))
            xs = [1.0] * (table.n11 + table.n10) + [0.0] * (table.n01 + table.n00)
            ys = (
                [1.0] * table.n11
                + [0.0] * table.n10
                + [1.0] * table.n01
                + [0.0] * table.n00
            )
            assert abs(
                phi_coefficient(table) - float(np.corrcoef(xs, ys)[0, 1])
            ) < 1e-12
        for _ in range(1000):
            n = int(rng.integers(5, 30))
            xs = rng.normal(0.0, 1.0, size=n)
            ys = 0.4 + 0.8 * xs + rng.normal(0.0, 0.7, size=n)
            stat = statistic_from_summary(regression(xs, ys))
            x_c = xs - xs.mean()
            slope = float(x_c @ ys) / float(x_c @ x_c)
            intercept = float(ys.mean())
            sse = float(np.sum((ys - intercept - slope * x_c) ** 2))
            se = math.sqrt(sse / (n - 2) / float(x_c @ x_c))
            assert abs(stat.t - slope / se) < 1e-10 * max(1.0, abs(stat.t))
    print("ACCEPTANCE 9 adapter-equivalence: PASS")


def test_10_mills_ratio():
    # T_nu(-t)*t/f_nu(t) tends to 1 only while t^2 << nu; at fixed nu the
    # polynomial tails make the relative error grow again (0.0028 at t=3
    # but 0.98 at t=10 for nu=100), so the shrinking-error claim is a
    # normal-limit statement. Checked in the limit through the same code
    # path, plus at the t=3 threshold for the finite-df form in use.
    with budget(1.0):
        assert abs(t_cdf(-3.0, 100.0) * 3.0 / t_density(3.0, 100.0) - 1.0) <= 0.15
        nu = 1e6
        errors = []
        for t in np.arange(3.0, 10.0 + 1e-9, 0.5):
            ratio = t_cdf(-t, nu) * t / t_density(t, nu)
            oracle = scipy.stats.norm.sf(t) * t / scipy.stats.norm.pdf(t)
            assert abs((ratio - 1.0) - (oracle - 1.0)) < 5e-4
            errors.append(abs(ratio - 1.0))
        assert errors[0] <= 0.15
        for tighter, looser in zip(errors[1:], errors):
            assert tighter < looser
    print("ACCEPTANCE 10 mills-ratio: PASS")


def test_11_killeen_baseline():
    with budget(1.0):
        assert killeen_p_rep(0.0, 100.0) == 0.5
        assert killeen_p_rep(1.3, 4.0) == 0.5
        values = [killeen_p_rep(d, 36.0) for d in np.arange(0.0, 3.0, 0.05)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        oracle = float(
            scipy.stats.norm.cdf(0.5 / math.sqrt(2.0) * (1.0 - 4.0 / 36.0))
        )
        assert abs(killeen_p_rep(0.5, 36.0) - oracle) < 1e-10
    print("ACCEPTANCE 11 killeen-baseline: PASS")


def test_12_cli_determinism(tmp_path):
    with budget(30.0):
        summary = write_csv(
            tmp_path / "summary.csv",
            ["task", "site", "n", "mean", "variance", "df"],
            [
                ["alpha", f"lab{i}", str(30 + i), f"0.{45 + i}", "1.1", str(29 + i)]
                for i in range(5)
            ]
            + [
                ["beta", f"lab{i}", str(40 + i), f"0.{20 + 2 * i}", "0.9", str(39 + i)]
                for i in range(5)
            ],
        )
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "mu0": 0.8,
                    "sigma0": 0.25,
                    "n_per_experiment": 12,
                    "k_experiments": 4,
                    "n_tasks": 2,
                    "seed": 11,
                }
            )
        )
        invocations = [
            ["estimate", "--input", summary],
            ["test", "--input", summary, "--b", "0.1", "--nu0", "12"],
            ["predict", "--input", summary, "--b", "0.1", "--nu0", "12", "--nr", "40"],
            ["calibrate", "--input", summary, "--alphas", "0.1,0.05"],
            ["power", "--effect", "0.5", "--n", "30", "--alpha", "0.05",
             "--b", "0.2", "--target-power", "0.8"],
            ["simulate", "--config", str(config)],
            ["bmax", "--input", summary],
        ]
        for argv in invocations:
            first = run_cli(argv)
            second = run_cli(argv)
            assert first[0] == 0, (argv, first[2])
            assert first[1] == second[1], argv

        # re-ingesting the estimate table reproduces identical reports
        chains = []
        for run in ("a", "b"):
            est = str(tmp_path / f"est_{run}.csv")
            assert run_cli(["estimate", "--input", summary, "--output", est])[0] == 0
            chains.append(run_cli(["test", "--input", summary, "--b-from", est]))
        assert chains[0][1] == chains[1][1]
        assert chains[0][0] == 0
    print("ACCEPTANCE 12 cli-determinism: PASS")
