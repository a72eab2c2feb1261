"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli, write_csv
from distnull import cli, distributions, oracle, significance
from distnull.adapters import statistic_from_summary
from distnull.distributions import RULE_LEVELS
from distnull.errors import NumericError
from distnull.estimators import TaskSet, between_variance, variance_ratio
from distnull.replication import ReplicationQuery, p_rep_bound, p_rep_integral
from distnull.significance import p_sig_bound, p_sig_integral

SUMMARY_HEADER = ["task", "site", "n", "mean", "variance", "df"]


def parse(stdout: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(stdout)))


class TestEstimate:
    def test_summary_input(self, summary_file):
        code, out, err = run_cli(["estimate", "--input", summary_file])
        assert code == 0 and err == ""
        rows = parse(out)
        assert [(r["task"], r["site"]) for r in rows] == [
            ("alpha", "lab1"),
            ("alpha", "lab2"),
            ("alpha", "lab3"),
            ("beta", "lab1"),
            ("beta", "lab2"),
        ]
        alpha = rows[0]
        assert alpha["k"] == "3"
        assert alpha["grand_mean"] == "0.503333333333"
        assert alpha["nu0"] == "2"
        assert alpha["mode"] == "as_published"
        assert alpha["note"] == ""
        assert rows[3]["k"] == "2" and rows[3]["nu0"] == "1"

    def test_raw_one_sample_input(self, raw_one_sample):
        code, out, _ = run_cli(["estimate", "--input", raw_one_sample])
        assert code == 0
        rows = parse(out)
        assert len(rows) == 6
        assert all(r["n"] == "20" and r["df"] == "19" for r in rows)

    def test_moment_mode(self, summary_file):
        code, out, _ = run_cli(
            ["estimate", "--input", summary_file, "--mode", "moment"]
        )
        assert code == 0
        rows = parse(out)
        assert all(r["mode"] == "moment_corrected" for r in rows)

    def test_single_site_task_skipped(self, tmp_path):
        path = write_csv(
            tmp_path / "single.csv",
            SUMMARY_HEADER,
            [
                ["a", "l1", "30", "0.5", "1.0", "29"],
                ["a", "l2", "28", "0.6", "1.1", "27"],
                ["b", "only", "25", "0.1", "1.0", "24"],
            ],
        )
        code, out, _ = run_cli(["estimate", "--input", path])
        assert code == 0
        rows = parse(out)
        lone = rows[-1]
        assert lone["note"] == "skipped_single_site"
        assert lone["s0_sq"] == "" and lone["z"] == ""

    def test_unsorted_input_is_sorted(self, tmp_path):
        path = write_csv(
            tmp_path / "unsorted.csv",
            SUMMARY_HEADER,
            [
                ["b", "l2", "30", "0.5", "1.0", "29"],
                ["a", "l1", "28", "0.6", "1.1", "27"],
                ["b", "l1", "25", "0.1", "1.0", "24"],
                ["a", "l2", "26", "0.2", "1.2", "25"],
            ],
        )
        code, out, _ = run_cli(["estimate", "--input", path])
        assert code == 0
        keys = [(r["task"], r["site"]) for r in parse(out)]
        assert keys == sorted(keys)


    def test_degenerate_task_carries_no_estimate(self, tmp_path):
        # moment mode clamps S0^2 at zero when the site means barely differ
        path = write_csv(
            tmp_path / "flat.csv",
            SUMMARY_HEADER,
            [
                ["a", "s1", "30", "0.52", "1.1", "29"],
                ["a", "s2", "28", "0.61", "0.9", "27"],
                ["a", "s3", "33", "0.38", "1.3", "32"],
            ],
        )
        est = str(tmp_path / "est.csv")
        code, _, _ = run_cli(
            ["estimate", "--input", path, "--mode", "moment", "--output", est]
        )
        assert code == 0
        with open(est, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(r["note"] == "degenerate_variance" for r in rows)
        assert all(r["s0_sq"] == "0" and r["b_hat"] == "" and r["z"] == "" for r in rows)
        code, _, err = run_cli(["test", "--input", path, "--b-from", est])
        assert code == 3
        assert "--b-from has no estimate" in err

    def test_b_hat_that_b_from_rejects_is_an_error(self, tmp_path):
        # S0^2 > 0, and S0^2 / 1e-310 overflows to an inf b_hat, which
        # `test --b-from` would reject
        path = write_csv(tmp_path / "inf.csv", SUMMARY_HEADER,
                         TestCalibrate.infinite_b_hat_tasks())
        assert run_cli(["estimate", "--input", path]) == (
            4, "", "error: task 'b' site 'l3': " + TestErrorPrecedence.B_HAT_INF + "\n")

    @staticmethod
    def z_column(path: str, *flags: str) -> list[float]:
        code, out, err = run_cli(["estimate", "--input", path, *flags])
        assert (code, err) == (0, "")
        return [float(r["z"]) for r in parse(out)]

    @staticmethod
    def three_site_file(tmp_path) -> str:
        return write_csv(tmp_path / "three.csv", SUMMARY_HEADER, [
            ["demo", "s1", "10", "1.0", "2.0", "9"],
            ["demo", "s2", "20", "2.0", "1.0", "19"],
            ["demo", "s3", "30", "3.0", "1.5", "29"],
        ])

    @staticmethod
    def random_raw_file(tmp_path, seed: int, sites: int, scale: float = 1.0) -> str:
        rng = np.random.default_rng(seed)
        samples = [rng.normal(rng.normal(0, 0.4), 1.0, size=25) for _ in range(sites)]
        rows = [["t", f"s{i:02d}", repr(v)] for i, sample in enumerate(samples)
                for v in (scale * sample).tolist()]
        return write_csv(tmp_path / f"raw{scale}.csv", ["task", "site", "value"], rows)

    def test_z_hand_values(self, tmp_path):
        # z = (mean - grand_mean) / S0: the means 1, 2, 3 centre on 2
        path = self.three_site_file(tmp_path)
        s0 = math.sqrt(between_variance(cli.load_sites(path, None)[1].task(0)).s0_sq)
        assert self.z_column(path) == pytest.approx([-1.0 / s0, 0.0, 1.0 / s0], rel=1e-11)

    def test_z_mean_is_zero(self, tmp_path):
        zs = self.z_column(self.random_raw_file(tmp_path, 5, 12))
        assert sum(zs) == pytest.approx(0.0, abs=1e-10)

    def test_z_scale_invariance(self, tmp_path):
        # multiplying every raw measurement by a constant leaves z unchanged
        base = self.z_column(self.random_raw_file(tmp_path, 11, 8))
        assert self.z_column(self.random_raw_file(tmp_path, 11, 8, 7.5)) == pytest.approx(
            base, rel=1e-10)

    def test_z_mode_passthrough(self, tmp_path):
        # the z scale is the S0 of the --mode fit
        path = self.three_site_file(tmp_path)
        task = cli.load_sites(path, None)[1].task(0)
        b0 = between_variance(task, "moment_corrected")
        moment = self.z_column(path, "--mode", "moment")
        assert moment == pytest.approx(
            [(e.mean - b0.grand_mean) / math.sqrt(b0.s0_sq) for e in task.experiments],
            rel=1e-11)
        assert moment != pytest.approx(self.z_column(path))


class TestInputValidation:
    def test_missing_file(self, tmp_path):
        code, _, err = run_cli(["estimate", "--input", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "error:" in err

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", SUMMARY_HEADER, [])
        code, _, err = run_cli(["estimate", "--input", path])
        assert code == 2

    def test_unknown_columns(self, tmp_path):
        path = write_csv(
            tmp_path / "odd.csv", ["task", "site", "bogus"], [["a", "b", "1"]]
        )
        code, _, err = run_cli(["estimate", "--input", path])
        assert code == 2
        assert "line 1" in err

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("task,site,value\na,l1\n")
        code, _, err = run_cli(["estimate", "--input", str(path)])
        assert code == 2
        assert "line 2" in err

    def test_bad_identifier(self, tmp_path):
        path = write_csv(
            tmp_path / "ident.csv",
            ["task", "site", "value"],
            [["bad id", "l1", "0.5"]],
        )
        code, _, err = run_cli(["estimate", "--input", str(path)])
        assert code == 2
        assert "line 2" in err and "must match" in err

    def test_non_numeric_value(self, tmp_path):
        path = write_csv(
            tmp_path / "nan.csv",
            SUMMARY_HEADER,
            [["a", "l1", "30", "zero", "1.0", "29"]],
        )
        code, _, err = run_cli(["estimate", "--input", path])
        assert code == 2
        assert "line 2" in err

    def test_duplicate_summary_rows(self, tmp_path):
        path = write_csv(
            tmp_path / "dup.csv",
            SUMMARY_HEADER,
            [
                ["a", "l1", "30", "0.5", "1.0", "29"],
                ["a", "l1", "28", "0.6", "1.1", "27"],
            ],
        )
        code, _, err = run_cli(["estimate", "--input", path])
        assert code == 2

    def test_xy_without_family(self, tmp_path):
        path = write_csv(
            tmp_path / "xy.csv",
            ["task", "site", "x", "y"],
            [["a", "l1", "1.0", "2.0"]],
        )
        code, _, err = run_cli(["estimate", "--input", path])
        assert code == 3
        assert "--family" in err

    def test_family_shape_mismatch(self, summary_file):
        code, _, err = run_cli(
            ["estimate", "--input", summary_file, "--family", "paired"]
        )
        assert code == 3

    def test_unknown_flag(self, summary_file):
        code, _, _ = run_cli(["estimate", "--input", summary_file, "--nope"])
        assert code == 3

    def test_missing_input_flag(self):
        code, out, err = run_cli(["estimate"])
        assert (code, out) == (3, "")
        assert err.startswith("usage: distnull estimate")
        assert err.endswith(
            "distnull estimate: error: the following arguments are required: --input\n"
        )

    def test_non_numeric_flag_value(self, summary_file):
        code, _, err = run_cli(["test", "--input", summary_file, "--alpha", "abc"])
        assert code == 3
        assert "argument --alpha: invalid float value: 'abc'" in err

    def test_zero_variance_names_site(self, tmp_path):
        path = write_csv(
            tmp_path / "zero.csv",
            SUMMARY_HEADER,
            [
                ["a", "l1", "30", "0.5", "0.0", "29"],
                ["a", "l2", "28", "0.6", "1.1", "27"],
            ],
        )
        code, _, err = run_cli(["estimate", "--input", path])
        assert code == 4
        assert "'a'" in err and "'l1'" in err


class TestFamilies:
    def test_two_sample_matches_scipy(self, tmp_path):
        rng_a = [0.3, 1.1, -0.2, 0.8, 0.5, 1.4, 0.1, 0.9]
        rng_b = [1.0, 1.8, 0.6, 2.1, 1.3, 0.7, 1.9, 1.1, 0.4]
        rows = [["a", "l1", "g1", repr(v)] for v in rng_a]
        rows += [["a", "l1", "g2", repr(v)] for v in rng_b]
        path = write_csv(tmp_path / "two.csv", ["task", "site", "group", "value"], rows)
        code, out, _ = run_cli(["test", "--input", path, "--variant", "point"])
        assert code == 0
        row = parse(out)[0]
        expected = scipy.stats.ttest_ind(rng_a, rng_b, equal_var=True)
        assert float(row["t"]) == pytest.approx(expected.statistic, rel=1e-10)
        assert float(row["p_point"]) == pytest.approx(expected.pvalue, rel=1e-10)
        assert row["df"] == str(len(rng_a) + len(rng_b) - 2)

    def test_two_sample_requires_two_groups(self, tmp_path):
        rows = [["a", "l1", "g1", "0.5"], ["a", "l1", "g1", "0.7"]]
        path = write_csv(tmp_path / "one.csv", ["task", "site", "group", "value"], rows)
        code, _, err = run_cli(["test", "--input", path, "--variant", "point"])
        assert code == 2
        assert "need exactly 2" in err

    def test_paired_matches_scipy(self, tmp_path):
        x = [1.2, 0.8, 1.5, 1.1, 0.9, 1.3, 1.0]
        y = [0.9, 0.7, 1.1, 1.2, 0.6, 1.0, 0.8]
        rows = [["a", "l1", repr(a), repr(b)] for a, b in zip(x, y)]
        path = write_csv(tmp_path / "paired.csv", ["task", "site", "x", "y"], rows)
        code, out, _ = run_cli(
            ["test", "--input", path, "--family", "paired", "--variant", "point"]
        )
        assert code == 0
        row = parse(out)[0]
        expected = scipy.stats.ttest_rel(x, y)
        assert float(row["t"]) == pytest.approx(expected.statistic, rel=1e-10)
        assert row["df"] == str(len(x) - 1)

    def test_regression_matches_scipy(self, tmp_path):
        x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        y = [0.1, 0.9, 2.3, 2.8, 4.4, 4.9, 6.2]
        rows = [["a", "l1", repr(a), repr(b)] for a, b in zip(x, y)]
        path = write_csv(tmp_path / "reg.csv", ["task", "site", "x", "y"], rows)
        code, out, _ = run_cli(
            ["test", "--input", path, "--family", "regression", "--variant", "point"]
        )
        assert code == 0
        row = parse(out)[0]
        expected = scipy.stats.linregress(x, y)
        assert float(row["t"]) == pytest.approx(
            expected.slope / expected.stderr, rel=1e-10
        )
        assert row["df"] == str(len(x) - 2)

    def test_contingency_accepts_binary_only(self, tmp_path):
        rows = [["a", "l1", "2", "1"], ["a", "l1", "0", "1"]]
        path = write_csv(tmp_path / "cont.csv", ["task", "site", "x", "y"], rows)
        code, _, err = run_cli(
            ["test", "--input", path, "--family", "contingency", "--variant", "point"]
        )
        assert code == 2
        assert "0 or 1" in err

    def test_contingency_replication_unit_scaling(self, tmp_path):
        # 40 exposed of 100: predictor share 0.4 turns --nr into the
        # information-bearing replication weight Q_r = nr*share*(1-share).
        rows = []
        for x, y, count in ((1, 1, 25), (1, 0, 15), (0, 1, 20), (0, 0, 40)):
            rows += [["a", "l1", str(x), str(y)]] * count
        path = write_csv(tmp_path / "cshare.csv", ["task", "site", "x", "y"], rows)
        code, out, _ = run_cli(
            [
                "predict",
                "--input",
                path,
                "--family",
                "contingency",
                "--b",
                "0.1",
                "--nu0",
                "12",
                "--nr",
                "80",
            ]
        )
        assert code == 0
        row = parse(out)[0]
        assert float(row["n_r"]) == pytest.approx(80 * 0.4 * 0.6, rel=1e-12)
        assert row["df_r"] == "78"


NUMERIC_FLAG_CASES = [
    (["test", "--b", "nan", "--nu0", "7"], "--b"),
    (["test", "--b", "inf", "--nu0", "7"], "--b"),
    (["test", "--b", "0.1", "--nu0", "inf"], "--nu0"),
    (["test", "--variant", "bound", "--bound", "inf"], "--bound"),
    (["test", "--b", "0.1", "--nu0", "7", "--alpha", "nan"], "--alpha"),
    (["predict", "--nr", "40", "--variant", "bound", "--bound", "nan"], "--bound"),
    (["predict", "--nr", "1.5", "--b", "0.1", "--nu0", "7"], "--nr"),
    (["predict", "--nr", "40", "--df-r", "0", "--b", "0.1", "--nu0", "7"], "--df-r"),
    (["bmax", "--alpha", "0.6"], "--alpha"),
    (["test", "--variant", "point", "--scale-e", "0"], "--scale-e"),
    (["predict", "--nr", "inf", "--b", "0.1", "--nu0", "7"], "--nr"),
    (["predict", "--nr", "40", "--df-r", "nan", "--b", "0.1", "--nu0", "7"],
     "--df-r"),
    (["predict", "--nr", "40", "--b", "-1", "--nu0", "7"], "--b"),
    (["predict", "--nr", "40", "--b", "0.1", "--nu0", "0.5"], "--nu0"),
    (["predict", "--nr", "40", "--b", "0.1", "--nu0", "7", "--alpha", "0.5"],
     "--alpha"),
    (["predict", "--nr", "40", "--b", "0.1", "--nu0", "7", "--scale-e", "inf"],
     "--scale-e"),
    (["calibrate", "--scale-e", "-1"], "--scale-e"),
    (["calibrate", "--alphas", "0.05,2"], "--alphas"),
    # power reads no input; TestPowerFlags holds its other flags
    (["power", "--effect", "0.5", "--n", "30", "--alpha", "1"], "--alpha"),
    # b = 0 is the point form, which the distributional variants reject
    (["test", "--b", "0", "--nu0", "7"], "--b"),
    (["predict", "--nr", "40", "--b", "0", "--nu0", "7"], "--b"),
    # 1 - alpha/2 rounds to 1, which leaves no critical value
    (["predict", "--nr", "40", "--b", "0.1", "--nu0", "7", "--alpha", "1e-300"],
     "--alpha"),
    (["bmax", "--alpha", "1e-300"], "--alpha"),
    (["power", "--effect", "0.5", "--n", "30", "--alpha", "1e-300"], "--alpha"),
    (["calibrate", "--alphas", "0.05,1e-300"], "--alphas"),
]


class TestNumericFlags:
    @pytest.mark.parametrize("argv, flag", NUMERIC_FLAG_CASES)
    def test_rejected_before_input_is_read(self, tmp_path, argv, flag):
        # the input file does not exist: a flag check that ran after
        # reading would exit 2, one that ran per site would exit 4
        missing = ["--input", str(tmp_path / "missing.csv")]
        code, out, err = run_cli(argv + (missing if argv[0] != "power" else []))
        assert (code, out) == (3, "")
        assert err.split()[1].rstrip(":") == flag and "task" not in err

    def test_test_needs_no_critical_value(self, summary_file):
        code, out, err = run_cli(["test", "--input", summary_file, "--b", "0.1",
                                  "--nu0", "7", "--alpha", "1e-300"])
        assert (code, err) == (0, "")
        assert {r["significant"] for r in parse(out)} == {"false"}

    def test_every_checked_flag_has_a_case(self):
        power = [(["power"], flag) for _, flag in TestPowerFlags.CASES]
        covered = {(argv[0], flag) for argv, flag in NUMERIC_FLAG_CASES + power}
        checked = {(command, flag) for command, checks in cli._FLAG_CHECKS.items()
                   for flag in checks}
        assert checked == covered


class TestPowerFlags:
    CASES = [
        (["--b", "nan"], "--b"),
        (["--b", "0"], "--b"),
        (["--df", "0"], "--df"),
        (["--df", "nan"], "--df"),
        (["--effect", "nan"], "--effect"),
        (["--n", "nan"], "--n"),
        (["--n", "1"], "--n"),
        (["--target-power", "nan"], "--target-power"),
    ]

    @pytest.mark.parametrize("extra, flag", CASES)
    def test_rejected_with_flag_name(self, extra, flag):
        # power takes no --input; later flags override the base values
        argv = ["power", "--effect", "0.5", "--n", "30"] + extra
        code, out, err = run_cli(argv)
        assert code == 3
        assert out == ""
        assert err.split()[1].rstrip(":") == flag


def _regression_slots(x, y):
    """Least-squares (Q, slope, SSE/(N-2), N-2) by the textbook formulas."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    dx = x - x.mean()
    q = float(np.sum(dx * dx))
    slope = float(np.sum(dx * y)) / q
    residuals = y - y.mean() - slope * dx
    return q, slope, float(np.sum(residuals * residuals)) / (x.size - 2), x.size - 2


def _raw_and_summary(family, rng, shifts=(0.2, 0.5, 0.9), extra=0, reverse=False):
    """One site of one task per shift, as raw rows and as README summary rows.

    ``extra`` adds units to every site, and ``reverse`` writes the sites'
    raw rows in reverse site order.
    """
    blocks, summary = [], []
    for j, shift in enumerate(shifts):
        site, raw = f"s{j}", []
        if family == "one_sample":
            v = rng.normal(shift, 1.0, size=14 + j + extra)
            raw += [["a", site, repr(float(x))] for x in v]
            slots = (v.size, v.mean(), v.var(ddof=1), v.size - 1)
        elif family == "two_sample":
            g1 = rng.normal(shift, 1.0, size=9 + 3 * j + extra)
            g2 = rng.normal(0.0, 1.2, size=16 - j + extra)
            raw += [["a", site, "g1", repr(float(x))] for x in g1]
            raw += [["a", site, "g2", repr(float(x))] for x in g2]
            df = g1.size + g2.size - 2
            pooled = (np.sum((g1 - g1.mean()) ** 2) + np.sum((g2 - g2.mean()) ** 2)) / df
            n_eff = g1.size * g2.size / (g1.size + g2.size)
            slots = (n_eff, g1.mean() - g2.mean(), pooled, df)
        elif family == "paired":
            x = rng.normal(shift, 1.0, size=12 + j + extra)
            y = rng.normal(0.0, 1.0, size=12 + j + extra)
            raw += [["a", site, repr(float(p)), repr(float(q))] for p, q in zip(x, y)]
            d = x - y
            slots = (d.size, d.mean(), d.var(ddof=1), d.size - 1)
        elif family == "regression":
            x = rng.uniform(-2.0, 2.0, size=15 + j + extra)
            y = shift * x + rng.normal(0.0, 1.0, size=x.size)
            raw += [["a", site, repr(float(p)), repr(float(q))] for p, q in zip(x, y)]
            slots = _regression_slots(x, y)
        else:  # contingency: the slope slots of the 0/1 pairs
            x = rng.integers(0, 2, size=40 + 5 * j + extra).astype(float)
            y = (rng.uniform(size=x.size) < 0.3 + 0.2 * shift * x).astype(float)
            raw += [["a", site, str(int(p)), str(int(q))] for p, q in zip(x, y)]
            slots = _regression_slots(x, y)
        blocks.append(raw)
        summary.append(["a", site, *(repr(float(v)) for v in slots)])
    return [row for raw in (blocks[::-1] if reverse else blocks) for row in raw], summary


class TestRawSummaryDifferential:
    """Raw rows and their README summary encoding give the same report."""

    HEADERS = {
        "one_sample": ["task", "site", "value"],
        "two_sample": ["task", "site", "group", "value"],
        "paired": ["task", "site", "x", "y"],
        "regression": ["task", "site", "x", "y"],
        "contingency": ["task", "site", "x", "y"],
    }
    COMMANDS = [
        ["estimate"],
        ["test", "--b", "0.05", "--nu0", "5"],
        ["test", "--b", "0.05", "--nu0", "5", "--variant", "integral"],
        ["bmax"],
    ]

    def check(self, tmp_path, family, raw_rows, summary_rows):
        raw = write_csv(tmp_path / "raw.csv", self.HEADERS[family], raw_rows)
        summary = write_csv(tmp_path / "summary.csv", SUMMARY_HEADER, summary_rows)
        flag = [] if family in ("one_sample", "two_sample") else ["--family", family]
        for command in self.COMMANDS:
            code, out_raw, err = run_cli(command + ["--input", raw] + flag)
            assert code == 0, err
            code, out_summary, err = run_cli(command + ["--input", summary])
            assert code == 0, err
            rows_raw, rows_summary = parse(out_raw), parse(out_summary)
            assert len(rows_raw) == len(rows_summary) == len(summary_rows)
            for got, want in zip(rows_raw, rows_summary):
                assert got.keys() == want.keys()
                for column, text in want.items():
                    try:
                        expected = float(text)
                    except ValueError:
                        assert got[column] == text, (command, column)
                        continue
                    assert float(got[column]) == pytest.approx(
                        expected, rel=1e-12
                    ), (command, column)

    @pytest.mark.parametrize("family", list(HEADERS))
    def test_same_report(self, tmp_path, family):
        raw_rows, summary_rows = _raw_and_summary(family, np.random.default_rng(31))
        self.check(tmp_path, family, raw_rows, summary_rows)

    @pytest.mark.parametrize("family", list(HEADERS))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shifts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5),
        extra=st.integers(0, 30),
        reverse=st.booleans(),
    )
    def test_same_report_on_generated_files(self, family, seed, shifts, extra, reverse):
        raw_rows, summary_rows = _raw_and_summary(
            family, np.random.default_rng(seed), shifts, extra, reverse
        )
        with tempfile.TemporaryDirectory() as tmp:
            self.check(pathlib.Path(tmp), family, raw_rows, summary_rows)


class TestTest:
    def test_closed_requires_variance_source(self, summary_file):
        code, _, err = run_cli(["test", "--input", summary_file])
        assert code == 3

    def test_b_requires_nu0(self, summary_file):
        code, _, err = run_cli(["test", "--input", summary_file, "--b", "0.1"])
        assert code == 3

    def test_b_conflicts_with_b_from(self, summary_file, tmp_path):
        est = str(tmp_path / "est.csv")
        run_cli(["estimate", "--input", summary_file, "--output", est])
        code, _, err = run_cli(
            ["test", "--input", summary_file, "--b", "0.1", "--nu0", "5",
             "--b-from", est]
        )
        assert code == 3

    def test_point_rejects_variance_source(self, summary_file):
        code, _, err = run_cli(
            ["test", "--input", summary_file, "--variant", "point",
             "--b", "0.1", "--nu0", "5"]
        )
        assert code == 3

    def test_bound_flag_pairing(self, summary_file):
        code, _, err = run_cli(["test", "--input", summary_file, "--variant", "bound"])
        assert code == 3
        code, _, err = run_cli(
            ["test", "--input", summary_file, "--bound", "0.5"]
        )
        assert code == 3

    def test_nu0_two_is_fine_for_significance(self, summary_file):
        # the significance mixture only needs one t-quantile, but the
        # replication form divides by nu0 - 2
        code, out, _ = run_cli(
            ["test", "--input", summary_file, "--b", "0.1", "--nu0", "2"]
        )
        assert code == 0
        assert all(r["nu0_used"] == "2" for r in parse(out))
        code, _, err = run_cli(
            ["predict", "--input", summary_file, "--b", "0.1", "--nu0", "2",
             "--nr", "40"]
        )
        assert code == 4
        assert "nu0" in err

    def test_direction_is_the_sign_of_t(self, tmp_path):
        path = write_csv(tmp_path / "signs.csv", SUMMARY_HEADER, [
            ["a", "s1", "10", "-0.5", "1.0", "9"],
            ["a", "s2", "10", "0.5", "1.0", "9"],
            ["a", "s3", "10", "0", "1.0", "9"],
        ])
        code, out, err = run_cli(["test", "--input", path, "--variant", "point"])
        assert (code, err) == (0, "")
        assert [r["direction"] for r in parse(out)] == ["negative", "positive", "positive"]

    def test_point_variant_leaves_mixture_columns_empty(self, summary_file):
        code, out, _ = run_cli(["test", "--input", summary_file, "--variant", "point"])
        assert code == 0
        for row in parse(out):
            assert row["t0"] == "" and row["b_used"] == "" and row["nu0_used"] == ""
            assert row["p_sig"] == row["p_point"]

    def test_bound_variant_is_p_sig_bound_per_site(self, summary_file):
        code, out, err = run_cli(
            ["test", "--input", summary_file, "--variant", "bound", "--bound", "0.5"]
        )
        assert (code, err) == (0, "")
        _, sites = cli.load_sites(summary_file, None)
        for i, row in enumerate(parse(out)):
            assert [row["p_sig"]] == cli._probs([p_sig_bound(sites.statistic(i), 0.5)])

    def test_bound_variant_populates_bound_column(self, summary_file):
        code, out, _ = run_cli(
            ["test", "--input", summary_file, "--variant", "bound", "--bound", "0.5"]
        )
        assert code == 0
        for row in parse(out):
            assert row["bound"] == "0.5"
            assert row["b_used"] == "" and row["variant"] == "bound"
            assert float(row["p_sig"]) > float(row["p_point"])

    def test_direction_veto(self, summary_file):
        base = run_cli(
            ["test", "--input", summary_file, "--variant", "point", "--alpha", "0.05"]
        )[1]
        vetoed = run_cli(
            ["test", "--input", summary_file, "--variant", "point", "--alpha", "0.05",
             "--direction", "negative"]
        )[1]
        significant = {r["site"]: r["significant"] for r in parse(base) if r["task"] == "alpha"}
        assert "true" in significant.values()
        for row in parse(vetoed):
            if row["task"] == "alpha":
                # observed direction is reported, not overwritten
                assert row["direction"] == "positive"
                assert row["significant"] == "false"

    def test_scale_e_must_be_positive(self, summary_file):
        code, _, err = run_cli(
            ["test", "--input", summary_file, "--variant", "point",
             "--scale-e", "-1"]
        )
        assert code == 3

    def test_quadrature_failure_names_its_site(self, tmp_path, monkeypatch):
        # No natural input exhausts the rule's budget, so allow one step
        # halving: F(30, 3) is narrow enough in log b to be certified
        # with it, F(1, 3) is not.
        monkeypatch.setattr(distributions, "RULE_LEVELS", 1)
        path = write_csv(tmp_path / "quad.csv", SUMMARY_HEADER, [
            ["a", "s0", "50", "0.1", "1", "30"],
            ["a", "s1", "50", "0.7071067811865476", "1", "1"],
        ])
        argv = ["test", "--input", path, "--variant", "integral",
                "--b", "1e-6", "--nu0", "3"]
        code, out, err = run_cli(argv)
        assert (code, out) == (5, "")
        assert err.startswith(
            "error: task 'a' site 's1': quadrature did not reach requested tolerance"
            " (best estimate "
        )
        with pytest.raises(NumericError) as raised:
            cli.cmd_test(cli.build_parser().parse_args(argv))
        assert str(raised.value).startswith("task 'a' site 's1': ")
        assert raised.value.best_estimate > 0 and raised.value.error_bound > 0

    def test_integral_overflowing_b_is_silent(self, summary_file):
        # b * b_hat * N overflows to inf at most of the rule's nodes, where
        # the kernel takes its limit 1, without a warning
        code, out, err = run_cli(["test", "--input", summary_file, "--variant", "integral",
                                  "--b", "1e300", "--nu0", "3"])
        assert (code, err) == (0, "")
        assert all(float(r["p_sig"]) > 1.0 - 1e-9 for r in parse(out))

    def test_probability_floor_strings(self, tmp_path):
        path = write_csv(
            tmp_path / "huge.csv",
            SUMMARY_HEADER,
            [
                ["a", "l1", "200", "190.0", "1.0", "199"],
                ["a", "l2", "200", "185.0", "1.1", "199"],
            ],
        )
        code, out, _ = run_cli(["test", "--input", path, "--variant", "point"])
        assert code == 0
        row = parse(out)[0]
        assert row["p_point"] == "<1e-320"
        assert row["log10_p_point"] == "<-320"

    def test_roundtrip_b_from_estimate(self, summary_file, tmp_path):
        est = str(tmp_path / "est.csv")
        assert run_cli(["estimate", "--input", summary_file, "--output", est])[0] == 0
        code, out, _ = run_cli(["test", "--input", summary_file, "--b-from", est])
        assert code == 0
        with open(est, newline="") as handle:
            estimates = {
                (r["task"], r["site"]): r for r in csv.DictReader(handle)
            }
        rows = parse(out)
        assert len(rows) == len(estimates)
        for row in rows:
            source = estimates[(row["task"], row["site"])]
            assert row["b_used"] == source["b_hat"]
            assert row["nu0_used"] == source["nu0"]

    @pytest.mark.parametrize("variant", ["closed", "integral"])
    def test_b_hat_without_nu0_is_a_parse_error(self, summary_file, tmp_path, variant):
        # estimate leaves b_hat empty for single-site and degenerate tasks
        # (a degenerate row keeps its nu0), but writes no b_hat without nu0
        est = write_csv(tmp_path / "est.csv", ["task", "site", "b_hat", "nu0"],
                        [["alpha", "lab1", "0.3", "5"], ["alpha", "lab2", "0.3", ""]])
        argv = ["test", "--input", summary_file, "--variant", variant, "--b-from", est]
        assert run_cli(argv) == (2, "", "error: line 3: missing nu0\n")


class TestPredict:
    def test_requires_nr(self, summary_file):
        code, _, err = run_cli(
            ["predict", "--input", summary_file, "--b", "0.1", "--nu0", "12"]
        )
        assert code == 3

    def test_default_df_r(self, summary_file):
        code, out, _ = run_cli(
            ["predict", "--input", summary_file, "--b", "0.1", "--nu0", "12",
             "--nr", "40"]
        )
        assert code == 0
        for row in parse(out):
            assert row["df_r"] == "39"
            assert 0.0 <= float(row["p_rep"]) <= 1.0
            assert float(row["b_max"]) > 0.0

    def test_explicit_df_r_and_alias(self, summary_file):
        out_a = run_cli(
            ["predict", "--input", summary_file, "--b", "0.1", "--nu0", "12",
             "--nr", "40", "--df-r", "35"]
        )
        out_b = run_cli(
            ["predict", "--input", summary_file, "--b", "0.1", "--nu0", "12",
             "--n-rep", "40", "--df-rep", "35"]
        )
        assert out_a[0] == 0 and out_a == out_b
        assert all(r["df_r"] == "35" for r in parse(out_a[1]))

    def test_regression_requires_explicit_df_r(self, tmp_path):
        x = [0.0, 1.0, 2.0, 3.0, 4.0]
        y = [0.2, 1.1, 1.8, 3.3, 3.9]
        rows = [["a", "l1", repr(a), repr(b)] for a, b in zip(x, y)]
        path = write_csv(tmp_path / "reg.csv", ["task", "site", "x", "y"], rows)
        args = ["predict", "--input", path, "--family", "regression",
                "--b", "0.1", "--nu0", "12", "--nr", "25"]
        code, _, err = run_cli(args)
        assert code == 3
        assert "--df-r" in err
        code, out, _ = run_cli(args + ["--df-r", "23"])
        assert code == 0

    @pytest.mark.parametrize("family", ["two_sample", "contingency"])
    def test_two_group_small_nr_is_configuration_error(self, tmp_path, family):
        # balanced halves: the effective replication size is nr/4
        if family == "two_sample":
            rows = [["a", "l1", g, v] for g, v in
                    (("g1", "0.1"), ("g1", "0.9"), ("g2", "0.4"), ("g2", "1.6"))]
            path = write_csv(tmp_path / "two.csv", ["task", "site", "group", "value"],
                             rows)
            flags = []
        else:
            rows = [["a", "l1", x, y] for x, y in
                    (("1", "1"), ("1", "0"), ("0", "0"), ("0", "1"))]
            path = write_csv(tmp_path / "cont.csv", ["task", "site", "x", "y"], rows)
            flags = ["--family", "contingency"]
        args = ["predict", "--input", path, *flags, "--b", "0.1", "--nu0", "5"]
        code, _, err = run_cli(args + ["--nr", "2"])
        assert code == 3
        assert "--nr" in err and "--df-r" in err and "site" not in err
        # an effective replication size below 2 is valid: only n_r > 0 is required
        code, out, err = run_cli(args + ["--nr", "6"])
        assert (code, err) == (0, "")
        row = parse(out)[0]
        assert row["n_r"] == "1.5" and row["df_r"] == "4"
        code, out, _ = run_cli(args + ["--nr", "8", "--df-r", "3"])
        assert code == 0
        row = parse(out)[0]
        assert row["n_r"] == "2" and row["df_r"] == "3"

    def test_zero_t_leaves_diagnostics_empty(self, tmp_path):
        path = write_csv(
            tmp_path / "zt.csv",
            SUMMARY_HEADER,
            [
                ["a", "l1", "30", "0.0", "1.0", "29"],
                ["a", "l2", "28", "0.5", "1.1", "27"],
            ],
        )
        code, out, _ = run_cli(
            ["predict", "--input", path, "--b", "0.1", "--nu0", "12", "--nr", "40"]
        )
        assert code == 0
        flat, nonflat = parse(out)
        assert flat["t"] == "0"
        assert flat["tau"] == "" and flat["z_max"] == "" and flat["b_max"] == ""
        assert nonflat["b_max"] != ""

    def test_integral_overflowing_b_reaches_the_limit(self, tmp_path):
        # b*N overflows: the forecast is the b -> inf limit 0, as in the
        # closed form, not a NaN quadrature failure
        path = write_csv(tmp_path / "two.csv", SUMMARY_HEADER, [
            ["a", "s1", "40", "0.5", "1.0", "39"],
            ["a", "s2", "35", "0.3", "1.2", "34"],
        ])
        for variant in ("closed", "integral"):
            code, out, err = run_cli([
                "predict", "--input", path, "--variant", variant,
                "--b", "1e280", "--nu0", "5", "--nr", "30",
            ])
            assert (code, err) == (0, "")
            assert {r["p_rep"] for r in parse(out)} == {"<1e-320"}


    def test_bound_variant_is_p_rep_bound_per_site(self, summary_file):
        code, out, err = run_cli([
            "predict", "--input", summary_file, "--variant", "bound", "--bound", "0.3",
            "--nr", "40",
        ])
        assert (code, err) == (0, "")
        _, sites = cli.load_sites(summary_file, None)
        rows = parse(out)
        assert [(r["task"], r["site"]) for r in rows] == [
            (sites.task_ids[j], site) for j, site in zip(sites.task_of, sites.site_ids)]
        for i, row in enumerate(rows):
            query = ReplicationQuery(sites.statistic(i), 40.0, 39.0, 0.05)
            assert [row["p_rep"]] == cli._probs([p_rep_bound(query, 0.3)])
            assert (row["bound"], row["b_used"], row["nu0_used"]) == ("0.3", "", "")

    def test_integral_value_near_zero_is_uncertified_at_nu0_5(self, summary_file):
        # the F(25, 5) and F(25, 29) weights that underflow outside the
        # rule's nodes hold 1.16e-320, above the 1e-320 tolerance of 0
        code, out, err = run_cli([
            "predict", "--input", summary_file, "--variant", "integral",
            "--b", "1e280", "--nu0", "5", "--nr", "30",
        ])
        assert (code, out) == (5, "")
        assert err == (
            "error: task 'beta' site 'lab2': quadrature did not reach requested"
            " tolerance (best estimate 0.0, error bound 1.1625e-320)\n"
        )


    def test_integral_error_names_the_first_uncertified_site(self, tmp_path):
        # s2's p_rep is near 0 at nu0 = 1, below the F mass beyond the rule's
        # nodes, while the sites before and after it are certified
        path = write_csv(tmp_path / "four.csv", SUMMARY_HEADER, [
            ["a", "s0", "40", "0.5", "1.0", "39"],
            ["a", "s1", "35", "0.3", "1.2", "34"],
            ["a", "s2", "30", "0.6", "1.0", "29"],
            ["a", "s3", "30", "0.4", "1.0", "29"],
        ])
        est = write_csv(tmp_path / "est.csv", ["task", "site", "b_hat", "nu0"], [
            ["a", "s0", "0.1", "5"], ["a", "s1", "0.1", "5"],
            ["a", "s2", "1e280", "1"], ["a", "s3", "0.1", "5"],
        ])
        code, out, err = run_cli([
            "predict", "--input", path, "--variant", "integral", "--b-from", est, "--nr", "30",
        ])
        assert (code, out) == (5, "")
        assert err.startswith(
            "error: task 'a' site 's2': quadrature did not reach requested tolerance"
        )

    def test_integral_rule_rounds_do_not_grow_with_the_sites(self, tmp_path, monkeypatch):
        # the sites' rules advance in lockstep, one kernel call a round, so 32
        # sites of a task make as many t-tail calls as 8 of them
        calls = []
        tail = distributions._t_tail

        def counting(x, nu):
            calls.append(np.size(x))
            return tail(x, nu)

        monkeypatch.setattr(distributions, "_t_tail", counting)
        monkeypatch.setattr(significance, "_t_tail", counting)
        rows = [["a", f"s{i:02d}", "40", repr(0.1 + 0.025 * i), "1.0", "39"] for i in range(32)]
        counts = []
        for k in (8, 32):
            path = write_csv(tmp_path / f"sites{k}.csv", SUMMARY_HEADER, rows[:k])
            calls.clear()
            code, _, err = run_cli([
                "predict", "--input", path, "--variant", "integral", "--b", "0.1",
                "--nu0", "5", "--nr", "40",
            ])
            assert (code, err) == (0, "")
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2 * RULE_LEVELS + 2


class TestCalibrate:
    def test_single_site_task_warns_and_skips(self, tmp_path):
        # four sites keep nu0 = 3 above the replication-form floor
        rows = [
            ["a", "l1", "40", "0.5", "1.0", "39"],
            ["a", "l2", "40", "0.55", "1.1", "39"],
            ["a", "l3", "40", "0.45", "0.9", "39"],
            ["a", "l4", "40", "0.6", "1.0", "39"],
            ["lonely", "l1", "30", "0.2", "1.0", "29"],
        ]
        path = write_csv(tmp_path / "cal.csv", SUMMARY_HEADER, rows)
        code, out, err = run_cli(["calibrate", "--input", path])
        assert code == 0
        assert "lonely" in err and "skipped" in err

    @staticmethod
    def zero_between_variance_tasks() -> tuple[list[list[str]], list[list[str]]]:
        """Task a, and task b, whose means spread less than its noise
        explains, so that the moment S0^2 clamps to 0 and b carries no
        forecast."""
        sites = [("l1", "30", "1.0"), ("l2", "35", "1.2"),
                 ("l3", "40", "1.5"), ("l4", "32", "1.1")]
        a = [["a", site, n, mean, var, str(int(n) - 1)]
             for (site, n, var), mean in zip(sites, ("0.5", "0.2", "0.9", "0.7"))]
        b = [["b", site, n, mean, var, str(int(n) - 1)]
             for (site, n, var), mean in zip(sites, ("0.10", "0.11", "0.12", "0.12"))]
        return a, b

    def test_zero_between_variance_task_warns_and_skips(self, tmp_path):
        a, b = self.zero_between_variance_tasks()

        def calibrate(name, rows):
            path = write_csv(tmp_path / name, SUMMARY_HEADER, rows)
            return run_cli(["calibrate", "--mode", "moment", "--input", path])

        code, out, err = calibrate("ab.csv", a + b)
        assert code == 0
        assert err == "warning: task 'b' has S0^2 = 0; skipped\n"
        assert (code, out, "") == calibrate("a.csv", a)
        code, out, err = calibrate("b.csv", b)
        assert (code, out) == (4, "")
        assert "skipped" in err and "nothing to calibrate" in err

    @classmethod
    def infinite_b_hat_tasks(cls) -> list[list[str]]:
        """Task a, and task b, whose S0^2 is about 0.156 but whose site l3
        has variance 1e-310, so that l3's b-hat overflows."""
        b = [["b", "l1", "30", "0.1", "1.0", "29"], ["b", "l2", "35", "0.5", "1.2", "34"],
             ["b", "l3", "40", "0.9", "1e-310", "39"], ["b", "l4", "32", "0.2", "1.1", "31"]]
        return cls.zero_between_variance_tasks()[0] + b

    def test_only_a_zero_fit_is_skipped(self, tmp_path):
        path = write_csv(tmp_path / "inf.csv", SUMMARY_HEADER, self.infinite_b_hat_tasks())
        assert run_cli(["calibrate", "--input", path]) == (
            4, "", "error: task 'b': " + TestErrorPrecedence.B_HAT_INF + "\n")

    def test_pairs_of_all_kept_tasks_come_from_one_call(self, tmp_path, monkeypatch):
        a, b = self.zero_between_variance_tasks()
        path = write_csv(tmp_path / "ab.csv", SUMMARY_HEADER, a + b)
        calls, pairs = [], oracle.task_pair_records

        def counted(sites, *args, **kwargs):
            calls.append(sites)
            return pairs(sites, *args, **kwargs)

        monkeypatch.setattr(oracle, "task_pair_records", counted)
        code, _, err = run_cli(["calibrate", "--mode", "moment", "--input", path])
        assert (code, err) == (0, "warning: task 'b' has S0^2 = 0; skipped\n")
        assert len(calls) == 1 and calls[0].task_ids == ["a"]

    def test_integral_variant_warns_and_skips_a_zero_between_variance_task(self, tmp_path):
        a, b = self.zero_between_variance_tasks()

        def calibrate(name, rows):
            path = write_csv(tmp_path / name, SUMMARY_HEADER, rows)
            return run_cli(["calibrate", "--mode", "moment", "--variant", "integral",
                            "--alphas", "0.05", "--input", path])

        code, out, err = calibrate("ab.csv", a + b)
        assert code == 0
        assert err == "warning: task 'b' has S0^2 = 0; skipped\n"
        assert (code, out, "") == calibrate("a.csv", a)

    def test_integral_variant_bins_direct_forecasts(self, tmp_path):
        # four significant sites and one that is not; 20 pairs in 10 bins
        rows = [
            ["a", "l1", "60", "0.9", "1.0", "59"],
            ["a", "l2", "50", "0.95", "1.2", "49"],
            ["a", "l3", "40", "0.6", "0.8", "39"],
            ["a", "l4", "70", "0.85", "1.1", "69"],
            ["a", "l5", "45", "0.92", "1.0", "44"],
        ]
        path = write_csv(tmp_path / "cal.csv", SUMMARY_HEADER, rows)
        code, out, err = run_cli([
            "calibrate", "--input", path, "--variant", "integral", "--alphas", "0.05",
        ])
        assert (code, err) == (0, "")
        _, sites = cli.load_sites(path, None)
        task = TaskSet("a", tuple(map(sites.summary, range(len(sites)))))
        b0 = between_variance(task)
        stats = [statistic_from_summary(e) for e in task.experiments]
        b_hats = [variance_ratio(b0, e) for e in task.experiments]
        significant = [p_sig_integral(s, bh, b0.nu0) <= 0.05 for s, bh in zip(stats, b_hats)]
        bins = {}
        for i, (stat, b_hat) in enumerate(zip(stats, b_hats)):
            for j, target in enumerate(task.experiments):
                if j == i:
                    continue
                query = ReplicationQuery(stat, target.n, target.df, 0.05)
                forecast = p_rep_integral(query, b_hat, b0.nu0)
                success = significant[j] and (stats[j].t < 0) == (stat.t < 0)
                key = (cli._bool(significant[i]), min(int(forecast * 40), 39))
                bins.setdefault(key, []).append((forecast, success))
        got = {(r["predictor_significant"], round(float(r["lower"]) * 40)): r
               for r in parse(out)}
        assert got.keys() == bins.keys()
        for key, pairs in bins.items():
            row = got[key]
            assert int(row["pairs"]) == len(pairs)
            assert float(row["mean_forecast"]) == pytest.approx(
                sum(f for f, _ in pairs) / len(pairs), rel=1e-11
            )
            assert float(row["observed_rate"]) == pytest.approx(
                sum(ok for _, ok in pairs) / len(pairs), rel=1e-11
            )

    def test_all_single_site_is_domain_error(self, tmp_path):
        path = write_csv(
            tmp_path / "cal1.csv",
            SUMMARY_HEADER,
            [["a", "l1", "40", "0.5", "1.0", "39"]],
        )
        code, _, err = run_cli(["calibrate", "--input", path])
        assert code == 4

    def test_included_bin_and_direction(self, tmp_path):
        # ten concordant sites pool 90 pairs into one saturated bin
        rows = [
            ["alpha", f"lab{i:02d}", "60", f"{0.9 + 0.004 * i:.4f}", "1.0", "59"]
            for i in range(10)
        ]
        path = write_csv(tmp_path / "cal90.csv", SUMMARY_HEADER, rows)
        code, out, err = run_cli(["calibrate", "--input", path, "--alphas", "0.05"])
        assert code == 0 and err == ""
        rows = parse(out)
        assert len(rows) == 1
        bin_row = rows[0]
        assert bin_row["pairs"] == "90"
        assert bin_row["included"] == "true"
        assert bin_row["direction"] == "underestimation"
        assert bin_row["observed_rate"] == "1"

    def test_sparse_bins_leave_direction_empty(self, tmp_path):
        rows = [
            ["a", "l1", "40", "0.5", "1.0", "39"],
            ["a", "l2", "40", "0.9", "1.1", "39"],
            ["a", "l3", "40", "0.1", "0.9", "39"],
            ["a", "l4", "40", "0.7", "1.0", "39"],
        ]
        path = write_csv(tmp_path / "cal6.csv", SUMMARY_HEADER, rows)
        code, out, _ = run_cli(["calibrate", "--input", path, "--alphas", "0.05"])
        assert code == 0
        for row in parse(out):
            assert row["included"] == "false"
            assert row["direction"] == ""

    def test_two_sample_effective_size_below_two(self, tmp_path):
        # 3+3 values per site: each site's n, and so each n_r, is 1.5
        rng = np.random.default_rng(3)
        rows = [
            ["a", f"l{s}", g, repr(float(v))]
            for s in range(4)
            for g, shift in (("g1", 0.8), ("g2", 0.0))
            for v in rng.normal(shift, 1.0, size=3)
        ]
        path = write_csv(tmp_path / "two.csv", ["task", "site", "group", "value"], rows)
        code, out, err = run_cli(["calibrate", "--input", path, "--alphas", "0.05"])
        assert (code, err) == (0, "")
        assert sum(int(r["pairs"]) for r in parse(out)) == 12

    def test_regression_slope_size_below_two(self, tmp_path):
        # x in 0..0.5: each site's Q, and so each n_r, is 0.175
        rng = np.random.default_rng(4)
        rows = [
            ["a", f"l{s}", f"{x:.1f}", repr(float(2.0 * x + rng.normal(0.0, 0.3)))]
            for s in range(4)
            for x in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        ]
        path = write_csv(tmp_path / "reg.csv", ["task", "site", "x", "y"], rows)
        code, out, err = run_cli([
            "calibrate", "--input", path, "--family", "regression", "--alphas", "0.05",
        ])
        assert (code, err) == (0, "")
        assert sum(int(r["pairs"]) for r in parse(out)) == 12

    def test_target_site_of_huge_df_is_binned(self, tmp_path):
        # the t tail at df = 1e200 and |t| of 1e84 or more was NaN (0·inf), and
        # a NaN forecast broke the binning with a traceback
        rows = [
            ["a", "s0", "32", "0.1358874102905417", "1e-170", "31"],
            ["a", "s1", "1000000", "-0.11663883274673548", "1e-300", "2.5"],
            ["a", "s2", "38", "-1", "1.607375275723221", "37"],
            ["a", "s3", "28", "0.06602070354144635", "3", "1e200"],
        ]
        path = write_csv(tmp_path / "huge.csv", SUMMARY_HEADER, rows)
        code, out, err = run_cli(["calibrate", "--input", path])
        assert (code, err) == (0, "")
        assert sum(int(r["pairs"]) for r in parse(out)) == 4 * 3 * 5

    def test_alpha_list_validation(self, summary_file):
        # alphas are parsed before any data is read
        for bad in ("0.05,foo", "0.05,1.5", "0.05,0.05", ""):
            code, _, err = run_cli(
                ["calibrate", "--input", summary_file, "--alphas", bad]
            )
            assert code == 3, bad

    def test_blank_alpha_segments_are_skipped(self, tmp_path):
        rows = [
            ["alpha", f"lab{i:02d}", "60", f"{0.9 + 0.004 * i:.4f}", "1.0", "59"]
            for i in range(10)
        ]
        path = write_csv(tmp_path / "blank.csv", SUMMARY_HEADER, rows)
        lenient = run_cli(["calibrate", "--input", path, "--alphas", "0.05,,"])
        strict = run_cli(["calibrate", "--input", path, "--alphas", "0.05"])
        assert lenient[0] == 0
        assert lenient[1] == strict[1]


class TestPower:
    HEADER = (
        "effect,n,df,alpha,b,beta_point,power_point,beta_distributional,"
        "power_distributional,power_ceiling,target_power,feasible,required_n"
    )

    def test_known_b_infeasible_target(self):
        code, out, _ = run_cli(
            ["power", "--effect", "0.5", "--n", "30", "--alpha", "0.05",
             "--b", "0.2", "--target-power", "0.8"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == self.HEADER
        row = parse(out)[0]
        assert float(row["power_distributional"]) < float(row["power_ceiling"]) < 0.8
        assert row["feasible"] == "false"
        assert row["required_n"] == ""

    def test_point_form_feasible_target(self):
        code, out, _ = run_cli(
            ["power", "--effect", "0.5", "--n", "30", "--alpha", "0.05",
             "--target-power", "0.8"]
        )
        row = parse(out)[0]
        assert code == 0
        assert row["b"] == "" and row["power_distributional"] == ""
        assert row["feasible"] == "true"
        assert row["required_n"] == "34"

    def test_zero_effect_unreachable(self):
        code, out, _ = run_cli(
            ["power", "--effect", "0", "--n", "30", "--alpha", "0.05",
             "--target-power", "0.8"]
        )
        row = parse(out)[0]
        assert row["feasible"] == "false" and row["required_n"] == ""
        assert row["power_point"] == "0.05"

    def test_no_target_leaves_feasibility_empty(self):
        code, out, _ = run_cli(
            ["power", "--effect", "0.5", "--n", "30", "--alpha", "0.05",
             "--b", "0.1"]
        )
        row = parse(out)[0]
        assert row["target_power"] == "" and row["feasible"] == ""
        assert float(row["power_distributional"]) < float(row["power_point"])


class TestSimulate:
    CONFIG = {
        "mu0": 1.0,
        "sigma0": 0.3,
        "n_per_experiment": 5,
        "k_experiments": 3,
        "n_tasks": 2,
        "alpha_levels": [0.05],
        "seed": 5,
    }

    def write_config(self, tmp_path, **overrides):
        config = dict(self.CONFIG)
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_deterministic_output(self, tmp_path):
        config = self.write_config(tmp_path)
        first = run_cli(["simulate", "--config", config])
        second = run_cli(["simulate", "--config", config])
        assert first[0] == 0
        assert first[1] == second[1]
        rows = parse(first[1])
        assert len(rows) == 2 * 3 * 5
        assert rows[0]["task"] == "task0000" and rows[0]["site"] == "site0000"

    def test_seed_override(self, tmp_path):
        config = self.write_config(tmp_path)
        base = run_cli(["simulate", "--config", config])
        other = run_cli(["simulate", "--config", config, "--seed", "6"])
        assert base[1] != other[1]

    def test_output_feeds_estimate(self, tmp_path):
        config = self.write_config(tmp_path)
        raw = str(tmp_path / "raw.csv")
        assert run_cli(["simulate", "--config", config, "--output", raw])[0] == 0
        code, out, _ = run_cli(["estimate", "--input", raw])
        assert code == 0
        rows = parse(out)
        assert len(rows) == 2 * 3
        assert all(r["k"] == "3" for r in rows)

    def test_unknown_config_key(self, tmp_path):
        config = self.write_config(tmp_path, bogus_key=1)
        code, _, err = run_cli(["simulate", "--config", config])
        assert code == 3
        assert "bogus_key" in err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run_cli(["simulate", "--config", str(path)])
        assert code == 2

    def test_non_utf8_config(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": 5, "mu0": 1.0} \xff')
        code, out, err = run_cli(["simulate", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path} is not UTF-8 text (invalid start byte)\n"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # as for --input and --b-from files
        plain = self.write_config(tmp_path)
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + json.dumps(self.CONFIG).encode())
        expected = run_cli(["simulate", "--config", plain])
        assert expected[0] == 0
        assert run_cli(["simulate", "--config", str(bom)]) == expected

    def test_invalid_config_value(self, tmp_path):
        config = self.write_config(tmp_path, sigma0=-1.0)
        code, _, err = run_cli(["simulate", "--config", config])
        assert code == 3

    @pytest.mark.parametrize("overrides, message", [
        ({"n_per_experiment": 10.5}, "n_per_experiment must be an integer >= 2, got 10.5"),
        ({"k_experiments": 2.5}, "k_experiments must be an integer >= 2, got 2.5"),
        ({"n_tasks": 1.5}, "n_tasks must be an integer >= 1, got 1.5"),
        ({"seed": True}, "seed must be a 64-bit unsigned integer, got True"),
        ({"alpha_levels": [0.05, "x"]}, "alpha level must be a number, got 'x'"),
        ({"sigma0": "0.2"}, "sigma0 must be a number, got '0.2'"),
        ({"mu0": False}, "mu0 must be a number, got False"),
        ({"variance_scale_e": 1e400}, "variance_scale_e must be finite and > 0, got inf"),
    ])
    def test_each_key_is_checked_and_named(self, tmp_path, overrides, message):
        config = self.write_config(tmp_path, **overrides)
        assert run_cli(["simulate", "--config", config]) == (
            3, "", f"error: {config}: {message}\n")

    def test_draws_that_overflow_are_not_written(self, tmp_path):
        config = self.write_config(tmp_path, mu0=1e308, sigma=1e308, n_tasks=1, k_experiments=4,
                                   n_per_experiment=50)
        raw = tmp_path / "raw.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["simulate", "--config", config, "--output", str(raw)]) == (
                4, "", "error: task 'task0000': draws must be finite; mu0, sigma0 or sigma is "
                "too large\n")
        assert not raw.exists()


class TestBmax:
    def test_columns_and_zero_t(self, tmp_path):
        path = write_csv(
            tmp_path / "bm.csv",
            SUMMARY_HEADER,
            [
                ["a", "l1", "30", "0.0", "1.0", "29"],
                ["a", "l2", "30", "0.7", "1.0", "29"],
            ],
        )
        code, out, _ = run_cli(["bmax", "--input", path])
        assert code == 0
        flat, nonflat = parse(out)
        assert flat["tau"] == "" and flat["b_max"] == ""
        tau = float(nonflat["tau"])
        z_max = float(nonflat["z_max"])
        assert 0.0 < z_max <= tau
        assert float(nonflat["b_max"]) == pytest.approx(z_max / 30.0, rel=1e-10)

    def test_critical_value_keeps_the_digits_of_a_small_alpha(self, tmp_path):
        # T^-1(1 - alpha/2) would lose alpha's low digits to the rounding of
        # 1 - alpha/2 and print tau 0.743465652441; the 40-digit root of
        # T_29(-x) = 5e-10 gives 0.743465649567
        path = write_csv(tmp_path / "bm.csv", SUMMARY_HEADER, [["a", "s1", "30", "1.2", "1", "29"]])
        code, out, err = run_cli(["bmax", "--alpha", "1e-9", "--input", path])
        assert (code, err) == (0, "")
        assert parse(out)[0]["tau"] == "0.743465649567"

    def test_extreme_t_gets_finite_cells(self, tmp_path):
        # tau^2 would underflow and overflow here
        path = write_csv(tmp_path / "bm.csv", SUMMARY_HEADER, [
            ["a", "l1", "30", "1e-170", "1.0", "29"],
            ["a", "l2", "30", "1e160", "1.0", "29"],
        ])
        code, out, err = run_cli(["bmax", "--input", path])
        assert (code, err) == (0, "")
        for row in parse(out):
            cells = [float(row[k]) for k in ("tau", "z_max", "b_max")]
            assert all(math.isfinite(c) and c > 0.0 for c in cells)

    def test_alpha_passthrough(self, summary_file):
        strict = run_cli(["bmax", "--input", summary_file, "--alpha", "0.01"])
        loose = run_cli(["bmax", "--input", summary_file, "--alpha", "0.1"])
        assert strict[0] == 0 and loose[0] == 0
        for tight, wide in zip(parse(strict[1]), parse(loose[1])):
            # smaller alpha raises the significance bar, shrinking tau
            assert float(tight["tau"]) < float(wide["tau"])


class TestErrorPrecedence:
    """Multi-fault inputs: the first faulty site in (task, site) order is named.

    Within a site the checks run in the order a site is computed: its
    variance lookup, then its forecast or significance, then its b_max
    cells. Closed-form columns are computed for all sites at once, so
    these pin the exit code and the whole stderr of each case.
    """

    SITES = [
        ["a", "s1", "30", "0.5", "1.0", "29"],
        ["a", "s2", "28", "0.4", "1.1", "27"],
        ["a", "s3", "33", "0.3", "1.2", "32"],
        ["b", "s1", "25", "0.2", "1.0", "24"],
    ]
    # s1 has t = 0 (empty b_max cells), s2 and s3 tiny and huge t, whose
    # b_max = z_max / N underflows to 0 (t = 1e-100, N = 1e250), or
    # overflows to inf (t = 2.2e138, N = 5e-324)
    TINY, HUGE = ["1e250", "1e-225", "1.0", "29"], ["5e-324", "1e300", "1.0", "29"]
    ZERO_T = ["a", "s1", "30", "0.0", "1.0", "29"]
    B_HAT_INF = (
        "b_hat must be finite and > 0, got inf; the distributional forms are "
        "undefined at zero between-experiment variance (use the point form)"
    )

    CASES = {
        # (command and flags, estimate rows for a/s1, a/s2, a/s3; None = missing)
        "nu0_2_before_missing": (
            ["predict", "--variant", "closed", "--nr", "30"],
            [("0.1", "5"), ("0.1", "2"), None], "sites",
            4, "error: task 'a' site 's2': nu0 must be > 2 for the closed form, got 2.0\n",
        ),
        "missing_before_nu0_2": (
            ["predict", "--variant", "closed", "--nr", "30"],
            [("0.1", "5"), None, ("0.1", "2")], "sites",
            3, "error: --b-from has no estimate for task 'a' site 's2'\n",
        ),
        "test_overflow_before_missing": (
            ["test", "--variant", "closed", "--scale-e", "1e300"],
            [("1e-3", "5"), ("1e10", "5"), None], "sites",
            4, "error: task 'a' site 's2': " + B_HAT_INF + "\n",
        ),
        "test_missing_before_overflow": (
            ["test", "--variant", "closed", "--scale-e", "1e300"],
            [("1e-3", "5"), None, ("1e10", "5")], "sites",
            3, "error: --b-from has no estimate for task 'a' site 's2'\n",
        ),
        "predict_overflow_before_missing": (
            ["predict", "--variant", "closed", "--scale-e", "1e300", "--nr", "30"],
            [("1e-3", "5"), ("1e10", "5"), None], "sites",
            4, "error: task 'a' site 's2': " + B_HAT_INF + "\n",
        ),
        "integral_overflow_before_missing": (
            ["test", "--variant", "integral", "--scale-e", "1e300"],
            [("1e-3", "5"), ("1e10", "5"), None], "sites",
            4, "error: task 'a' site 's2': " + B_HAT_INF + "\n",
        ),
        "infinite_argument_before_nu0_2": (
            ["predict", "--variant", "closed", "--nr", "30"],
            [("0.1", "5"), ("1e306", "5"), ("0.1", "2")], "sites",
            4, "error: task 'a' site 's2': x must be finite, got -inf\n",
        ),
        "bmax_tiny_t_before_huge_t": (
            ["bmax"], None, "tiny_huge",
            4, "error: task 'a' site 's2': b_max must be finite and > 0, got 0.0\n",
        ),
        "bmax_huge_t_before_tiny_t": (
            ["bmax"], None, "huge_tiny",
            4, "error: task 'a' site 's2': b_max must be finite and > 0, got inf\n",
        ),
        # the huge-t row's forecast fails too (b_hat * N underflows), so the
        # tiny-t row carries the b_max fault here
        "predict_b_max_cells_before_next_forecast": (
            ["predict", "--variant", "closed", "--nr", "30"],
            [("0.1", "5"), ("0.1", "5"), ("0.1", "2")], "tiny_mid",
            4, "error: task 'a' site 's2': b_max must be finite and > 0, got 0.0\n",
        ),
        "predict_forecast_before_own_b_max_cells": (
            ["predict", "--variant", "closed", "--nr", "30"],
            [("0.1", "5"), ("0.1", "2"), ("0.1", "5")], "tiny_mid",
            4, "error: task 'a' site 's2': nu0 must be > 2 for the closed form, got 2.0\n",
        ),
    }

    def sites(self, tmp_path, layout):
        rows = [list(r) for r in self.SITES]
        if layout == "tiny_huge":
            rows[:3] = [self.ZERO_T, ["a", "s2", *self.TINY], ["a", "s3", *self.HUGE]]
        elif layout == "huge_tiny":
            rows[:3] = [self.ZERO_T, ["a", "s2", *self.HUGE], ["a", "s3", *self.TINY]]
        elif layout == "tiny_mid":
            rows[:2] = [self.ZERO_T, ["a", "s2", *self.TINY]]
        return write_csv(tmp_path / "sites.csv", SUMMARY_HEADER, rows)

    # Task a has a fit, but with three sites nu0 = 2, which has no closed
    # forecast; b has a site with df <= 2, and c means whose spread overflows.
    TASKS = {
        "a": [["a", f"s{i}", "30", m, "1.0", "29"] for i, m in enumerate(("0.5", "0.2", "0.9"))],
        "b": [["b", "s0", "30", "0.5", "1.0", "2"], ["b", "s1", "30", "0.2", "1.0", "29"],
              ["b", "s2", "30", "0.9", "1.0", "29"]],
        "c": [["c", "s0", "30", "1e200", "1.0", "29"], ["c", "s1", "30", "-1e200", "1.0", "29"],
              ["c", "s2", "30", "0", "1.0", "29"]],
        "lonely": [["lonely", "s0", "30", "0.5", "1.0", "29"]],
    }
    DF_2 = "every experiment needs df > 2 (noise-correction moment undefined at df=2.0)"
    TASK_CASES = {
        # (command, tasks, exit code, stderr): each task's first fault, the
        # first faulty task's raised
        "estimate_fit_before_next_fit": (
            ["estimate"], ["a", "b", "c"], 4, f"error: task 'b': {DF_2}\n",
        ),
        "calibrate_forecast_before_next_fit": (
            ["calibrate"], ["a", "b"], 4,
            "error: task 'a': nu0 must be > 2 for the closed form, got 2.0\n",
        ),
        # every skip warning is printed before the one call's error
        "calibrate_warnings_before_error": (
            ["calibrate"], ["b", "lonely"], 4,
            f"warning: task 'lonely' has a single site; skipped\nerror: task 'b': {DF_2}\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(TASK_CASES))
    def test_first_faulty_task_is_named(self, tmp_path, case):
        argv, tasks, code, err = self.TASK_CASES[case]
        rows = [row for task in tasks for row in self.TASKS[task]]
        path = write_csv(tmp_path / "tasks.csv", SUMMARY_HEADER, rows)
        assert run_cli([*argv, "--input", path]) == (code, "", err)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_first_faulty_site_is_named(self, tmp_path, case):
        argv, estimates, layout, code, err = self.CASES[case]
        argv = [*argv, "--input", self.sites(tmp_path, layout)]
        if estimates is not None:
            rows = [["a", f"s{i}", *e] for i, e in enumerate(estimates, 1) if e]
            est = write_csv(tmp_path / "est.csv", ["task", "site", "b_hat", "nu0"],
                            [*rows, ["b", "s1", "0.1", "5"]])
            argv += ["--b-from", est]
        assert run_cli(argv) == (code, "", err)

    def test_t_zero_cells_stay_empty_before_a_later_fault(self, tmp_path):
        argv = ["predict", "--input", self.sites(tmp_path, "tiny_huge"),
                "--variant", "closed", "--b", "0.1", "--nu0", "5", "--nr", "30"]
        assert run_cli(argv) == (
            4, "", "error: task 'a' site 's2': b_max must be finite and > 0, got 0.0\n",
        )
        path = write_csv(tmp_path / "zero.csv", SUMMARY_HEADER, [self.ZERO_T, *self.SITES[1:]])
        for argv in (["bmax"], ["predict", "--b", "0.1", "--nu0", "5", "--nr", "30"]):
            code, out, err = run_cli([*argv, "--input", path])
            assert (code, err) == (0, "")
            cells = [(r["tau"], r["z_max"], r["b_max"]) for r in parse(out)]
            assert cells[0] == ("", "", "") and all(all(c) for c in cells[1:])


# Magnitudes at the edges of the float range, for summary cells and flags.
EXTREMES = (
    5e-324, 1e-300, 1e-170, 0.4, 1.0, 2.5, 3.0, 30.0, 1e6, 1e150, 1e200, 1e300, 1.7e308,
)


class TestExtremeInputs:
    """Valid rows at the edges of the float range end in an error line with
    the README's exit code, never in a traceback or a numpy warning."""

    ORDINARY = "a,s2,30,1,1,29"
    CASES = {
        # (summary rows, command and flags, exit code, stderr)
        "closed_forecast_b_n_underflows": (
            ["a,s1,0.4,0.3,1,5", ORDINARY], ["predict", "--b", "5e-324", "--nu0", "5",
                                             "--nr", "30"],
            4, "error: task 'a' site 's1': x must be finite, got nan\n",
        ),
        "integral_test_df_ratio_rounds_to_1": (
            ["a,s1,30,0.5,1,1e150", ORDINARY],
            ["test", "--variant", "integral", "--b", "0.1", "--nu0", "5"],
            5, "error: task 'a' site 's1': the quadrature rule cannot represent"
            " F(1e+150, 5.0)\n",
        ),
        "integral_predict_df_ratio_rounds_to_1": (
            ["a,s1,30,0.5,1,1e150", ORDINARY],
            ["predict", "--variant", "integral", "--b", "0.1", "--nu0", "5", "--nr", "30"],
            5, "error: task 'a' site 's1': the quadrature rule cannot represent"
            " F(1e+150, 5.0)\n",
        ),
        "integral_predict_tiny_df": (
            ["a,s1,30,0.5,1,1e-300", ORDINARY],
            ["predict", "--variant", "integral", "--b", "0.1", "--nu0", "5", "--nr", "30"],
            5, "error: task 'a' site 's1': the quadrature rule cannot represent"
            " F(1e-300, 29.0)\n",
        ),
        "estimate_noise_term_divides_by_0": (
            ["a,s1,5e-324,0.1,1,2.5", ORDINARY, "a,s3,20,0.5,2,19"], ["estimate"],
            4, "error: task 'a': s0_sq must be finite and >= 0, got inf\n",
        ),
        "estimate_spread_of_means_overflows": (
            ["a,s1,30,1e200,1,29", "a,s2,30,-1e200,1,29"], ["estimate"],
            4, "error: task 'a': s0_sq must be finite and >= 0, got inf\n",
        ),
        "calibrate_spread_of_means_overflows": (
            ["a,s1,30,1e200,1,29", "a,s2,30,-1e200,1,29"], ["calibrate"],
            4, "error: task 'a': s0_sq must be finite and >= 0, got inf\n",
        ),
        "bmax_b_max_overflows": (
            ["a,s1,5e-324,1e300,1,29", ORDINARY], ["bmax"],
            4, "error: task 'a' site 's1': b_max must be finite and > 0, got inf\n",
        ),
        "bound_forecast_n_n_r_overflows": (
            ["a,s1,1.7e308,0,30,29", ORDINARY],
            ["predict", "--variant", "bound", "--bound", "30", "--nr", "30"],
            4, "error: task 'a' site 's1': x must be finite, got nan\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_line_and_exit_code(self, tmp_path, case):
        rows, argv, code, err = self.CASES[case]
        path = tmp_path / "sites.csv"
        path.write_text("\n".join([",".join(SUMMARY_HEADER), *rows, ""]))
        assert run_cli([*argv, "--input", str(path)]) == (code, "", err)

    RAW = {
        "one_sample": ("task,site,value", ["a,s1,1e200", "a,s1,-1e200", "a,s1,1"], ""),
        "two_sample": ("task,site,group,value",
                       ["a,s1,g,1e200", "a,s1,g,-1e200", "a,s1,h,1", "a,s1,h,2"], ""),
        "paired": ("task,site,x,y", ["a,s1,1e200,-1e200", "a,s1,-1e200,1e200", "a,s1,1,2"],
                   "paired"),
        "regression": ("task,site,x,y",
                       ["a,s1,1e200,1", "a,s1,-1e200,2", "a,s1,1,3", "a,s1,2,4"],
                       "regression"),
    }

    @pytest.mark.parametrize("family", sorted(RAW))
    def test_overflowing_raw_values(self, tmp_path, family):
        header, rows, flag = self.RAW[family]
        path = tmp_path / "raw.csv"
        path.write_text("\n".join([header, *rows, ""]))
        argv = ["bmax", "--input", str(path), *(["--family", flag] if flag else [])]
        # a slope file's Q overflows first, and the canonical n slot rejects it
        slot = "n must be finite and > 0" if family == "regression" else (
            "sample_variance must be finite and >= 0")
        assert run_cli(argv) == (4, "", f"error: task 'a' site 's1': {slot}, got inf\n")

    @pytest.mark.parametrize("variant", ["closed", "integral"])
    def test_t0_is_0_at_t_0_where_b_n_underflows(self, tmp_path, variant):
        path = tmp_path / "zero.csv"
        path.write_text("\n".join([",".join(SUMMARY_HEADER), "a,s1,0.4,0,1,5",
                                   self.ORDINARY, ""]))
        code, out, err = run_cli(["test", "--input", str(path), "--variant", variant,
                                  "--b", "5e-324", "--nu0", "5"])
        assert (code, err) == (0, "")
        row = parse(out)[0]
        assert row["t"] == "0" and row["t0"] == "0"
        # the integral rule certifies 1 to RULE_RTOL
        assert float(row["p_sig"]) == pytest.approx(1.0, rel=1e-10)

    def test_uncertifiable_integral_fails_fast(self, tmp_path):
        # at b = 1e150 the forecast kernel is a near-step in log b, so each
        # halving of the step only halves the change; all ten took minutes
        path = tmp_path / "slow.csv"
        path.write_text("\n".join([",".join(SUMMARY_HEADER), "a,s0,1,3,3,1",
                                   "a,s1,30,1,1,29", ""]))
        start = time.perf_counter()
        code, out, err = run_cli(["predict", "--input", str(path), "--variant", "integral",
                                  "--b", "1e150", "--nu0", "2.5", "--nr", "30"])
        assert time.perf_counter() - start < 20.0
        assert (code, out) == (5, "")
        assert err.startswith("error: task 'a' site 's0': quadrature did not reach")
        assert err.endswith("error bound inf)\n")

    COMMANDS = (
        ["estimate"], ["estimate", "--mode", "moment"],
        ["test", "--variant", "point"],
        ["test", "--b", "{b}", "--nu0", "{nu0}"],
        ["test", "--variant", "bound", "--bound", "{b}"],
        ["test", "--variant", "integral", "--b", "{b}", "--nu0", "{nu0}"],
        ["predict", "--nr", "30", "--b", "{b}", "--nu0", "{nu0}"],
        ["predict", "--nr", "30", "--variant", "bound", "--bound", "{b}"],
        ["predict", "--nr", "30", "--variant", "integral", "--b", "{b}", "--nu0", "{nu0}"],
        ["bmax"], ["calibrate"],
    )

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(EXTREMES), st.sampled_from((-1.0, 0.0, 1.0)),
                st.sampled_from(EXTREMES), st.sampled_from(EXTREMES),
                st.sampled_from(EXTREMES),
            ),
            min_size=2, max_size=4,
        ),
        b=st.sampled_from(EXTREMES),
        nu0=st.sampled_from((1.0, 2.0, 2.5, 5.0, 1e6)),
    )
    def test_no_traceback_or_warning(self, rows, b, nu0):
        lines = [",".join(SUMMARY_HEADER)] + [
            f"a,s{i},{n!r},{sign * mean!r},{variance!r},{df!r}"
            for i, (n, sign, mean, variance, df) in enumerate(rows)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "sites.csv"
            path.write_text("\n".join([*lines, ""]))
            for command in self.COMMANDS:
                argv = [a.format(b=repr(b), nu0=repr(nu0)) for a in command]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code, _, err = run_cli([*argv, "--input", str(path)])
                assert code in (0, 2, 3, 4, 5), (argv, err)
                assert all(
                    line.startswith(("error: ", "warning: ")) for line in err.splitlines()
                ), (argv, err)
                assert not caught, (argv, [str(w.message) for w in caught])


class TestFaultsComputedOnce:
    """An integral command that exits on a faulty site starts each site's
    certified rule once: the error comes with the kernel's column, and no
    site is computed again to find it."""

    # the F laws of each site's rule, for sites s1 and s2 of the case
    RULES = {
        "integral_test_df_ratio_rounds_to_1": [((1e150, 5.0),), ((29.0, 5.0),)],
        "integral_predict_df_ratio_rounds_to_1": [((1e150, 5.0), (1e150, 29.0)),
                                                  ((29.0, 5.0), (29.0, 29.0))],
        "integral_predict_tiny_df": [((1e-300, 5.0), (1e-300, 29.0)),
                                     ((29.0, 5.0), (29.0, 29.0))],
    }

    @pytest.mark.parametrize("case", sorted(RULES))
    def test_each_rule_starts_once(self, tmp_path, monkeypatch, case):
        rows, argv, code, err = TestExtremeInputs.CASES[case]
        path = tmp_path / "sites.csv"
        path.write_text("\n".join([",".join(SUMMARY_HEADER), *rows, ""]))
        started, rule = [], distributions._rule

        def counted(dfs, *options):
            started.append(tuple(dfs))
            return rule(dfs, *options)

        monkeypatch.setattr(distributions, "_rule", counted)
        assert run_cli([*argv, "--input", str(path)]) == (code, "", err)
        assert started == self.RULES[case]

    def test_calibrate_starts_no_forecast_once_a_task_faults(self, tmp_path, monkeypatch):
        # the significance of a/s1 faults; each site's significance rule
        # starts once, and no task's forecast rule starts
        path = write_csv(tmp_path / "sites.csv", SUMMARY_HEADER, [
            ["a", "s1", "30", "0.5", "1", "1e150"], ["a", "s2", "30", "1", "1", "29"],
            ["b", "s1", "30", "0.5", "1", "29"], ["b", "s2", "30", "1", "1", "29"],
        ])
        started, rule = [], distributions._rule

        def counted(dfs, *options):
            started.append(tuple(dfs))
            return rule(dfs, *options)

        monkeypatch.setattr(distributions, "_rule", counted)
        assert run_cli(["calibrate", "--variant", "integral", "--input", path]) == (
            5, "", "error: task 'a': the quadrature rule cannot represent F(1e+150, 1.0)\n")
        assert started == [((1e150, 1.0),), ((29.0, 1.0),), ((29.0, 1.0),), ((29.0, 1.0),)]

    @staticmethod
    def count_closed_checks(monkeypatch) -> list:
        from distnull import replication
        calls, check = [], replication._check_closed

        def counted(*cells):
            calls.append(cells)
            check(*cells)

        monkeypatch.setattr(replication, "_check_closed", counted)
        return calls

    def test_predict_builds_only_the_error_it_raises(self, tmp_path, monkeypatch):
        # every one of the 200 sites faults at nu0 = 2; one error is built
        path = write_csv(tmp_path / "sites.csv", SUMMARY_HEADER, [
            [f"t{j}", f"s{i}", "30", "0.5", "1", "29"] for j in range(50) for i in range(4)])
        calls = self.count_closed_checks(monkeypatch)
        argv = ["predict", "--b", "1", "--nu0", "2", "--nr", "30", "--input", path]
        assert run_cli(argv) == (
            4, "", "error: task 't0' site 's0': nu0 must be > 2 for the closed form, got 2.0\n")
        assert len(calls) == 1

    def test_calibrate_builds_one_error_per_faulty_task(self, tmp_path, monkeypatch):
        # K = 3 gives nu0 = 2: every forecast of both tasks faults, at every
        # alpha; each task keeps its first, and only those are built
        path = write_csv(tmp_path / "sites.csv", SUMMARY_HEADER, [
            [task, f"s{i}", "30", mean, "1", "29"]
            for task in ("a", "b") for i, mean in enumerate(("0.1", "0.5", "0.9"))])
        calls = self.count_closed_checks(monkeypatch)
        assert run_cli(["calibrate", "--input", path]) == (
            4, "", "error: task 'a': nu0 must be > 2 for the closed form, got 2.0\n")
        assert len(calls) == 2


class TestDeterminism:
    def test_estimate_and_test_are_byte_stable(self, summary_file, tmp_path):
        est = str(tmp_path / "est.csv")
        for argv in (
            ["estimate", "--input", summary_file],
            ["test", "--input", summary_file, "--variant", "point"],
        ):
            assert run_cli(argv)[1] == run_cli(argv)[1]
        assert run_cli(["estimate", "--input", summary_file, "--output", est])[0] == 0
        with open(est, newline="") as handle:
            assert handle.read() == run_cli(["estimate", "--input", summary_file])[1]

    def test_output_ends_with_single_newline(self, summary_file):
        out = run_cli(["estimate", "--input", summary_file])[1]
        assert out.endswith("\n") and not out.endswith("\n\n")
        assert "\r" not in out


class TestLazyIntegrate:
    # Prints whether scipy.integrate and scipy.special are loaded after
    # `import distnull.cli`, and again after running the command.
    SCRIPT = (
        "import sys\n"
        "import distnull.cli\n"
        "loaded = lambda: [m in sys.modules for m in ('scipy.integrate', 'scipy.special')]\n"
        "print(*loaded())\n"
        "sys.stdout.flush()\n"
        "code = distnull.cli.main(sys.argv[1:])\n"
        "print(*loaded(), code)\n"
    )

    def run_fresh(self, argv, script=SCRIPT):
        # A fresh interpreter: this one has both modules loaded by the tests.
        import distnull

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(distnull.__file__)),
             *filter(None, [env.get("PYTHONPATH")])]
        )
        return subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_estimate_and_simulate_never_load_scipy_special(self, raw_one_sample, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TestSimulate.CONFIG))
        out = str(tmp_path / "out.csv")
        for argv in (["estimate", "--input", raw_one_sample],
                     ["simulate", "--config", str(config)]):
            proc = self.run_fresh([*argv, "--output", out])
            assert (proc.stdout, proc.stderr) == ("False False\nFalse False 0\n", "")

    def test_integral_variant_imports_quadrature_on_use(self, raw_one_sample):
        # The integral variant runs on the package's own fixed-node rule and
        # Student t, so neither scipy.integrate nor scipy.special is loaded.
        argv = ["test", "--input", raw_one_sample, "--variant", "integral",
                "--b", "0.05", "--nu0", "5"]
        proc = self.run_fresh(argv)
        assert proc.stderr == ""
        before, *table, after = proc.stdout.splitlines(keepends=True)
        assert before == "False False\n"
        assert after == "False False 0\n"
        got = [(r["task"], r["site"], r["t"], r["p_sig"]) for r in parse("".join(table))]
        assert got == [
            ("t0", "s0", "-0.0445207828457", "0.97648888821"),
            ("t0", "s1", "0.0819539378163", "0.956738676647"),
            ("t0", "s2", "2.47361836251", "0.13125658945"),
            ("t1", "s0", "1.25017889594", "0.418372447484"),
            ("t1", "s1", "1.18429813217", "0.442293370237"),
            ("t1", "s2", "1.01452683818", "0.508185641038"),
        ]

    def test_t_commands_never_load_scipy(self, tmp_path):
        # Every variant of the commands that need only the central t runs
        # on the package's own Student t. Four sites keep nu0 = 3 above the
        # closed replication form's floor.
        path = write_csv(tmp_path / "four.csv", SUMMARY_HEADER, [
            ["a", "l1", "40", "0.5", "1.0", "39"],
            ["a", "l2", "40", "0.55", "1.1", "39"],
            ["a", "l3", "40", "0.3", "0.9", "39"],
            ["a", "l4", "40", "0.7", "1.0", "39"],
        ])
        out = str(tmp_path / "out.csv")
        b = ["--b", "0.05", "--nu0", "5"]
        for argv in (
            ["test", "--variant", "point"],
            ["test", "--variant", "closed", *b],
            ["test", "--variant", "bound", "--bound", "0.3"],
            ["test", "--variant", "integral", *b],
            ["predict", "--variant", "closed", *b, "--nr", "30"],
            ["predict", "--variant", "bound", "--bound", "0.3", "--nr", "30"],
            ["predict", "--variant", "integral", *b, "--nr", "30"],
            ["bmax"],
            ["calibrate", "--variant", "closed"],
            ["calibrate", "--variant", "integral", "--alphas", "0.05"],
        ):
            proc = self.run_fresh([*argv, "--input", path, "--output", out])
            assert (proc.stdout, proc.stderr) == ("False False\nFalse False 0\n", ""), argv

    def test_power_never_loads_scipy(self, tmp_path):
        # power's noncentral t is an expectation on the package's own rule
        script = (
            "import sys\n"
            "import distnull.cli\n"
            "code = distnull.cli.main(sys.argv[1:])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = str(tmp_path / "out.csv")
        for argv in (["power", "--effect", "0.5", "--n", "30"],
                     ["power", "--effect", "0.5", "--n", "30", "--df", "20", "--b", "0.1",
                      "--target-power", "0.8"]):
            proc = self.run_fresh([*argv, "--output", out], script)
            assert (proc.stdout, proc.stderr) == ("0 []\n", ""), argv


    # Prints the exit code, then whether numpy.ma and the simulation harness
    # are loaded after running the command: each costs 10-15 ms of start-up.
    MODULES = (
        "import sys\n"
        "import distnull.cli\n"
        "code = distnull.cli.main(sys.argv[1:])\n"
        "print(code, *(m in sys.modules for m in ('numpy.ma', 'distnull.oracle')))\n"
    )

    def loaded(self, argv, tmp_path):
        proc = self.run_fresh([*argv, "--output", str(tmp_path / "out.csv")], self.MODULES)
        assert proc.stderr == "", argv
        return proc.stdout

    @staticmethod
    def four_sites(tmp_path):
        """A one-sample file of two tasks x four sites, and its estimate file."""
        rng = np.random.default_rng(11)
        rows = [[f"t{t}", f"s{s}", repr(float(v))]
                for t in range(2) for s in range(4) for v in rng.normal(0.4 + 0.1 * s, 1, 12)]
        path = write_csv(tmp_path / "four.csv", ["task", "site", "value"], rows)
        estimates = str(tmp_path / "estimates.csv")
        assert run_cli(["estimate", "--input", path, "--output", estimates])[0] == 0
        return path, estimates

    def test_estimate_and_calibrate_never_load_numpy_ma(self, tmp_path):
        # a bare np.unique imports numpy.ma on its first call
        path, _ = self.four_sites(tmp_path)
        assert self.loaded(["estimate", "--input", path], tmp_path) == "0 False False\n"
        assert self.loaded(["calibrate", "--input", path], tmp_path) == "0 False True\n"

    def test_only_calibrate_and_simulate_load_the_oracle(self, tmp_path):
        path, estimates = self.four_sites(tmp_path)
        for argv in (
            ["estimate", "--input", path],
            ["test", "--input", path, "--b-from", estimates],
            ["predict", "--input", path, "--b-from", estimates, "--nr", "30"],
            ["bmax", "--input", path],
            ["power", "--effect", "0.5", "--n", "30"],
        ):
            assert self.loaded(argv, tmp_path).endswith(" False\n"), argv
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TestSimulate.CONFIG))
        assert self.loaded(["simulate", "--config", str(config)], tmp_path) == "0 False True\n"
