"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import csv
import io

import numpy as np
import pytest

from distnull import cli
from distnull.significance import TestStatistic

# a library class, not a test container
TestStatistic.__test__ = False


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process, capturing exit code, stdout, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects unknown flags this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def write_csv(path, header, rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture
def raw_one_sample(tmp_path):
    """Two tasks x three sites x 20 draws of a shifted normal."""
    rng = np.random.default_rng(7)
    rows = []
    for t in range(2):
        for s in range(3):
            mu = rng.normal(0.4, 0.1)
            for v in rng.normal(mu, 1.0, size=20):
                rows.append([f"t{t}", f"s{s}", repr(float(v))])
    return write_csv(tmp_path / "raw.csv", ["task", "site", "value"], rows)


@pytest.fixture
def summary_file(tmp_path):
    rows = [
        ["alpha", "lab1", "30", "0.52", "1.1", "29"],
        ["alpha", "lab2", "28", "0.61", "0.9", "27"],
        ["alpha", "lab3", "33", "0.38", "1.3", "32"],
        ["beta", "lab1", "25", "0.05", "1.0", "24"],
        ["beta", "lab2", "26", "-0.02", "1.2", "25"],
    ]
    return write_csv(
        tmp_path / "summary.csv",
        ["task", "site", "n", "mean", "variance", "df"],
        rows,
    )
