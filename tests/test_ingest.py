"""The CSV ingest contract, pinned byte for byte: exit code and stderr.

Each case is an exact input file and the exact error the CLI prints for it,
so any rewrite of the reader or of the per-site loaders must keep every
message, its line number and which of several faults is reported first.
"""

import csv

import numpy as np
import pytest

from conftest import run_cli, write_csv
from distnull import cli
from distnull.adapters import (
    ContingencyTable,
    contingency_regression,
    regression,
    unpaired_summary,
)
from distnull.estimators import ExperimentSummary, summarize

RAW = "task,site,value\n"
XY = "task,site,x,y\n"
TWO = "task,site,group,value\n"
SUMMARY = "task,site,n,mean,variance,df\n"
B_FROM = "task,site,b_hat,nu0\n"

# name -> (file text or bytes, extra flags, exit code, stderr; "{path}" is the input)
CASES = {
    "blank_first_line": (
        "\n" + RAW + "a,l1,0.5\n", [], 2,
        "error: line 2: row has more fields than the header\n",
    ),
    "blank_lines_only": (
        "\n", [], 2, "error: line 1: {path} has a header but no rows\n",
    ),
    "physical_line_after_blank_lines": (
        RAW + "a,l1,0.5\n\n\na,l1,zz\n", [], 2,
        "error: line 5: value 'zz' is not a number\n",
    ),
    "repeated_header_name_reads_its_last_column": (
        "task,site,value,value\na,l1,1,x\n", [], 2,
        "error: line 2: value 'x' is not a number\n",
    ),
    "more_fields": (
        RAW + "a,l1,0.5\na,l1,0.5,9\n", [], 2,
        "error: line 3: row has more fields than the header\n",
    ),
    "fewer_fields": (
        RAW + "a,l1,0.5\na,l1\n", [], 2,
        "error: line 3: row has fewer fields than the header\n",
    ),
    "embedded_newline_in_identifier": (
        RAW + 'a,l1,0.5\na,"l\n1",0.5\n', [], 2,
        "error: line 4: site 'l\\n1' must match [A-Za-z0-9_-]+\n",
    ),
    "embedded_newline_then_short_row": (
        RAW + 'a,l1,"0.5\n"\na,l1\n', [], 2,
        "error: line 4: row has fewer fields than the header\n",
    ),
    "short_row_beats_earlier_bad_cell": (
        RAW + "a,l1,zz\na,l1\n", [], 2,
        "error: line 3: row has fewer fields than the header\n",
    ),
    "bad_site_on_earlier_line_than_bad_task": (
        RAW + "a,l1,0.5\na,l 2,0.5\nb b,l1,0.5\n", [], 2,
        "error: line 3: site 'l 2' must match [A-Za-z0-9_-]+\n",
    ),
    "bad_task_beats_bad_site_on_same_line": (
        RAW + "a,l1,0.5\nb b,l 2,0.5\n", [], 2,
        "error: line 3: task 'b b' must match [A-Za-z0-9_-]+\n",
    ),
    "missing_task": (RAW + ",l1,0.5\n", [], 2, "error: line 2: missing task\n"),
    "bad_identifier_beats_earlier_bad_cell": (
        RAW + "a,l1,zz\na,l1,1\nb,l%,1\n", [], 2,
        "error: line 4: site 'l%' must match [A-Za-z0-9_-]+\n",
    ),
    "value_not_a_number": (
        RAW + "a,l1,0.5\na,l1,abc\na,l2,1\na,l2,2\n", [], 2,
        "error: line 3: value 'abc' is not a number\n",
    ),
    "value_inf": (
        RAW + "a,l1,0.5\na,l1,inf\n", [], 2,
        "error: line 3: value must be finite, got 'inf'\n",
    ),
    "value_nan": (
        RAW + "a,l1,0.5\na,l1,nan\n", [], 2,
        "error: line 3: value must be finite, got 'nan'\n",
    ),
    "value_missing": (
        RAW + "a,l1,0.5\na,l1,\n", [], 2, "error: line 3: missing value\n",
    ),
    "bad_cell_in_first_sorted_site_wins": (
        RAW + "b,l1,q\nb,l1,1\na,l2,1\na,l2,r\n", [], 2,
        "error: line 5: value 'r' is not a number\n",
    ),
    "x_not_a_number": (
        XY + "a,l1,1,2\na,l1,q,2\n", ["--family", "paired"], 2,
        "error: line 3: x 'q' is not a number\n",
    ),
    "x_inf": (
        XY + "a,l1,1,2\na,l1,inf,2\n", ["--family", "regression"], 2,
        "error: line 3: x must be finite, got 'inf'\n",
    ),
    "y_not_a_number": (
        XY + "a,l1,1,2\na,l1,1,q\n", ["--family", "regression"], 2,
        "error: line 3: y 'q' is not a number\n",
    ),
    "y_inf": (
        XY + "a,l1,1,2\na,l1,1,-inf\n", ["--family", "regression"], 2,
        "error: line 3: y must be finite, got '-inf'\n",
    ),
    "y_before_next_rows_x": (
        XY + "a,l1,1,bad\na,l1,bad,2\n", ["--family", "paired"], 2,
        "error: line 2: y 'bad' is not a number\n",
    ),
    "contingency_non_binary": (
        XY + "a,l1,1,1\na,l1,0,2\na,l1,0,0\n", ["--family", "contingency"], 2,
        "error: line 3: contingency x and y must be 0 or 1\n",
    ),
    "n_not_a_number": (
        SUMMARY + "a,l1,ten,0.5,1,29\n", [], 2,
        "error: line 2: n 'ten' is not a number\n",
    ),
    "n_inf": (
        SUMMARY + "a,l1,inf,0.5,1,29\n", [], 2,
        "error: line 2: n must be finite, got 'inf'\n",
    ),
    "mean_not_a_number": (
        SUMMARY + "a,l1,30,m,1,29\n", [], 2,
        "error: line 2: mean 'm' is not a number\n",
    ),
    "mean_inf": (
        SUMMARY + "a,l1,30,inf,1,29\n", [], 2,
        "error: line 2: mean must be finite, got 'inf'\n",
    ),
    "variance_not_a_number": (
        SUMMARY + "a,l1,30,0.5,v,29\n", [], 2,
        "error: line 2: variance 'v' is not a number\n",
    ),
    "variance_inf": (
        SUMMARY + "a,l1,30,0.5,inf,29\n", [], 2,
        "error: line 2: variance must be finite, got 'inf'\n",
    ),
    "df_not_a_number": (
        SUMMARY + "a,l1,30,0.5,1,d\n", [], 2,
        "error: line 2: df 'd' is not a number\n",
    ),
    "df_inf": (
        SUMMARY + "a,l1,30,0.5,1,Infinity\n", [], 2,
        "error: line 2: df must be finite, got 'Infinity'\n",
    ),
    "n_checked_before_mean": (
        SUMMARY + "a,l1,x,y,1,29\n", [], 2,
        "error: line 2: n 'x' is not a number\n",
    ),
    "summary_domain_error_is_a_parse_error": (
        SUMMARY + "a,l1,30,0.5,-1,29\n", [], 2,
        "error: line 2: sample_variance must be finite and >= 0, got -1.0\n",
    ),
    "duplicate_summary_row_beats_its_bad_cell": (
        SUMMARY + "a,l1,30,0.5,1,29\na,l2,30,0.5,1,29\na,l1,30,zz,1,29\n", [], 2,
        "error: line 4: duplicate summary row for task 'a' site 'l1'\n",
    ),
    "bad_group": (
        TWO + "a,l1,g1,0.5\na,l1,g 2,0.5\n", [], 2,
        "error: line 3: group 'g 2' must match [A-Za-z0-9_-]+\n",
    ),
    "group_checked_before_value": (
        TWO + "a,l1,g1,zz\na,l1,,0.5\n", [], 2,
        "error: line 2: value 'zz' is not a number\n",
    ),
    "group_checked_before_value_in_a_row": (
        TWO + "a,l1,g 1,zz\n", [], 2,
        "error: line 2: group 'g 1' must match [A-Za-z0-9_-]+\n",
    ),
    "three_groups": (
        TWO + "a,l1,g1,0.5\na,l1,g2,0.5\na,l1,g3,1\n", [], 2,
        "error: task 'a' site 'l1' has 3 groups; need exactly 2\n",
    ),
    "header_only": (
        RAW, [], 2, "error: line 1: {path} has a header but no rows\n",
    ),
    "empty_file": ("", [], 2, "error: line 1: {path} is empty\n"),
    "earlier_single_value_site_beats_later_bad_cell": (
        RAW + "a,l1,0.5\na,l2,zz\na,l2,1\n", [], 4,
        "error: task 'a' site 'l1': need at least 2 measurements, got 1\n",
    ),
    "earlier_bad_cell_beats_later_single_value_site": (
        RAW + "a,l2,0.5\na,l1,zz\na,l1,1\n", [], 2,
        "error: line 3: value 'zz' is not a number\n",
    ),
    "earlier_zero_variance_site_beats_later_bad_cell": (
        RAW + "a,l1,1\na,l1,1\na,l2,zz\n", [], 4,
        "error: task 'a' site 'l1': sample variance is zero; t-statistic undefined\n",
    ),
    "not_utf8": (
        (RAW + "a,l1,0.5\na,l1,").encode() + b"\xff1\n", [], 2,
        "error: {path} is not UTF-8 text (invalid start byte)\n",
    ),
    "cell_over_field_limit": (
        RAW + "a,l1,0.5\na,l1," + "1" * 131_073 + "\n", [], 2,
        "error: line 3: {path}: field larger than field limit (131072)\n",
    ),
}


def _write_input(path, text):
    """Write a case's file: text as UTF-8, or bytes as they are."""
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8", newline="")


@pytest.mark.parametrize("name", sorted(CASES))
def test_input_error(tmp_path, name):
    text, flags, code, stderr = CASES[name]
    path = tmp_path / "input.csv"
    _write_input(path, text)
    got_code, out, err = run_cli(["estimate", "--input", str(path), *flags])
    assert (got_code, err) == (code, stderr.format(path=path))
    assert out == ""


def test_blank_lines_are_skipped(tmp_path):
    rows = ["a,l1,30,0.5,1.1,29", "a,l2,28,0.6,0.9,27", "b,l1,25,0.1,1.0,24"]
    plain = tmp_path / "plain.csv"
    plain.write_text(SUMMARY + "\n".join(rows) + "\n", encoding="utf-8")
    gappy = tmp_path / "gappy.csv"
    gappy.write_text(SUMMARY + "\n" + "\n\n".join(rows) + "\n\n\n", encoding="utf-8")
    code, expected, _ = run_cli(["estimate", "--input", str(plain)])
    assert code == 0
    assert run_cli(["estimate", "--input", str(gappy)]) == (0, expected, "")


B_FROM_CASES = {
    "b_hat_not_a_number": (
        B_FROM + "a,l1,x,2\n", "error: line 2: b_hat 'x' is not a number\n",
    ),
    "b_hat_inf": (
        B_FROM + "a,l1,inf,2\n", "error: line 2: b_hat must be finite, got 'inf'\n",
    ),
    "b_hat_negative": (
        B_FROM + "a,l1,-1,2\n", "error: line 2: b_hat must be > 0, got -1.0\n",
    ),
    "b_hat_zero": (
        B_FROM + "a,l1,0,2\n", "error: line 2: b_hat must be > 0, got 0.0\n",
    ),
    "nu0_out_of_range": (
        B_FROM + "a,l1,0.1,0.5\n",
        "error: line 2: nu0 must be finite and >= 1, got 0.5\n",
    ),
    "duplicate_row": (
        B_FROM + "a,l1,0.1,2\na,l1,0.2,2\n",
        "error: line 3: duplicate estimate for task 'a' site 'l1'\n",
    ),
    "duplicate_after_skipped_row": (
        B_FROM + "a,l1,,\na,l1,0.2,2\na,l1,0.3,2\n",
        "error: line 4: duplicate estimate for task 'a' site 'l1'\n",
    ),
    "bad_cell_beats_later_bad_identifier": (
        B_FROM + "a,l1,zz,2\nb b,l1,0.2,2\n",
        "error: line 2: b_hat 'zz' is not a number\n",
    ),
    "bad_identifier_in_skipped_row": (
        B_FROM + "a,l 1,,\n", "error: line 2: site 'l 1' must match [A-Za-z0-9_-]+\n",
    ),
    "missing_columns": (
        "task,site,b_hat\na,l1,0.1\n",
        "error: line 1: {path} lacks columns task,site,b_hat,nu0\n",
    ),
    "short_row": (
        B_FROM + "a,l1,0.1\n", "error: line 2: row has fewer fields than the header\n",
    ),
    "not_utf8": (
        B_FROM.encode() + b"a,l1,0.1,\xe92\n",
        "error: {path} is not UTF-8 text (invalid continuation byte)\n",
    ),
}


@pytest.mark.parametrize("name", sorted(B_FROM_CASES))
def test_b_from_error(tmp_path, name):
    text, stderr = B_FROM_CASES[name]
    data = tmp_path / "raw.csv"
    data.write_text(RAW + "a,l1,0.5\na,l1,0.7\n", encoding="utf-8")
    path = tmp_path / "b.csv"
    _write_input(path, text)
    code, out, err = run_cli(["test", "--input", str(data), "--b-from", str(path)])
    assert (code, err, out) == (2, stderr.format(path=path), "")


def _reference_sites(path, shape):
    """Per-site (task, site, summary, share) by the plain row-by-row loop."""
    with open(path, encoding="utf-8", newline="") as handle:
        grouped = {}
        for row in csv.DictReader(handle):
            grouped.setdefault((row["task"], row["site"]), []).append(row)
    out = []
    for (task, site), rows in sorted(grouped.items()):
        share = None
        if shape == "summary":
            (row,) = rows
            summary = ExperimentSummary(
                n=float(row["n"]), mean=float(row["mean"]),
                sample_variance=float(row["variance"]), df=float(row["df"]),
            )
        elif shape == "one_sample":
            summary = summarize([float(r["value"]) for r in rows])
        elif shape == "two_sample":
            groups = {}
            for r in rows:
                groups.setdefault(r["group"], []).append(float(r["value"]))
            first, second = sorted(groups)
            share = len(groups[first]) / len(rows)
            summary = unpaired_summary(groups[first], groups[second])
        else:
            xy = [(float(r["x"]), float(r["y"])) for r in rows]
            if shape == "paired":
                summary = summarize([x - y for x, y in xy])
            elif shape == "regression":
                summary = regression([x for x, _ in xy], [y for _, y in xy])
            else:
                table = ContingencyTable(*(
                    sum(1 for pair in xy if pair == cell)
                    for cell in ((1, 1), (1, 0), (0, 1), (0, 0))
                ))
                share = (table.n11 + table.n10) / table.total
                summary = contingency_regression(table)
        out.append((task, site, summary, share))
    return out


def _random_file(tmp_path, shape, rng):
    """Two tasks x three sites of valid rows, shuffled so sites interleave."""
    rows = []
    for task in ("b", "a"):
        for site in ("l2", "l10", "l1"):
            m = int(rng.integers(5, 12))
            values = rng.normal(0.3, 1.0, size=(m, 2)).tolist()
            if shape == "summary":
                rows.append([task, site, str(m), repr(values[0][0]),
                             repr(abs(values[0][1]) + 0.1), str(m - 1)])
            elif shape == "one_sample":
                rows += [[task, site, repr(v)] for v, _ in values]
            elif shape == "two_sample":
                rows += [[task, site, f"g{i % 2}", repr(v)]
                         for i, (v, _) in enumerate(values)]
            elif shape == "contingency":
                rows += [[task, site, str(x), str(y)] for x, y in
                         [(1, 1), (1, 0), (0, 1), (0, 0)]
                         + rng.integers(0, 2, size=(m, 2)).tolist()]
            else:
                rows += [[task, site, repr(x), repr(y)] for x, y in values]
    header = {
        "summary": ["task", "site", "n", "mean", "variance", "df"],
        "one_sample": ["task", "site", "value"],
        "two_sample": ["task", "site", "group", "value"],
    }.get(shape, ["task", "site", "x", "y"])
    order = rng.permutation(len(rows))
    return write_csv(tmp_path / f"{shape}.csv", header, [rows[i] for i in order])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "shape",
    ["summary", "one_sample", "two_sample", "paired", "regression", "contingency"],
)
def test_columnar_loader_matches_row_loop(tmp_path, shape, seed):
    path = _random_file(tmp_path, shape, np.random.default_rng([seed, len(shape)]))
    family = shape if shape in ("paired", "regression", "contingency") else None
    detected, sites = cli.load_sites(path, family)
    assert detected == shape
    got = [(s.task, s.site, s.summary, s.share) for s in sites]
    assert got == _reference_sites(path, shape)
