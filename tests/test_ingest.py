"""The CSV ingest contract, pinned byte for byte: exit code and stderr.

Each case is an exact input file and the exact error the CLI prints for it,
so any rewrite of the reader or of the per-site loaders must keep every
message, its line number and which of several faults is reported first.
"""

import csv
import io
import json
import math
import pathlib
import re
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import run_cli, write_csv
from distnull import adapters, cli
from distnull.adapters import (
    ContingencyTable,
    contingency_regression,
    regression,
    unpaired_summary,
)
from distnull.errors import DistnullError, ParseError
from distnull.estimators import ExperimentSummary, SiteTable, summarize

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
    # the whole file is decoded before any row is read
    "not_utf8_beats_earlier_short_row": (
        (RAW + "a,l1,0.5\na,l1\n" + "a,l1,0.5\n" * 20_000).encode() + b"\xff\n", [], 2,
        "error: {path} is not UTF-8 text (invalid start byte)\n",
    ),
    "trailing_newline_in_identifier": (
        RAW + '"a\n",l1,0.5\n', [], 2,
        "error: line 3: task 'a\\n' must match [A-Za-z0-9_-]+\n",
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


# (file text, --family, the error): sites whose reduction numpy would warn
# of (the variance of one value, a slope over Q = 0), outside ``errstate``
ONE_VALUE_SITES = [
    (RAW + "a,l1,0.5\na,l2,1\na,l2,2\n", None,
     "task 'a' site 'l1': need at least 2 measurements, got 1"),
    (TWO + "a,l1,g1,0.5\na,l1,g2,1\na,l1,g2,2\n", None,
     "task 'a' site 'l1': each group needs at least 2 values"),
    (XY + "a,l1,1,0.5\na,l1,1,1\na,l1,1,2\n", "regression",
     "task 'a' site 'l1': predictor values are all equal (Q = 0)"),
    (XY + "a,l1,1,0\na,l1,1,1\na,l1,1,1\n", "contingency",
     "task 'a' site 'l1': predictor margin is degenerate (all pairs share one x value)"),
]


def test_site_of_one_value_fails_without_a_warning(tmp_path):
    path = tmp_path / "one.csv"
    for text, family, error in ONE_VALUE_SITES:
        path.write_text(text, encoding="utf-8")
        flags = ["--family", family] if family else []
        assert run_cli(["estimate", "--input", str(path), *flags]) == (4, "", f"error: {error}\n")


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
    reference = _reference_sites(path, shape)
    got = [(sites.task_ids[j], site, sites.summary(i))
           for i, (j, site) in enumerate(zip(sites.task_of, sites.site_ids))]
    assert got == [row[:3] for row in reference]
    np.testing.assert_array_equal(
        sites.share, [np.nan if share is None else share for *_, share in reference])


def _read_csv_streaming(path):
    """The reference reader: ``csv.reader`` over the open file, one row at
    a time."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            fields = next(reader, None)
            if fields is None:
                raise ParseError(f"{path} is empty", line=1)
            width = len(fields)
            cells = [[] for _ in fields]
            lines = []
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    side = "more" if len(row) > width else "fewer"
                    raise ParseError(
                        f"row has {side} fields than the header", line=reader.line_num
                    )
                lines.append(reader.line_num)
                for column, cell in zip(cells, row):
                    column.append(cell)
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}", line=reader.line_num) from exc
    if not lines:
        raise ParseError(f"{path} has a header but no rows", line=1)
    return fields, lines, dict(zip(fields, cells))


def _read_or_error(read, path, typed):
    try:
        fields, lines, cells = read(path)
    except ParseError as exc:
        return str(exc), exc.line
    return fields, list(lines), typed(cells)


def _number(text):
    """A cell as ``float`` reads it, None where it is not a number or is NaN."""
    try:
        value = float(text)
    except ValueError:
        return None
    return None if value != value else value


def _reference_typed(cells):
    """The reference's cells as ``cli._read_csv`` types them, NaN as None:
    identifiers as codes into their names in order of first appearance,
    numbers as floats, each with the text of every cell that fails its check."""
    typed = {}
    for name, column in cells.items():
        if name in ("task", "site", "group"):
            names = list(dict.fromkeys(column))
            typed[name] = names, [names.index(cell) for cell in column], {
                i: cell for i, cell in enumerate(column)
                if not re.fullmatch(r"[A-Za-z0-9_-]+", cell)}
        elif name in cli.INPUT_COLUMNS:
            values = [_number(cell) for cell in column]
            typed[name] = None, values, {
                i: cell for i, (cell, value) in enumerate(zip(column, values))
                if value is None or not np.isfinite(value)}
    return typed


def _read_typed(columns):
    """``cli._read_csv``'s columns as plain lists, NaN as None."""
    return {name: (column.names, [None if v != v else v for v in column.values.tolist()],
                   column.faults)
            for name, column in columns.items()}


PLAIN_CELLS = st.text(alphabet="ab_-01.", max_size=3)
QUIRKY_CELLS = st.one_of(st.text(alphabet='a0,"\n\r', max_size=3),
                         PLAIN_CELLS.map('"{}"'.format))


@st.composite
def csv_texts(draw):
    """Small CSV texts: mostly plain, some with quotes and carriage returns,
    ragged rows, blank lines, repeated header names and empty cells."""
    cell = st.one_of(PLAIN_CELLS, PLAIN_CELLS, PLAIN_CELLS, QUIRKY_CELLS)
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(["task", "site", "value", ""]),
                           min_size=width, max_size=width))
    rows = draw(st.lists(
        st.one_of(st.lists(cell, min_size=width, max_size=width),
                  st.lists(cell, max_size=width + 1)),
        max_size=6,
    ))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    lines = [",".join(row) for row in [header, *rows]]
    terminators = (draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                 min_size=len(lines), max_size=len(lines)))
                   if ends == "mixed" else [ends] * len(lines))
    if not draw(st.booleans()):
        terminators[-1] = ""  # no final newline
    return "".join(map(str.__add__, lines, terminators))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=csv_texts())
@example(text=RAW + "a,l1,0.5\na,l1," + "1" * 131_073 + "\n")
@example(text=RAW + "a,l1," + "1" * 131_072 + "\n")
@example(text="value\na\n\nb\n")
def test_reader_matches_streaming_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = _read_or_error(_read_csv_streaming, str(path), _reference_typed)
        assert _read_or_error(cli._read_csv, str(path), _read_typed) == expected


def _stdout(argv):
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    return out


def _estimate_file(tmp_path):
    """A summary file and its `estimate` output, for --b-from."""
    rows = ["a,l1,30,0.5,1.1,29", "a,l2,28,0.6,0.9,27", "a,l3,33,0.1,1.0,32",
            "a,l4,31,0.9,1.2,30"]
    data = tmp_path / "data.csv"
    data.write_text(SUMMARY + "\n".join(rows) + "\n", encoding="utf-8")
    estimates = tmp_path / "estimates.csv"
    assert run_cli(["estimate", "--input", str(data), "--output", str(estimates)])[0] == 0
    return data, estimates


def test_byte_order_mark_is_dropped(tmp_path):
    data, estimates = _estimate_file(tmp_path)
    marked_data, marked_estimates = tmp_path / "marked.csv", tmp_path / "marked_b.csv"
    marked_data.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    marked_estimates.write_bytes(b"\xef\xbb\xbf" + estimates.read_bytes())
    assert (_stdout(["estimate", "--input", str(marked_data)])
            == _stdout(["estimate", "--input", str(data)]))
    assert (_stdout(["test", "--input", str(marked_data), "--b-from", str(marked_estimates)])
            == _stdout(["test", "--input", str(data), "--b-from", str(estimates)]))


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
@pytest.mark.parametrize("fixture", ["summary_file", "raw_one_sample"])
def test_line_endings_read_alike(tmp_path, request, fixture, newline):
    path = request.getfixturevalue(fixture)
    other = tmp_path / "other.csv"
    with open(path, encoding="utf-8", newline="") as handle:
        other.write_text(handle.read().replace("\n", newline), encoding="utf-8", newline="")
    for command in ("estimate", "bmax"):
        assert (_stdout([command, "--input", str(other)])
                == _stdout([command, "--input", path]))


SIM_CONFIG = {"mu0": 1.0, "sigma0": 0.3, "n_per_experiment": 5, "k_experiments": 3,
              "n_tasks": 2, "alpha_levels": [0.05], "seed": 5}
# every command, with flags that succeed on both fixtures
WRITER_COMMANDS = [
    ["estimate"],
    ["test", "--b", "0.1", "--nu0", "7"],
    ["test", "--variant", "point"],
    ["predict", "--nr", "30", "--b", "0.1", "--nu0", "7"],
    ["bmax"],
    ["calibrate", "--variant", "integral", "--alphas", "0.05"],
    ["power", "--effect", "0.5", "--n", "30"],
    ["simulate"],
]


@pytest.mark.parametrize("fixture", ["summary_file", "raw_one_sample"])
def test_writer_matches_csv_writer(tmp_path, request, monkeypatch, fixture):
    path = request.getfixturevalue(fixture)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SIM_CONFIG))
    tables = []
    write = cli._write

    def spy(target, header, rows):
        tables.append((header, rows))
        write(target, header, rows)

    monkeypatch.setattr(cli, "_write", spy)
    for argv in WRITER_COMMANDS:
        if argv[0] == "simulate":
            argv = [*argv, "--config", str(config)]
        elif argv[0] != "power":
            argv = [*argv, "--input", path]
        out = tmp_path / "out.csv"
        assert run_cli([*argv, "--output", str(out)]) == (0, "", ""), argv
        header, rows = tables.pop()
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert out.read_bytes() == reference.getvalue().encode("utf-8"), argv


def _reference_rows(path):
    """``_read_csv_streaming`` with a leading byte-order mark dropped, as
    ingest drops it."""
    fields, lines, cells = _read_csv_streaming(path)
    if fields[0].startswith("﻿"):
        fields = [fields[0][1:], *fields[1:]]
        cells = {name.removeprefix("﻿"): column for name, column in cells.items()}
    return fields, lines, cells


def _reference_read(path, columns=cli.INPUT_COLUMNS):
    """``cli._read_csv`` from the reference's cells, each column converted
    whole, in one block."""
    fields, lines, cells = _reference_rows(path)
    typed = {}
    for name, column in cells.items():
        if name in columns:
            typed[name] = cli._Column(name in ("task", "site", "group"))
            typed[name].add(column)
            typed[name].close()
    return fields, lines, typed


def _nan_as_none(column):
    return [None if v != v else v for v in np.asarray(column, dtype=float).tolist()]


def _error(exc):
    return type(exc), str(exc), getattr(exc, "line", None)


def _loaded(path, family):
    """What ``load_sites`` makes of a file: its table, or its error."""
    try:
        shape, sites = cli.load_sites(path, family)
    except DistnullError as exc:
        return _error(exc)
    columns = (sites.n, sites.mean, sites.variance, sites.df, sites.t, sites.effect, sites.share)
    return (shape, sites.task_ids, sites.site_ids, sites.offsets.tolist(),
            [_nan_as_none(column) for column in columns])


# header and --family of each shape
SHAPES = {
    "one_sample": (RAW, None),
    "two_sample": (TWO, None),
    "summary": (SUMMARY, None),
    "paired": (XY, "paired"),
    "regression": (XY, "regression"),
    "contingency": (XY, "contingency"),
}
NUMBERS = ["0.5", "1", "-2.25", "3e-1", "1_000", " 1.5", "7", "0.125"]
BAD_NUMBERS = ["nan", "inf", "-inf", "", "zz", "1__0"]


@st.composite
def lines_of_text(draw, header, rows, faulty):
    """The text of a file: its header and rows, with a byte-order mark,
    blank lines, carriage returns, a quoted cell or no final newline as
    drawn; with ``faulty``, some rows may be cut short."""
    lines = [header.rstrip("\n")]
    for row in rows:
        if faulty and len(row) > 2 and draw(st.integers(0, 9)) == 0:
            row = row[:-1]
        if draw(st.integers(0, 7)) == 0:
            lines.append("")
        lines.append(",".join(row))
    head, _, last = lines[-1].rpartition(",")
    if head and draw(st.integers(0, 5)) == 0:  # a quoted cell, which only csv.reader reads
        lines[-1] = f'{head},"{last}"'
    text = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"])).join(lines)
    if draw(st.booleans()):
        text += "\n"
    return ("﻿" if draw(st.integers(0, 4)) == 0 else "") + text


@st.composite
def input_files(draw):
    """A small input file of any shape and its --family; with ``faulty``,
    some cells fail their checks."""
    shape = draw(st.sampled_from(sorted(SHAPES)))
    header, family = SHAPES[shape]
    faulty = draw(st.booleans())
    tasks = st.sampled_from(["a", "b", "c10"] + (["", "b b"] if faulty else []))
    sites = st.sampled_from(["l1", "l2", "l10"] + (["l%"] if faulty else []))
    groups = st.sampled_from(["g1", "g2"] + (["g 3", "g3"] if faulty else []))
    numbers = st.sampled_from(NUMBERS + (BAD_NUMBERS if faulty else []))
    if shape == "contingency":
        numbers = st.sampled_from(["0", "1", "1.0"] + (["2", "x"] if faulty else []))
    cells = {"one_sample": [numbers], "two_sample": [groups, numbers],
             "summary": [numbers] * 4}.get(shape, [numbers, numbers])
    rows = draw(st.lists(st.tuples(tasks, sites, *cells), min_size=1, max_size=12))
    return draw(lines_of_text(header, rows, faulty)), family


def _write_text(tmp, text):
    path = pathlib.Path(tmp) / "input.csv"
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(file=input_files(), block=st.integers(1, 4))
@example(file=(RAW + "a,l1,1\nb,l2,2\na,l1,3\nc,l1,4\nb,l2,5\nc,l1,zz\n", None), block=2)
@example(file=(SUMMARY + "a,l1,30,0.5,1,29\nb,l1,30,0.5,1,29\na,l1,30,zz,1,29\n", None), block=2)
def test_blocks_load_as_the_whole_file(file, block):
    text, family = file
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = _write_text(tmp, text)
        patch.setattr(cli, "_BLOCK_ROWS", block)
        got = _loaded(path, family)
        patch.setattr(cli, "_read_csv", _reference_read)
        assert got == _loaded(path, family)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_crlf_file_takes_the_plain_path(tmp_path, monkeypatch, shape):
    path = _random_file(tmp_path, shape, np.random.default_rng(len(shape)))
    twin = tmp_path / "crlf.csv"
    twin.write_bytes(pathlib.Path(path).read_bytes().replace(b"\n", b"\r\n"))
    family = SHAPES[shape][1]

    def refuse(*args):
        raise AssertionError("a CRLF file was read by csv.reader")

    monkeypatch.setattr(cli, "_reader_blocks", refuse)
    assert _loaded(str(twin), family) == _loaded(path, family)


# Values k/8, exactly floats, so that ``Fraction`` evaluates the formulas
# on the very numbers the file holds.
DYADIC = st.integers(-64, 64).map(lambda k: k / 8)


@st.composite
def exact_files(draw):
    """A small valid file of a raw shape, rows shuffled, as (shape, header,
    rows); each row's cells are its task, site and values."""
    shape = draw(st.sampled_from(["one_sample", "two_sample", "paired", "regression",
                                  "contingency"]))
    rows = []
    for task in draw(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2, unique=True)):
        for site in draw(st.lists(st.sampled_from(["l1", "l2", "l10"]), min_size=1, max_size=3,
                                  unique=True)):
            if shape == "one_sample":
                cells = [[v] for v in draw(st.lists(DYADIC, min_size=2, max_size=8))]
            elif shape == "two_sample":
                cells = [[group, v] for group in ("g2", "g1")
                         for v in draw(st.lists(DYADIC, min_size=2, max_size=6))]
            elif shape == "contingency":  # every cell filled, so no fit is perfect
                extra = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=8))
                cells = [[x, y] for x, y in [(1, 1), (1, 0), (0, 1), (0, 0), *extra]]
            else:
                cells = [list(pair) for pair in
                         draw(st.lists(st.tuples(DYADIC, DYADIC), min_size=3, max_size=8))]
            rows += [[task, site, *(c if isinstance(c, str) else repr(c) for c in row)]
                     for row in cells]
    header = {"one_sample": RAW, "two_sample": TWO}.get(shape, XY)
    return shape, header, draw(st.permutations(rows))


def _exact_site(shape, rows):
    """A site's (n, mean, variance, df, share) by the README formulas, in
    exact arithmetic, with its SSE and total sum of squares."""
    values = [[Fraction(cell) for cell in row[2 + (shape == "two_sample"):]] for row in rows]
    share = None
    if shape in ("one_sample", "paired"):
        ds = [row[0] - row[-1] if shape == "paired" else row[0] for row in values]
        n = len(ds)
        mean = sum(ds) / n
        sse, total, df = sum((d - mean) ** 2 for d in ds), sum(d * d for d in ds), n - 1
    elif shape == "two_sample":
        groups = {}
        for row, (v,) in zip(rows, values):
            groups.setdefault(row[2], []).append(v)
        first, second = (groups[name] for name in sorted(groups))
        means = [sum(g) / len(g) for g in (first, second)]
        sse = sum((v - m) ** 2 for g, m in zip((first, second), means) for v in g)
        total = sum(v * v for g in (first, second) for v in g)
        n, mean = Fraction(len(first) * len(second), len(rows)), means[0] - means[1]
        df, share = len(rows) - 2, Fraction(len(first), len(rows))
    else:
        xs, ys = [x for x, _ in values], [y for _, y in values]
        xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
        n = sum((x - xbar) ** 2 for x in xs)
        assume(n > 0)
        mean = sum((x - xbar) * y for x, y in zip(xs, ys)) / n
        sse = sum((y - ybar - mean * (x - xbar)) ** 2 for x, y in zip(xs, ys))
        total, df = sum(y * y for y in ys), len(rows) - 2
        if shape == "contingency":
            share = Fraction(sum(xs), len(xs))
    return (n, mean, sse / df, df, share), sse, total


def _close(got, exact, scale=0.0):
    """``got`` within 1e-12 of ``exact``, relative to the larger of |exact| and ``scale``."""
    return abs(got - float(exact)) <= 1e-12 * max(abs(float(exact)), scale)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(file=exact_files())
def test_loaded_columns_match_exact_arithmetic(file):
    shape, header, rows = file
    grouped = {}
    for row in rows:
        grouped.setdefault((row[0], row[1]), []).append(row)
    expected = []
    for key in sorted(grouped):
        summary, sse, total = _exact_site(shape, grouped[key])
        # below this the two-pass formulas lose their relative accuracy
        assume(sse > 0 and sse >= Fraction(1, 10**6) * total)
        expected.append(summary)
    family = shape if shape in ("paired", "regression", "contingency") else None
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_text(tmp, header + "".join(",".join(row) + "\n" for row in rows))
        _, sites = cli.load_sites(path, family)
    for i, (n, mean, variance, df, share) in enumerate(expected):
        t_squared = mean * mean * n / variance
        t = math.copysign(math.sqrt(float(t_squared)), mean)
        # a mean or t near 0 is held to its standard error, and to 1
        error = math.sqrt(float(variance / n))
        assert _close(sites.n[i], n) and _close(sites.df[i], df), (i, shape)
        assert _close(sites.mean[i], mean, error) and _close(sites.t[i], t, 1.0), (i, shape)
        assert _close(sites.variance[i], variance), (i, shape)
        assert (np.isnan(sites.share[i]) if share is None else _close(sites.share[i], share))


def _counted(calls, function):
    """``function``, appending the arguments of each call to ``calls``."""
    def counted(*args):
        calls.append(args)
        return function(*args)

    return counted


# (file text, --family): two valid sites, then one whose variance is 0
LATE_FAULTS = {
    "two_sample": (TWO + "".join(f"a,{site},{group},{v}\n" for site, values in (
        ("l1", "1234"), ("l2", "2468"), ("l3", "5555")) for group, v in zip("gghh", values)),
        None),
    "regression": (XY + "".join(f"a,{site},{x},{y}\n" for site, ys in (
        ("l1", "132"), ("l2", "314"), ("l3", "246")) for x, y in zip("123", ys)), "regression"),
    "contingency": (XY + "".join(f"a,{site},{x},{y}\n" for site, pairs in (
        ("l1", ["11", "10", "01", "00"]), ("l2", ["11", "10", "01", "00", "11"]),
        ("l3", ["11", "00", "11"])) for x, y in pairs), "contingency"),
}


@pytest.mark.parametrize("shape", sorted(LATE_FAULTS))
def test_only_the_faulty_sites_error_is_built(tmp_path, monkeypatch, shape):
    # the sites before the faulty one are reduced in bulk, never one by one
    text, family = LATE_FAULTS[shape]
    path = tmp_path / "late.csv"
    path.write_text(text, encoding="utf-8")
    built, statistics = [], []
    monkeypatch.setattr(ExperimentSummary, "__post_init__",
                        _counted(built, ExperimentSummary.__post_init__))
    monkeypatch.setattr(adapters, "statistic_from_summary",
                        _counted(statistics, adapters.statistic_from_summary))
    flags = ["--family", family] if family else []
    assert run_cli(["estimate", "--input", str(path), *flags]) == (
        4, "", "error: task 'a' site 'l3': sample variance is zero; t-statistic undefined\n")
    assert (len(built), len(statistics)) == (1, 1)


def _reference_b_from(path):
    """Each (task, site)'s (b_hat, nu0) in an estimate file, checked one row
    at a time: identifiers, a duplicate, then b_hat and nu0 as numbers, then
    b_hat > 0 and nu0 >= 1."""
    fields, lines, cells = _reference_rows(path)
    if not {"task", "site", "b_hat", "nu0"} <= set(fields):
        raise ParseError(f"{path} lacks columns task,site,b_hat,nu0", line=1)
    table = {}
    for line, task, site, b_text, nu0_text in zip(
        lines, cells["task"], cells["site"], cells["b_hat"], cells["nu0"]
    ):
        cli._check_identifier(task, "task", line)
        cli._check_identifier(site, "site", line)
        if b_text == "":
            continue
        if (task, site) in table:
            raise ParseError(f"duplicate estimate for task {task!r} site {site!r}", line=line)
        b_hat = cli._parse_real(b_text, "b_hat", line)
        nu0 = cli._parse_real(nu0_text, "nu0", line)
        if b_hat <= 0:
            raise ParseError(f"b_hat must be > 0, got {b_hat}", line=line)
        if not nu0 >= 1:
            raise ParseError(f"nu0 must be finite and >= 1, got {nu0!r}", line=line)
        table[(task, site)] = (b_hat, nu0)
    return table


# sites to join estimates to: every task and site the files name, and some they do not
JOINED = SiteTable(["a", "b", "z"], [0, 4, 8, 9], *np.ones((4, 9)),
                   site_ids=["l1", "l2", "l3", "l9"] * 2 + ["l1"])


@st.composite
def estimate_files(draw):
    """A small estimate file; with ``faulty``, cells fail their checks and
    (task, site) pairs repeat."""
    faulty = draw(st.booleans())
    tasks = st.sampled_from(["a", "b"] + (["a a"] if faulty else []))
    sites = st.sampled_from(["l1", "l2", "l3"] + (["", "l%"] if faulty else []))
    b_hats = st.sampled_from(["0.1", "2", "1_0", " 0.5", "", ""]
                             + (["0", "-1", "x", "inf", "nan"] if faulty else []))
    nu0s = st.sampled_from(["3", "5.5", "1"] + (["", "0.5", "nan", "q"] if faulty else []))
    pairs = draw(st.lists(st.tuples(tasks, sites), min_size=1, max_size=10, unique=not faulty))
    header = draw(st.sampled_from([B_FROM, "task,mode,site,b_hat,nu0\n"]))
    rows = [(task, *(["as_published"] if "mode" in header else []), site,
             draw(b_hats), draw(nu0s)) for task, site in pairs]
    return draw(lines_of_text(header, rows, faulty))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(text=estimate_files(), block=st.integers(1, 4))
@example(text=B_FROM + "a,l1,,\na,l1,0.2,2\nb,l2,inf,3\na,l1,0.3,2\n", block=1)
@example(text=B_FROM + "a,l1,0.2,2\nb,l2,,\nb,l2,1_0,q\n", block=2)
def test_b_from_blocks_read_as_the_row_by_row_checks(text, block):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = _write_text(tmp, text)
        patch.setattr(cli, "_BLOCK_ROWS", block)
        try:
            got = [_nan_as_none(column) for column in cli._load_b_from(path)(JOINED)]
        except DistnullError as exc:
            got = _error(exc)
        try:
            table = _reference_b_from(path)
        except DistnullError as exc:
            expected = _error(exc)
        else:
            found = [table.get((JOINED.task_ids[j], site), (None, None))
                     for j, site in zip(JOINED.task_of.tolist(), JOINED.site_ids)]
            expected = [list(column) for column in zip(*found)]
        assert got == expected
