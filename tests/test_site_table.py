"""The site table against its one-row and one-task views, bit for bit.

The commands and the simulation harness compute on whole columns of a
``SiteTable``; these properties pin every column to the scalar functions
it replaces, on ragged tables of every input shape: the loaded summaries
and statistics to ``summarize``, the family adapters and
``statistic_from_summary``, the per-task fit to a loop transcription of
``between_variance``, and the harness's stacked summaries to
``summarize`` on each simulated site.
"""

from __future__ import annotations

import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_csv
from distnull import cli
from distnull.adapters import (
    ContingencyTable,
    contingency_regression,
    regression,
    statistic_from_summary,
    unpaired_summary,
)
from distnull.errors import DomainError
from distnull.estimators import (
    ExperimentSummary,
    _between_variance,
    between_variance,
    summarize,
)
from distnull.oracle import SimConfig, _simulated_table, simulate_raw_task

SHAPES = ("summary", "one_sample", "two_sample", "paired", "regression", "contingency")
HEADERS = {
    "summary": ["task", "site", "n", "mean", "variance", "df"],
    "one_sample": ["task", "site", "value"],
    "two_sample": ["task", "site", "group", "value"],
}
# Row counts on both sides of numpy's pairwise-summation unroll (8) and block (128).
COUNTS = (2, 3, 4, 5, 8, 9, 16, 17, 33, 127, 128, 129)


def assert_bits(got, expected) -> None:
    assert np.asarray(got, float).tobytes() == np.asarray(expected, float).tobytes()


def _site(shape, rng):
    """One site's CSV cells (after task and site) and its reference summary and share."""
    shift = rng.normal(0.0, 0.5)
    if shape == "summary":
        n = int(rng.integers(2, 60))
        cells = [[str(n), repr(rng.normal(shift, 1.0)), repr(rng.chisquare(n) / n + 1e-3),
                  str(n - 1)]]
        return cells, ExperimentSummary(*(float(c) for c in cells[0])), None
    if shape == "one_sample":
        values = rng.normal(shift, 1.0, size=rng.choice(COUNTS))
        return [[repr(v)] for v in values.tolist()], summarize(values), None
    if shape == "two_sample":
        first = rng.normal(shift, 1.0, size=rng.choice(COUNTS))
        second = rng.normal(0.0, 1.0, size=rng.choice(COUNTS))
        cells = [["g0", repr(v)] for v in first.tolist()]
        cells += [["g1", repr(v)] for v in second.tolist()]
        return cells, unpaired_summary(first, second), first.size / (first.size + second.size)
    if shape == "contingency":
        extra = rng.integers(0, 2, size=(rng.choice(COUNTS), 2)).tolist()
        pairs = [(1, 1), (1, 0), (0, 1), (0, 0), *map(tuple, extra)]
        table = ContingencyTable(*(pairs.count(cell) for cell in ((1, 1), (1, 0), (0, 1), (0, 0))))
        share = (table.n11 + table.n10) / table.total
        return [[str(x), str(y)] for x, y in pairs], contingency_regression(table), share
    x = rng.normal(0.0, 1.0, size=max(3, rng.choice(COUNTS)))
    y = shift * x + rng.normal(0.0, 1.0, size=x.size)
    cells = [[repr(a), repr(b)] for a, b in zip(x.tolist(), y.tolist())]
    return cells, (summarize(x - y) if shape == "paired" else regression(x, y)), None


def _between_variance_loop(summaries, mode):
    """The per-task fit as a loop over its sites, the reference transcription;
    None where between_variance raises."""
    k = len(summaries)
    if k < 2 or any(e.df <= 2 for e in summaries):
        return None
    means = np.array([e.mean for e in summaries])
    grand_mean = float(means.mean())
    s_m_sq = float(np.sum((means - grand_mean) ** 2) / (k - 1))
    correction = 0.0
    for e in summaries:
        if mode == "as_published":
            correction += float(np.divide(e.df * e.sample_variance, e.n * (e.df - 2.0)))
        else:
            correction += e.sample_variance / e.n
    correction /= k
    if mode == "as_published":
        return s_m_sq + correction, k - 1, grand_mean
    return max(s_m_sq - correction, 0.0), k - 1, grand_mean


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(
    ks=st.lists(st.integers(1, 30), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_loaded_columns_equal_the_one_row_functions(shape, ks, seed):
    rng = np.random.default_rng(seed)
    blocks, counts, expected = [], [], {}
    for task_index, k in enumerate(ks):
        task = f"t{task_index}"
        names = set()
        while len(names) < k:  # code-point order differs from case-folded order
            names.add("".join(rng.choice(list("Aa_-0z"), size=3)))
        for site in names:
            cells, summary, share = _site(shape, rng)
            blocks.append(iter([[task, site, *c] for c in cells]))
            counts.append(len(cells))
            expected[(task, site)] = (summary, share)
    # sites interleave at random, each keeping its rows' order
    owners = np.repeat(np.arange(len(blocks)), counts)
    family = shape if shape in ("paired", "regression", "contingency") else None
    with tempfile.TemporaryDirectory() as tmp:
        header = HEADERS.get(shape, ["task", "site", "x", "y"])
        path = write_csv(pathlib.Path(tmp) / "sites.csv", header,
                         [next(blocks[o]) for o in rng.permutation(owners).tolist()])
        detected, table = cli.load_sites(path, family)
    assert detected == shape

    keys = sorted(expected)
    assert list(zip((table.task_ids[j] for j in table.task_of), table.site_ids)) == keys
    summaries = [expected[key][0] for key in keys]
    stats = [statistic_from_summary(s) for s in summaries]
    assert_bits(table.n, [s.n for s in summaries])
    assert_bits(table.mean, [s.mean for s in summaries])
    assert_bits(table.variance, [s.sample_variance for s in summaries])
    assert_bits(table.df, [s.df for s in summaries])
    assert_bits(table.t, [s.t for s in stats])
    assert_bits(table.effect, [s.effect for s in stats])
    assert_bits(table.share, [np.nan if expected[key][1] is None else expected[key][1]
                              for key in keys])

    for mode in ("as_published", "moment_corrected"):
        columns = _between_variance(table, mode)
        for j, k in enumerate(table.k.tolist()):
            task = summaries[table.offsets[j]:table.offsets[j] + k]
            reference = _between_variance_loop(task, mode)
            if reference is None:
                assert np.isnan([c[j] for c in columns]).all()
                continue
            assert_bits([c[j] for c in columns], reference)
            fit = between_variance(table.task(j), mode)
            assert_bits([fit.s0_sq, fit.nu0, fit.grand_mean], reference)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 30),
    n=st.sampled_from(COUNTS),
    streams=st.lists(st.integers(0, 1000), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_harness_summaries_equal_summarize(k, n, streams, seed):
    config = SimConfig(mu0=0.3, sigma0=0.2, n_per_experiment=n, k_experiments=k, seed=seed)
    table = _simulated_table(config, streams)
    expected = [summarize(row) for stream in streams for row in simulate_raw_task(config, stream)]
    assert_bits(table.n, [s.n for s in expected])
    assert_bits(table.mean, [s.mean for s in expected])
    assert_bits(table.variance, [s.sample_variance for s in expected])
    assert_bits(table.df, [s.df for s in expected])
    assert table.task_ids == [f"task{stream:04d}" for stream in streams]


def test_simulated_summaries_must_be_finite():
    config = SimConfig(mu0=0.0, sigma0=0.0, sigma=1e300, n_per_experiment=4, k_experiments=2)
    with pytest.raises(DomainError, match="finite"):
        _simulated_table(config, [0])
