"""Command-line surface: CSV in, deterministic tables out.

Subcommands: estimate, test, predict, calibrate, power, simulate, bmax.
Every command is a pure function of (input bytes, flags, seed): reals are
printed with 12 significant digits, probabilities below 1e-320 as
"<1e-320", rows sorted by (task, site), lines terminated with "\\n", so
repeated runs are byte-identical.

Exit codes: 0 success, 2 parse (malformed input file or I/O), 3
configuration (missing, unknown, malformed or inconsistent flags, or a bad
config file), 4 domain, 5 numeric; each error class carries its code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from functools import partial
from typing import NoReturn

import numpy as np

from .adapters import (
    ContingencyTable,
    contingency_regression,
    regression,
    regression_experiment_summary,
    statistic_from_summary,
    unpaired_summary,
)
from .distributions import (
    PROB_FLOOR, _check_alpha, _check_df, _check_finite, _check_nu0,
)
from .errors import (
    ConfigurationError,
    DegenerateVarianceError,
    DistnullError,
    DomainError,
    NumericError,
    ParseError,
)
from .estimators import (
    ExperimentSummary,
    TaskSet,
    between_variance,
    standardize_means,
    summarize,
    variance_ratio,
)
from .oracle import (
    MIN_BIN_PAIRS,
    SimConfig,
    bin_pairs,
    calibration_gap,
    gap_direction,
    simulate_raw_task,
    task_pair_records,
)
from .power import (
    PowerQuery,
    beta_distributional,
    beta_point,
    power_ceiling,
    required_sample_size,
)
from .replication import (
    ReplicationQuery, _b_max, _p_rep_closed, p_rep_bound, p_rep_integral,
)
from .significance import (
    TestStatistic,
    _p_point,
    _p_sig_closed,
    _t0,
    direction_of,
    p_sig_bound,
    p_sig_integral,
)

IDENTIFIER = re.compile(r"^[A-Za-z0-9_-]+$")
DEFAULT_ALPHAS = "0.1,0.05,0.01,0.005,0.001"

_MODES = {"as-published": "as_published", "moment": "moment_corrected"}


# ---------------------------------------------------------------------------
# formatting


def _real(x: float) -> str:
    return f"{float(x):.12g}"


def _prob(p: float) -> str:
    p = float(p)
    return "<1e-320" if p <= PROB_FLOOR else f"{p:.12g}"


def _log10(p: float) -> str:
    p = float(p)
    return "<-320" if p <= PROB_FLOOR else f"{math.log10(p):.12g}"


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


# ---------------------------------------------------------------------------
# input loading


@dataclasses.dataclass(frozen=True)
class SiteData:
    """One experiment: its canonical summary and the statistic derived from it.

    ``share`` is the first group's share of the N units in two-group
    families (two-sample, contingency), and None elsewhere.
    """

    task: str
    site: str
    summary: ExperimentSummary
    statistic: TestStatistic
    share: float | None = None


def _check_identifier(value: str, column: str, line: int) -> None:
    if value == "":
        raise ParseError(f"missing {column}", line=line)
    if not IDENTIFIER.match(value):
        raise ParseError(
            f"{column} {value!r} must match [A-Za-z0-9_-]+", line=line
        )


def _parse_real(text: str, column: str, line: int) -> float:
    if text == "":
        raise ParseError(f"missing {column}", line=line)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{column} {text!r} is not a number", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"{column} must be finite, got {text!r}", line=line)
    return value


def _read_csv(path: str) -> tuple[list[str], list[int], dict[str, list[str]]]:
    """The header, each row's line number, and each column's cells.

    Rows stream straight into per-column lists; blank lines are skipped. A
    row's line is the physical line it ends on. A repeated header name
    maps to its last column.
    """
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            fields = next(reader, None)
            if fields is None:
                raise ParseError(f"{path} is empty", line=1)
            width = len(fields)
            cells: list[list[str]] = [[] for _ in fields]
            appends = [column.append for column in cells]
            lines: list[int] = []
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    side = "more" if len(row) > width else "fewer"
                    raise ParseError(
                        f"row has {side} fields than the header", line=reader.line_num
                    )
                lines.append(reader.line_num)
                for append, cell in zip(appends, row):
                    append(cell)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc
        except csv.Error as exc:  # e.g. a cell over the csv module's field limit
            raise ParseError(f"{path}: {exc}", line=reader.line_num) from exc
    if not lines:
        raise ParseError(f"{path} has a header but no rows", line=1)
    return fields, lines, dict(zip(fields, cells))


def _not_utf8(path: str, exc: UnicodeDecodeError) -> ParseError:
    # the text reader decodes in blocks, so the bad byte's line is unknown
    return ParseError(f"{path} is not UTF-8 text ({exc.reason})")


SUMMARY_COLUMNS = ("task", "site", "n", "mean", "variance", "df")


def _detect_shape(fields: Sequence[str], family: str | None) -> str:
    head = set(fields)
    if head >= set(SUMMARY_COLUMNS):
        return "summary"
    if head == {"task", "site", "value"}:
        return "one_sample"
    if head == {"task", "site", "group", "value"}:
        return "two_sample"
    if head == {"task", "site", "x", "y"}:
        if family is None:
            raise ConfigurationError(
                "x+y files are ambiguous: pass --family paired|regression|contingency"
            )
        return family
    raise ParseError(
        "unrecognized columns "
        + ",".join(sorted(head))
        + "; expected task,site,value | task,site,group,value | task,site,x,y"
        " | task,site,n,mean,variance,df",
        line=1,
    )


@contextmanager
def _located(where: Callable[[], str]) -> Iterator[None]:
    """Prefix a domain or numeric error raised inside with ``where()``.

    Wrapped around a whole loop, ``where`` reads the loop's variables only
    when an error arrives, so the loop pays nothing per item. The error
    keeps its class and attributes, such as a NumericError's estimate.
    """
    try:
        yield
    except (DomainError, NumericError) as exc:
        exc.args = (f"{where()}: {exc}",)
        raise


# The cells each row of a shape is checked for, in the order they are checked.
_ROW_CHECKS = {
    "summary": (
        ("n", _parse_real), ("mean", _parse_real),
        ("variance", _parse_real), ("df", _parse_real),
    ),
    "one_sample": (("value", _parse_real),),
    "two_sample": (("group", _check_identifier), ("value", _parse_real)),
}
_XY_CHECKS = (("x", _parse_real), ("y", _parse_real))


def _floats(cells: list[str]) -> np.ndarray:
    """A column parsed by ``float``, with NaN where a cell is not a number."""
    try:
        return np.array(list(map(float, cells)))
    except ValueError:
        return np.array([_float_or_nan(cell) for cell in cells])


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _invalid(values: list[str]) -> set[str]:
    """The distinct values in ``values`` that are not identifiers."""
    return {v for v in set(values) if not IDENTIFIER.match(v)}


class _Table:
    """An input file in columns: cells as read, numeric columns as floats.

    Every cell is checked in bulk; ``faulty`` marks the rows holding one
    that fails its check, or is None when no row does.
    """

    def __init__(self, shape: str, lines: list[int], cells: dict[str, list[str]]):
        self.lines = lines
        self.cells = cells
        self.checks = _ROW_CHECKS.get(shape, _XY_CHECKS)
        self.reals: dict[str, np.ndarray] = {}
        faulty = np.zeros(len(lines), dtype=bool)
        for column, check in self.checks:
            if check is _parse_real:
                self.reals[column] = _floats(cells[column])
                faulty |= ~np.isfinite(self.reals[column])
            else:
                bad = _invalid(cells[column])
                if bad:
                    faulty |= np.array([cell in bad for cell in cells[column]])
        self.faulty = faulty if faulty.any() else None

    def check(self, rows: np.ndarray) -> None:
        """Raise the first error the row-by-row checks meet in ``rows``, if any."""
        if self.faulty is None or not self.faulty[rows].any():
            return
        for i in rows:
            for column, check in self.checks:
                check(self.cells[column][i], column, self.lines[i])


def _site_rows(tasks: list[str], sites: list[str]) -> list[tuple[str, str, np.ndarray]]:
    """Each (task, site) with its row indices in file order, sorted (task, site)."""
    task_ids, site_ids = sorted(set(tasks)), sorted(set(sites))
    task_rank = {t: i for i, t in enumerate(task_ids)}
    site_rank = {s: i for i, s in enumerate(site_ids)}
    task_codes = np.fromiter(map(task_rank.__getitem__, tasks), np.intp, len(tasks))
    site_codes = np.fromiter(map(site_rank.__getitem__, sites), np.intp, len(sites))
    key = task_codes * len(site_ids) + site_codes
    order = np.argsort(key, kind="stable")  # stable: file order within a site
    ordered = key[order]
    bounds = [0, *(np.flatnonzero(np.diff(ordered)) + 1).tolist(), len(order)]
    groups = []
    for lo, hi in zip(bounds, bounds[1:]):
        task, site = divmod(int(ordered[lo]), len(site_ids))
        groups.append((task_ids[task], site_ids[site], order[lo:hi]))
    return groups


def load_sites(path: str, family: str | None) -> tuple[str, list[SiteData]]:
    """Ingest a CSV into per-site summaries and statistics, sorted (task, site).

    Returns the detected shape name alongside the sites.
    """
    fields, lines, cells = _read_csv(path)
    shape = _detect_shape(fields, family)
    if family is not None and shape != family:
        raise ConfigurationError(
            f"--family {family} does not apply to a {shape}-shaped file"
        )
    tasks, site_names = cells["task"], cells["site"]
    if _invalid(tasks) or _invalid(site_names):
        for line, task, site in zip(lines, tasks, site_names):
            _check_identifier(task, "task", line)
            _check_identifier(site, "site", line)

    table = _Table(shape, lines, cells)
    sites = []
    with _located(lambda: f"task {task!r} site {site!r}"):
        for task, site, rows in _site_rows(tasks, site_names):
            summary, share = _build_summary(shape, task, site, table, rows)
            sites.append(
                SiteData(task, site, summary, statistic_from_summary(summary), share)
            )
    return shape, sites


def _by_task(sites: list[SiteData]) -> list[tuple[str, list[SiteData]]]:
    """Sites grouped by task, in task order."""
    groups: dict[str, list[SiteData]] = {}
    for s in sites:
        groups.setdefault(s.task, []).append(s)
    return sorted(groups.items())


def _build_summary(
    shape: str, task: str, site: str, table: _Table, rows: np.ndarray
) -> tuple[ExperimentSummary, float | None]:
    """One site's rows as its canonical summary, with its two-group share."""
    if shape == "summary":
        if len(rows) > 1:
            raise ParseError(
                f"duplicate summary row for task {task!r} site {site!r}",
                line=table.lines[rows[1]],
            )
        table.check(rows)
        (row,) = rows
        reals = table.reals
        try:
            summary = ExperimentSummary(
                n=float(reals["n"][row]),
                mean=float(reals["mean"][row]),
                sample_variance=float(reals["variance"][row]),
                df=float(reals["df"][row]),
            )
        except DomainError as exc:
            raise ParseError(str(exc), line=table.lines[row]) from exc
        return summary, None

    table.check(rows)
    if shape == "one_sample":
        return summarize(table.reals["value"][rows]), None

    if shape == "two_sample":
        groups = [table.cells["group"][i] for i in rows]
        ids = sorted(set(groups))
        if len(ids) != 2:
            raise ParseError(
                f"task {task!r} site {site!r} has {len(ids)} groups; need exactly 2"
            )
        values = table.reals["value"][rows]
        in_first = np.array([g == ids[0] for g in groups])
        first, second = values[in_first], values[~in_first]
        share = first.size / (first.size + second.size)
        return unpaired_summary(first, second), share

    x, y = table.reals["x"][rows], table.reals["y"][rows]
    if shape == "paired":
        return summarize(x - y), None

    if shape == "regression":
        return regression_experiment_summary(regression(x, y)), None

    # contingency: 0/1 pairs aggregated to a 2x2 table
    binary = ((x == 0.0) | (x == 1.0)) & ((y == 0.0) | (y == 1.0))
    if not binary.all():
        raise ParseError(
            "contingency x and y must be 0 or 1", line=table.lines[rows[binary.argmin()]]
        )
    counts = ContingencyTable(
        n11=int(np.count_nonzero((x == 1.0) & (y == 1.0))),
        n10=int(np.count_nonzero((x == 1.0) & (y == 0.0))),
        n01=int(np.count_nonzero((x == 0.0) & (y == 1.0))),
        n00=int(np.count_nonzero((x == 0.0) & (y == 0.0))),
    )
    share = (counts.n11 + counts.n10) / counts.total
    return regression_experiment_summary(contingency_regression(counts)), share


# ---------------------------------------------------------------------------
# variance-source resolution


VarianceLookup = Callable[[str, str], tuple[float, float]]


def _load_b_from(path: str) -> VarianceLookup:
    fields, lines, cells = _read_csv(path)
    needed = {"task", "site", "b_hat", "nu0"}
    if not needed <= set(fields):
        raise ParseError(f"{path} lacks columns task,site,b_hat,nu0", line=1)
    table: dict[tuple[str, str], tuple[float, float]] = {}
    for line, task, site, b_text, nu0_text in zip(
        lines, cells["task"], cells["site"], cells["b_hat"], cells["nu0"]
    ):
        _check_identifier(task, "task", line)
        _check_identifier(site, "site", line)
        if b_text == "" or nu0_text == "":
            continue  # skipped or degenerate rows carry no estimate
        if (task, site) in table:
            raise ParseError(
                f"duplicate estimate for task {task!r} site {site!r}", line=line
            )
        b_hat = _parse_real(b_text, "b_hat", line)
        nu0 = _parse_real(nu0_text, "nu0", line)
        if b_hat <= 0:
            raise ParseError(f"b_hat must be > 0, got {b_hat}", line=line)
        try:
            _check_nu0(nu0)
        except DomainError as exc:
            raise ParseError(str(exc), line=line) from None
        table[(task, site)] = (b_hat, nu0)

    def lookup(task: str, site: str) -> tuple[float, float]:
        try:
            return table[(task, site)]
        except KeyError:
            raise ConfigurationError(
                f"--b-from has no estimate for task {task!r} site {site!r}"
            ) from None

    return lookup


def resolve_variance(args: argparse.Namespace) -> VarianceLookup | None:
    """Each site's (b_hat, nu0) lookup; None for the point and bound variants."""
    variant = args.variant
    has_b = args.b is not None
    has_from = args.b_from is not None
    has_bound = args.bound is not None
    has_nu0 = args.nu0 is not None

    if variant in ("closed", "integral"):
        if has_bound:
            raise ConfigurationError(f"--bound is not used by --variant {variant}")
        if has_b and has_from:
            raise ConfigurationError("--b and --b-from are mutually exclusive")
        if has_b:
            if not has_nu0:
                raise ConfigurationError("--b requires --nu0")
            return lambda task, site: (args.b, args.nu0)
        if has_from:
            if has_nu0:
                raise ConfigurationError("--nu0 conflicts with --b-from")
            return _load_b_from(args.b_from)
        raise ConfigurationError(
            f"--variant {variant} needs a variance source: --b with --nu0, or --b-from"
        )

    if variant == "bound":
        if has_b or has_from or has_nu0:
            raise ConfigurationError("--variant bound uses --bound only")
        if not has_bound:
            raise ConfigurationError("--variant bound requires --bound")
    elif has_b or has_from or has_bound or has_nu0:  # point
        raise ConfigurationError("--variant point takes no variance source flags")
    return None


# ---------------------------------------------------------------------------
# subcommands


def cmd_estimate(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    mode = _MODES[args.mode]
    _, sites = load_sites(args.input, args.family)
    header = [
        "task", "site", "n", "mean", "variance", "df", "k", "grand_mean",
        "s0_sq", "nu0", "b_hat", "z", "mode", "note",
    ]
    out: list[list[str]] = []
    with _located(lambda: f"task {task!r}"):
        for task, group in _by_task(sites):
            base = [
                [s.site, _real(s.summary.n), _real(s.summary.mean),
                 _real(s.summary.sample_variance), _real(s.summary.df)]
                for s in group
            ]
            if len(group) < 2:
                for cols in base:
                    out.append([task, *cols, "", "", "", "", "", "",
                                mode, "skipped_single_site"])
                continue
            task_set = TaskSet(task, tuple(s.summary for s in group))
            b0 = between_variance(task_set, mode)
            if b0.s0_sq > 0.0:
                zs = [_real(z) for z in standardize_means(task_set, b0)]
                note = ""
            else:
                zs = [""] * len(group)
                note = "degenerate_variance"
            for s, cols, z in zip(group, base, zs):
                # a degenerate task carries no estimate; every loaded site
                # has a positive variance, so the ratio is defined
                b_hat = "" if note else _real(variance_ratio(b0, s.summary))
                out.append([task, *cols, _real(task_set.k), _real(b0.grand_mean),
                            _real(b0.s0_sq), _real(b0.nu0), b_hat, z, mode, note])
    return header, out


@np.errstate(over="ignore")  # a b_used of inf is reported by the kernels
def _site_variances(
    lookup: VarianceLookup, sites: list[SiteData], scale_e: float
) -> tuple[np.ndarray, np.ndarray, ConfigurationError | None]:
    """Each site's b_used and nu0, NaN where no estimate exists, and the first such error."""
    pairs, missing = [], None
    for i, s in enumerate(sites):
        try:
            pairs.append(lookup(s.task, s.site))
        except ConfigurationError as exc:
            pairs.append((math.nan, math.nan))
            if missing is None:
                exc.row, missing = i, exc
    b_hat, nu0 = np.array(pairs).T
    return b_hat * scale_e, nu0, missing


def _each_site(value: Callable[[int], float], count: int) -> np.ndarray:
    """value(i) for ``count`` sites as a column; an error carries its row."""
    values = []
    try:
        for i in range(count):
            values.append(value(i))
    except DistnullError as exc:
        exc.row = i
        raise
    return np.array(values, dtype=float)


def _site_columns(
    sites: list[SiteData], missing: DistnullError | None, *stages: Callable[[], np.ndarray]
) -> list[np.ndarray]:
    """Each stage's column over all sites, or the error a site-by-site pass meets first.

    The stages are in the order one site's values are computed, and each
    one's error carries the row it first fails at; ``missing`` is met
    before them, at its row. The earliest row wins, then the earliest
    stage. A domain or numeric error is prefixed with its task and site.
    """
    columns, errors = [], [] if missing is None else [(missing.row, -1, missing)]
    for rank, stage in enumerate(stages):
        try:
            columns.append(stage())
        except DistnullError as exc:
            errors.append((exc.row or 0, rank, exc))
    if not errors:
        return columns
    row, _, error = min(errors, key=lambda e: e[:2])
    if isinstance(error, (DomainError, NumericError)):
        error.args = (f"task {sites[row].task!r} site {sites[row].site!r}: {error}",)
    raise error


def cmd_test(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    lookup = resolve_variance(args)
    _, sites = load_sites(args.input, args.family)
    header = [
        "task", "site", "n", "df", "t", "effect", "t0", "alpha", "variant",
        "b_used", "nu0_used", "bound", "scale_e", "p_point", "log10_p_point",
        "p_sig", "log10_p_sig", "direction", "significant",
    ]
    stats = [s.statistic for s in sites]
    t, n, df = np.array([(s.t, s.n, s.df) for s in stats]).T
    pp = _p_point(t, df)
    missing = None
    if lookup is not None:
        b_used, nu0, missing = _site_variances(lookup, sites, args.scale_e)

    def significance() -> np.ndarray:
        if args.variant == "point":
            return pp
        if args.variant == "bound":
            return _each_site(lambda i: p_sig_bound(stats[i], args.bound), len(sites))
        if args.variant == "closed":
            return _p_sig_closed(t, n, b_used, nu0)
        return _each_site(lambda i: p_sig_integral(stats[i], b_used[i], nu0[i]), len(sites))

    (p_sig,) = _site_columns(sites, missing, significance)
    directions = [direction_of(stat) for stat in stats]
    significant = p_sig <= args.alpha
    if args.direction is not None:
        significant &= np.array(directions) == args.direction
    if lookup is None:
        t0_text = b_text = nu0_text = [""] * len(sites)
    else:
        t0_text, b_text, nu0_text = (
            [_real(x) for x in column.tolist()] for column in (_t0(t, n, b_used), b_used, nu0)
        )
    fixed = [_real(args.alpha), args.variant]
    scale = [_real(args.bound) if args.variant == "bound" else "", _real(args.scale_e)]
    out = [
        [s.task, s.site, _real(stat.n), _real(stat.df), _real(stat.t), _real(stat.effect),
         t0, *fixed, b, v0, *scale, _prob(p), _log10(p), _prob(q), _log10(q),
         direction, _bool(flag)]
        for s, stat, t0, b, v0, p, q, direction, flag in zip(
            sites, stats, t0_text, b_text, nu0_text, pp.tolist(), p_sig.tolist(),
            directions, significant.tolist(),
        )
    ]
    return header, out


def _replication_design(
    args: argparse.Namespace, shape: str, s: SiteData
) -> tuple[float, float]:
    """Per-family (n_r, df_r) from --nr / --df-r, per the documented map."""
    n_r, df_r = args.nr, args.df_r
    if shape == "regression":
        if df_r is None:
            raise ConfigurationError(
                "--family regression needs an explicit --df-r for prediction"
            )
    elif shape in ("two_sample", "contingency"):
        # N_r units split at the observed share: effective size N_r*p*(1-p)
        if df_r is None:
            if n_r <= 2:
                raise ConfigurationError(
                    f"--nr {n_r:g} leaves no df_r = N_r - 2 for a {shape} "
                    "replication; pass --nr > 2 or an explicit --df-r"
                )
            df_r = n_r - 2
        n_r = n_r * s.share * (1.0 - s.share)
    elif df_r is None:
        df_r = n_r - 1
    return n_r, df_r


def _bmax_cells(columns: np.ndarray) -> list[list[str]]:
    """Each site's tau, z_max and b_max cells, empty where t = 0 leaves them undefined."""
    return [["" if math.isnan(x) else _real(x) for x in row] for row in columns.T.tolist()]


def cmd_predict(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    lookup = resolve_variance(args)
    shape, sites = load_sites(args.input, args.family)
    header = [
        "task", "site", "n", "df", "t", "n_r", "df_r", "alpha", "variant",
        "b_used", "nu0_used", "bound", "scale_e", "p_rep", "log10_p_rep",
        "tau", "z_max", "b_max",
    ]
    stats = [s.statistic for s in sites]
    t, n, df = np.array([(s.t, s.n, s.df) for s in stats]).T
    designs = [_replication_design(args, shape, s) for s in sites]
    n_r, df_r = np.array(designs).T
    missing = None
    if lookup is not None:
        b_used, nu0, missing = _site_variances(lookup, sites, args.scale_e)

    def forecast() -> np.ndarray:
        if args.variant == "closed":
            return _p_rep_closed(t, n, b_used, nu0, args.alpha, n_r, df_r)

        def one(i: int) -> float:
            query = ReplicationQuery(stats[i], *designs[i], alpha=args.alpha)
            if args.variant == "bound":
                return p_rep_bound(query, args.bound)
            return p_rep_integral(query, b_used[i], nu0[i])

        return _each_site(one, len(sites))

    forecasts, diagnostics = _site_columns(
        sites, missing, forecast, lambda: np.array(_b_max(t, n, df, args.alpha))
    )
    if lookup is None:
        b_text = nu0_text = [""] * len(sites)
    else:
        b_text, nu0_text = ([_real(x) for x in c.tolist()] for c in (b_used, nu0))
    fixed = [_real(args.alpha), args.variant]
    scale = [_real(args.bound) if args.variant == "bound" else "", _real(args.scale_e)]
    out = [
        [s.task, s.site, _real(stat.n), _real(stat.df), _real(stat.t), _real(nr), _real(dr),
         *fixed, b, v0, *scale, _prob(p), _log10(p), *cells]
        for s, stat, (nr, dr), b, v0, p, cells in zip(
            sites, stats, designs, b_text, nu0_text, forecasts.tolist(),
            _bmax_cells(diagnostics),
        )
    ]
    return header, out


def cmd_calibrate(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    mode = _MODES[args.mode]
    _, sites = load_sites(args.input, args.family)
    tables = []
    with _located(lambda: f"task {task!r}"):
        for task, group in _by_task(sites):
            if len(group) < 2:
                print(
                    f"warning: task {task!r} has a single site; skipped",
                    file=sys.stderr,
                )
                continue
            task_set = TaskSet(task, tuple(s.summary for s in group))
            try:
                tables.append(task_pair_records(
                    task_set, args.alphas, mode=mode,
                    scale_e=args.scale_e, variant=args.variant,
                ))
            except DegenerateVarianceError:
                print(f"warning: task {task!r} has S0^2 = 0; skipped", file=sys.stderr)
    if not tables:
        raise DomainError("no task with >= 2 sites and S0^2 > 0; nothing to calibrate")

    bins = bin_pairs(np.concatenate(tables))
    gap = calibration_gap(bins)
    direction = "" if gap is None else gap_direction(gap)
    header = [
        "predictor_significant", "lower", "upper", "pairs", "mean_forecast",
        "observed_rate", "included", "scale_e", "direction",
    ]
    out = [
        [
            _bool(b.predictor_significant), _real(b.lower), _real(b.upper),
            _real(b.pair_count), _real(b.mean_forecast), _real(b.observed_rate),
            _bool(b.pair_count >= MIN_BIN_PAIRS), _real(args.scale_e), direction,
        ]
        for b in bins
    ]
    return header, out


def cmd_power(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    df = args.df if args.df is not None else args.n - 1
    header = [
        "effect", "n", "df", "alpha", "b", "beta_point", "power_point",
        "beta_distributional", "power_distributional", "power_ceiling",
        "target_power", "feasible", "required_n",
    ]
    query = PowerQuery(
        effect=args.effect, n=args.n, df=df, alpha=args.alpha, b=args.b
    )
    bp = beta_point(query)
    ceiling = power_ceiling(args.effect, df, args.alpha)
    if args.b is not None:
        bd = beta_distributional(query)
        bd_text, pd_text = _real(bd), _real(1.0 - bd)
    else:
        bd_text = pd_text = ""

    target_text = feasible_text = required_text = ""
    if args.target_power is not None:
        target_text = _real(args.target_power)
        if args.b is not None and args.target_power > ceiling:
            feasible_text = "false"
        elif args.effect == 0.0 and args.target_power > args.alpha:
            feasible_text = "false"
        else:
            feasible_text = "true"
            required_text = _real(
                required_sample_size(args.effect, args.alpha, args.target_power)
            )
    row = [
        _real(args.effect), _real(args.n), _real(df), _real(args.alpha),
        _real(args.b) if args.b is not None else "",
        _real(bp), _real(1.0 - bp), bd_text, pd_text, _real(ceiling),
        target_text, feasible_text, required_text,
    ]
    return header, [row]


def _load_sim_config(path: str, seed_override: int | None) -> SimConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    unknown = set(raw) - {field.name for field in dataclasses.fields(SimConfig)}
    if unknown:
        raise ConfigurationError(
            "unknown config keys: " + ",".join(sorted(unknown))
        )
    if "alpha_levels" in raw:
        levels = raw["alpha_levels"]
        if not isinstance(levels, list):
            raise ConfigurationError("alpha_levels must be a list")
        raw["alpha_levels"] = tuple(levels)
    if seed_override is not None:
        raw["seed"] = seed_override
    try:
        return SimConfig(**raw)
    except (DomainError, TypeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def cmd_simulate(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    config = _load_sim_config(args.config, args.seed)
    header = ["task", "site", "value"]
    out = []
    for stream in range(config.n_tasks):
        matrix = simulate_raw_task(config, stream)
        task = f"task{stream:04d}"
        for j in range(config.k_experiments):
            site = f"site{j:04d}"
            out.extend([task, site, _real(v)] for v in matrix[j])
    return header, out


def cmd_bmax(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    _, sites = load_sites(args.input, args.family)
    header = ["task", "site", "n", "df", "t", "effect", "alpha", "tau", "z_max", "b_max"]
    stats = [s.statistic for s in sites]
    t, n, df = np.array([(s.t, s.n, s.df) for s in stats]).T
    (diagnostics,) = _site_columns(sites, None, lambda: np.array(_b_max(t, n, df, args.alpha)))
    alpha = _real(args.alpha)
    out = [
        [s.task, s.site, _real(stat.n), _real(stat.df), _real(stat.t),
         _real(stat.effect), alpha, *cells]
        for s, stat, cells in zip(sites, stats, _bmax_cells(diagnostics))
    ]
    return header, out


# ---------------------------------------------------------------------------
# plumbing


def _check_flag(flag: str, check: Callable, value: object) -> object:
    """Apply a check to a flag value; a domain failure names the flag."""
    try:
        return check(value)
    except DomainError as exc:
        raise ConfigurationError(f"{flag}: {exc}") from None


def _parse_alphas(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigurationError("--alphas needs at least one level")
    levels = []
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            raise ConfigurationError(f"--alphas entry {part!r} is not a number") from None
        _check_flag("--alphas", _check_alpha, value)
        if value in levels:
            raise ConfigurationError(f"duplicate alpha {value}")
        levels.append(value)
    return tuple(levels)


def _check_at_least(value: float, low: float, name: str) -> float:
    if not (math.isfinite(value) and value >= low):
        raise DomainError(f"{name} must be finite and >= {low:g}, got {value!r}")
    return value


_SCALE_E = partial(_check_df, name="scale_e")
_BMAX_ALPHA = partial(_check_alpha, upper=0.5)  # the b_max cells need alpha < 0.5
_VARIANCE_SOURCE = {
    "--b": partial(_check_df, name="b"),
    "--nu0": _check_nu0,
    "--bound": partial(_check_df, name="bound"),
}

# Each subcommand's flag checks, in the order they run. main runs them
# before the command reads any input, skips absent flags, and passes on
# the value each check returns; a failure names its flag (exit 3).
_FLAG_CHECKS: dict[str, dict[str, Callable]] = {
    "test": {"--alpha": _check_alpha, "--scale-e": _SCALE_E, **_VARIANCE_SOURCE},
    "predict": {
        "--alpha": _BMAX_ALPHA, "--scale-e": _SCALE_E,
        "--nr": partial(_check_at_least, low=2.0, name="n_r"),
        "--df-r": partial(_check_df, name="df_r"), **_VARIANCE_SOURCE,
    },
    "calibrate": {"--scale-e": _SCALE_E, "--alphas": _parse_alphas},
    "power": {
        "--alpha": _check_alpha,
        "--effect": partial(_check_finite, name="effect"),
        "--n": partial(_check_at_least, low=2.0, name="n"),
        "--df": partial(_check_df, name="df"),
        "--b": partial(_check_df, name="b"),
        "--target-power": partial(_check_alpha, name="target_power"),
    },
    "bmax": {"--alpha": _BMAX_ALPHA},
}


def _write(path: str | None, header: list[str], rows: Iterable[list[str]]) -> None:
    def emit(stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    if path is None:
        emit(sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            emit(handle)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _add_io(parser: argparse.ArgumentParser, needs_input: bool = True) -> None:
    if needs_input:
        parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--output", help="output CSV path (default stdout)")


def _add_family(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family", choices=("paired", "regression", "contingency"),
        help="experiment family for x+y files (ambiguous without it)",
    )


def _add_variance_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--b", type=float, help="explicit variance ratio b-hat")
    parser.add_argument("--nu0", type=float, help="between-variance df (with --b)")
    parser.add_argument(
        "--b-from", dest="b_from", help="estimate CSV supplying b_hat and nu0"
    )
    parser.add_argument("--bound", type=float, help="variance-ratio bound B")
    parser.add_argument(
        "--scale-e", dest="scale_e", type=float, default=1.0,
        help="multiply the b-hat estimate by e before use (default 1)",
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, the configuration code.

    Subparsers are built from the same class, so every subcommand agrees.
    """

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="distnull",
        description=(
            "Significance and replication-probability analysis under a "
            "distributional null, over CSV experiment data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="between-experiment variance per task")
    _add_io(p)
    _add_family(p)
    p.add_argument("--mode", choices=tuple(_MODES), default="as-published")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="significance per experiment")
    _add_io(p)
    _add_family(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--variant", choices=("point", "closed", "integral", "bound"),
        default="closed",
    )
    p.add_argument("--direction", choices=("positive", "negative"))
    _add_variance_source(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("predict", help="replication forecast per experiment")
    _add_io(p)
    _add_family(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--variant", choices=("closed", "integral", "bound"), default="closed"
    )
    p.add_argument(
        "--nr", "--n-rep", dest="nr", type=float, required=True,
        help="replication size: N_r (count families) or Q_r (regression)",
    )
    p.add_argument(
        "--df-r", "--df-rep", dest="df_r", type=float,
        help="replication df (required for regression; defaulted elsewhere)",
    )
    _add_variance_source(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("calibrate", help="binned forecast-vs-outcome table")
    _add_io(p)
    _add_family(p)
    p.add_argument("--alphas", default=DEFAULT_ALPHAS)
    p.add_argument("--variant", choices=("closed", "integral"), default="closed")
    p.add_argument("--mode", choices=tuple(_MODES), default="as-published")
    p.add_argument("--scale-e", dest="scale_e", type=float, default=1.0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("power", help="power and feasibility for a design")
    _add_io(p, needs_input=False)
    p.add_argument("--effect", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--df", type=float)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--b", type=float)
    p.add_argument("--target-power", dest="target_power", type=float)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("simulate", help="raw CSV from the hierarchical model")
    p.add_argument("--config", required=True, help="JSON simulation config")
    p.add_argument("--output", help="output CSV path (default stdout)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bmax", help="most-favorable variance ratio per experiment")
    _add_io(p)
    _add_family(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_bmax)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, check in _FLAG_CHECKS.get(args.command, {}).items():
            dest = flag[2:].replace("-", "_")
            value = getattr(args, dest)
            if value is not None:
                setattr(args, dest, _check_flag(flag, check, value))
        header, rows = args.func(args)
        _write(getattr(args, "output", None), header, rows)
    except DistnullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
