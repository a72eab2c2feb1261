"""Command-line surface: CSV in, deterministic tables out.

Subcommands: estimate, test, predict, calibrate, power, simulate, bmax.
Every command is a pure function of (input bytes, flags, seed): reals are
printed with 12 significant digits, probabilities below 1e-320 as
"<1e-320", rows sorted by (task, site), lines terminated with "\\n", so
repeated runs are byte-identical.

Each command loads its input into one SiteTable (see ``load_sites``) and
works on whole columns of it; an output column is formatted at once.

Exit codes: 0 success, 2 parse (malformed input file or I/O), 3
configuration (missing, unknown, malformed or inconsistent flags, or a bad
config file), 4 domain, 5 numeric; each error class carries its code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys
from collections import ChainMap
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import partial
from itertools import chain, repeat
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from .adapters import _regressions, _statistic_faults, _tables, _unpaired
from .distributions import (
    PROB_FLOOR, _at_least, _check_alpha, _check_at_least, _check_b_hat, _check_df, _check_finite,
    _check_nu0, _Faults, _positive,
)
from .errors import (
    ConfigurationError,
    DistnullError,
    DomainError,
    ParseError,
    _raise_first,
)
from .estimators import (
    ExperimentSummary,
    SiteTable,
    _between_variance,
    _summaries,
    _summary_valid,
)
from .power import (
    PowerQuery,
    beta_distributional,
    beta_point,
    power_ceiling,
    required_sample_size,
)
from .replication import _b_max, _p_rep_column
from .significance import _p_point, _p_sig_column, _t0

if TYPE_CHECKING:  # the simulation harness is imported by the commands that use it
    from .oracle import SimConfig

IDENTIFIER = re.compile(r"[A-Za-z0-9_-]+")

_MODES = {"as-published": "as_published", "moment": "moment_corrected"}


# ---------------------------------------------------------------------------
# formatting


def _real(x: float) -> str:
    return f"{float(x):.12g}"


def _reals(column) -> list[str]:
    """A column's values with 12 significant digits, empty where a value is
    NaN (unused or undefined)."""
    texts = map("{:.12g}".format, np.asarray(column, dtype=float).tolist())
    return ["" if text == "nan" else text for text in texts]


def _probs(column) -> list[str]:
    """Probabilities with 12 significant digits, "<1e-320" at the floor."""
    column = np.asarray(column, dtype=float)
    return ["<1e-320" if p <= PROB_FLOOR else text
            for p, text in zip(column.tolist(), _reals(column))]


def _log10s(column) -> list[str]:
    """log10 of probabilities, "<-320" at the floor."""
    return ["<-320" if p <= PROB_FLOOR else f"{math.log10(p):.12g}"
            for p in np.asarray(column, dtype=float).tolist()]


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


# ---------------------------------------------------------------------------
# input loading


def _check_identifier(value: str, column: str, line: int) -> None:
    if value == "":
        raise ParseError(f"missing {column}", line=line)
    if not IDENTIFIER.fullmatch(value):
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


# The columns ingest reads from an input file, where the header has them;
# the first three hold identifiers, the others numbers.
INPUT_COLUMNS = ("task", "site", "group", "value", "x", "y", "n", "mean", "variance", "df")
# Rows converted at a time: a block's cells are the only per-cell strings alive.
_BLOCK_ROWS = 1 << 12


class _Column:
    """One column of an input file, converted block by block as it is read:
    identifiers to codes into ``names``, in order of first appearance
    (``codes`` maps a name to its code), numbers by ``float``, NaN where a
    cell is not one. ``faults`` keeps the text of each cell that fails its
    check, by row, for its error message; ``faulty`` marks those rows."""

    def __init__(self, ids: bool):
        self.codes, self.faults, self.blocks, self.rows = {} if ids else None, {}, [], 0

    def add(self, cells: list[str]) -> None:
        if self.codes is None:
            block = _floats(cells)
            for i in np.flatnonzero(~np.isfinite(block)).tolist():
                self.faults[self.rows + i] = cells[i]
        else:
            for name in dict.fromkeys(cells):
                self.codes.setdefault(name, len(self.codes))
            block = np.fromiter(map(self.codes.__getitem__, cells), np.intp, len(cells))
        self.blocks.append(block)
        self.rows += len(cells)

    def close(self) -> _Column:
        self.values, self.blocks = np.concatenate(self.blocks), []
        self.names = None if self.codes is None else list(self.codes)
        if self.names is not None:
            bad = [code for code, name in enumerate(self.names) if not IDENTIFIER.fullmatch(name)]
            self.faults = {i: self.names[self.values[i]]
                           for i in np.flatnonzero(np.isin(self.values, bad)).tolist()}
        self.faulty = np.zeros(self.rows, dtype=bool)
        self.faulty[list(self.faults)] = True
        return self

    def check(self, row: int, column: str, line: int) -> None:
        """Raise the error of the cell in ``row``, if it fails its check."""
        if row in self.faults:
            (_parse_real if self.names is None else _check_identifier)(self.faults[row], column, line)


def _read_csv(path: str, columns: Sequence[str] = INPUT_COLUMNS
              ) -> tuple[list[str], Sequence[int], dict[str, _Column]]:
    """The header, each row's line number, and those of ``columns`` that the
    header names, converted ``_BLOCK_ROWS`` rows at a time as they are read:
    split on separators in a plain file (see ``_plain_ends``), by
    ``csv.reader`` in any other.

    The whole file is decoded first, so a byte that is not UTF-8 is reported
    before any fault in the rows; a leading byte-order mark is dropped. Blank
    lines are skipped. A row's line is the physical line it ends on. A
    repeated header name maps to its last column.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        data.decode("utf-8-sig")  # the rows are decoded again, a block at a time
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    ends = _plain_ends(data)
    if ends is None:
        lines: Sequence[int] = []
        blocks = _reader_blocks(path, data.decode("utf-8-sig"), lines)
        fields = next(blocks)
    else:
        # a carriage return ends a line here, and is dropped (a no-op without one)
        fields = data[:ends[0]].decode("utf-8-sig").replace("\r", "").split(",")
        lines = range(2, len(ends) + 1)
        cuts = np.append(ends[:-1:_BLOCK_ROWS], ends[-1]).tolist()
        blocks = (data[start + 1:end].decode().replace("\r", "").replace("\n", ",").split(",")
                  for start, end in zip(cuts, cuts[1:]))
    typed = {name: (j, _Column(name in INPUT_COLUMNS[:3]))
             for j, name in enumerate(fields) if name in columns}
    for cells in blocks:
        for j, column in typed.values():
            column.add(cells[j::len(fields)])
    if not lines:
        raise ParseError(f"{path} has a header but no rows", line=1)
    return fields, lines, {name: column.close() for name, (_, column) in typed.items()}


def _plain_ends(data: bytes) -> np.ndarray | None:
    """Where each line ends (at a newline or the file's end) of a file that
    splitting on separators reads as ``csv.reader`` does, else None: with no
    quote, a carriage return only directly before a newline, a header of two
    or more fields (so a blank line is no row) and rows, all as wide, and no
    cell over the csv field limit. A separator is one byte of UTF-8, and a
    cell has no fewer bytes than characters (a carriage return counts as one)."""
    if b'"' in data or b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    octets = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((octets == ord(",")) | (octets == ord("\n")))
    newline = octets[seps] == ord("\n")
    if not data.endswith(b"\n"):  # the file's end ends the last row
        seps, newline = np.append(seps, len(data)), np.append(newline, True)
    width = int(newline.argmax()) + 1
    if width < 2 or seps.size % width or seps.size == width:
        return None
    grid = newline.reshape(-1, width)
    if (grid[:, :-1].any() or not grid[:, -1].all()
            or np.diff(seps, prepend=-1).max() > csv.field_size_limit() + 1):
        return None
    return seps[width - 1::width]


def _reader_blocks(path: str, text: str, lines: list[int]) -> Iterator[list[str]]:
    """The header of any file, read by ``csv.reader``, then its rows' cells,
    ``_BLOCK_ROWS`` rows at a time; each row's line is appended to ``lines``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        fields = next(reader, None)
        if fields is None:
            raise ParseError(f"{path} is empty", line=1)
        yield fields
        cells: list[str] = []
        for row in filter(None, reader):  # a blank line is no row
            if len(row) != len(fields):
                side = "more" if len(row) > len(fields) else "fewer"
                raise ParseError(f"row has {side} fields than the header", line=reader.line_num)
            lines.append(reader.line_num)
            cells += row
            if len(lines) % _BLOCK_ROWS == 0:
                yield cells
                cells = []
        yield cells
    except csv.Error as exc:  # e.g. a cell over the csv module's field limit
        raise ParseError(f"{path}: {exc}", line=reader.line_num) from exc


def _not_utf8(path: str, exc: UnicodeDecodeError) -> ParseError:
    # reported before any row is read, so without a line
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


# The cells each row of a shape is checked for, in the order they are checked.
_ROW_CHECKS = {"summary": ("n", "mean", "variance", "df"), "one_sample": ("value",),
               "two_sample": ("group", "value")}


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


class _Cells:
    """The ``checked`` columns of a file, in the order a row's cells are checked;
    ``faulty`` marks the rows holding a cell that fails, or is None."""

    def __init__(self, lines: Sequence[int], columns: dict[str, _Column], checked: Sequence[str]):
        self.lines, self.columns = lines, columns
        self.checked = [(name, columns[name]) for name in checked]
        self.reals = {name: column.values for name, column in self.checked if column.names is None}
        faulty = np.logical_or.reduce([column.faulty for _, column in self.checked])
        self.faulty = faulty if faulty.any() else None

    def check(self, rows: np.ndarray) -> None:
        """Raise the first error the row-by-row checks meet in ``rows``, if any."""
        for i in [] if self.faulty is None else rows[self.faulty[rows]].tolist():
            for name, column in self.checked:
                column.check(i, name, self.lines[i])

    def site_faults(self, order: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> _Faults:
        """The first cell error of each site i whose rows ``order[starts[i]:ends[i]]`` fail."""
        faulty = (np.zeros(starts.size, dtype=bool) if self.faulty is None
                  else np.logical_or.reduceat(self.faulty[order], starts))
        return _Faults(faulty, lambda start, end: self.check(order[start:end]), starts, ends)


def _ranked(column: _Column) -> tuple[list[str], np.ndarray]:
    """An identifier column's distinct names in code-point order, and each
    row's index there."""
    order = sorted(range(len(column.names)), key=column.names.__getitem__)
    return [column.names[code] for code in order], np.argsort(order)[column.values]


def _group(task: _Column, site: _Column) -> tuple[list[str], np.ndarray, list[str],
                                                  np.ndarray, np.ndarray]:
    """Sites sorted (task, site), from the codes of the identifier columns.

    Returns the task names, each site's task code and site name, the row
    order that lists each site's rows in file order, and where each site's
    rows start in it.
    """
    task_ids, task_codes = _ranked(task)
    site_ids, site_codes = _ranked(site)
    key = task_codes * len(site_ids) + site_codes
    order = np.argsort(key, kind="stable")  # stable: file order within a site
    ordered = key[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))
    site_task, site_code = np.divmod(ordered[starts], len(site_ids))
    return task_ids, site_task, [site_ids[c] for c in site_code.tolist()], order, starts


def load_sites(path: str, family: str | None) -> tuple[str, SiteTable]:
    """Ingest a CSV into one site table of canonical summaries, sorted
    (task, site).

    Returns the detected shape name alongside the table. Each shape has one
    column reducer over all sites' rows, which hands back each faulty site's
    error, built when read. A site's checks run in one order: a repeated
    summary row, its cells in row order, the family's checks, the canonical
    summary's slots, then its statistic. The first faulty site's error is
    raised, and no other site's is built.
    """
    fields, lines, columns = _read_csv(path)
    shape = _detect_shape(fields, family)
    if family is not None and shape != family:
        raise ConfigurationError(f"--family {family} does not apply to a {shape}-shaped file")
    _Cells(lines, columns, ("task", "site")).check(np.arange(len(lines)))
    task_ids, site_task, site_ids, order, starts = _group(columns["task"], columns["site"])

    def where(i: int) -> str:
        return f"task {task_ids[site_task[i]]!r} site {site_ids[i]!r}"

    cells = _Cells(lines, columns, _ROW_CHECKS.get(shape, ("x", "y")))
    (*summaries, share), faults = _reduce(shape, cells, order, starts, where)
    offsets = np.searchsorted(site_task, np.arange(len(task_ids) + 1))
    sites = SiteTable(task_ids, offsets, *summaries, share, site_ids)
    _raise_first(ChainMap(faults, _statistic_faults(sites)), where)
    return shape, sites


@np.errstate(all="ignore")  # a faulty site is left non-finite
def _reduce(shape: str, cells: _Cells, order: np.ndarray, starts: np.ndarray,
            where: Callable[[int], str]) -> tuple[tuple, ChainMap]:
    """Every site's (n, mean, variance, df, share) columns by the reducer of
    the shape, site i's rows being ``order[starts[i]:]`` up to the next
    site's, and each faulty site's error, that of its first failing check."""
    counts = np.diff(starts, append=order.size)
    ends, sites, share = starts + counts, np.arange(starts.size), None
    checks = [cells.site_faults(order, starts, ends)]
    if shape == "summary":  # its checked columns are n, mean, variance and df
        first = order[starts]
        columns = tuple(column[first] for column in cells.reals.values())

        def repeated(i: int) -> NoReturn:
            raise ParseError(f"duplicate summary row for {where(i)}",
                             line=cells.lines[order[starts[i] + 1]])

        def slots(row: int, *summary: float) -> None:
            try:
                ExperimentSummary(*summary)
            except DomainError as exc:
                raise ParseError(str(exc), line=cells.lines[row]) from exc

        checks.insert(0, _Faults(counts > 1, repeated, sites))
        faults = _Faults(~_summary_valid(*columns), slots, first, *columns)
    elif shape == "two_sample":  # each site's rows by group, first in code-point order
        names, group = _ranked(cells.columns["group"])
        key = np.repeat(sites * len(names), counts) + group[order]
        by_group = np.argsort(key, kind="stable")
        key = key[by_group]
        heads = np.flatnonzero(np.diff(key, prepend=-1))
        groups = np.bincount(key[heads] // len(names), minlength=starts.size)
        first = np.diff(heads, append=order.size)[np.searchsorted(heads, starts)]

        def group_count(i: int, k: int) -> NoReturn:
            raise ParseError(f"{where(i)} has {k} groups; need exactly 2")

        checks.append(_Faults(groups != 2, group_count, sites, groups))
        columns, faults = _unpaired(cells.reals["value"][order[by_group]], starts, first)
        share = first / counts
    elif shape == "one_sample":
        columns, faults = _summaries(cells.reals["value"][order], starts)
    elif shape == "paired":
        columns, faults = _summaries(cells.reals["x"][order] - cells.reals["y"][order], starts)
    elif shape == "regression":
        columns, faults = _regressions(cells.reals["x"][order], cells.reals["y"][order], starts)
    else:  # contingency: 0/1 pairs counted into each site's 2x2 table
        x, y = cells.reals["x"][order], cells.reals["y"][order]
        binary = ((x == 0.0) | (x == 1.0)) & ((y == 0.0) | (y == 1.0))
        tables = np.bincount(np.repeat(sites, counts) * 4 + 2 * (x == 0.0) + (y == 0.0),
                             minlength=4 * starts.size).reshape(-1, 4)

        def non_binary(start: int, end: int) -> NoReturn:
            raise ParseError("contingency x and y must be 0 or 1",
                             line=cells.lines[order[start + binary[start:end].argmin()]])

        checks.append(_Faults(~np.logical_and.reduceat(binary, starts), non_binary, starts, ends))
        columns, faults = _tables(tables)
        share = (tables[:, 0] + tables[:, 1]) / counts
    return (*columns, share), ChainMap(*checks, faults)


# ---------------------------------------------------------------------------
# variance-source resolution


# Each site's (b_hat, nu0) columns, NaN where a site has no estimate.
VarianceSource = Callable[[SiteTable], tuple[np.ndarray, np.ndarray]]
ESTIMATE_COLUMNS = ("task", "site", "b_hat", "nu0")


def _load_b_from(path: str) -> VarianceSource:
    """Each site's (b_hat, nu0) in an estimate file, joined on (task, site).
    Rows with an empty b_hat (single-site or degenerate tasks) carry none; a
    b_hat needs a nu0. The first faulty row raises its first error below."""
    fields, lines, columns = _read_csv(path, ESTIMATE_COLUMNS)
    if not set(ESTIMATE_COLUMNS) <= set(fields):
        raise ParseError(f"{path} lacks columns task,site,b_hat,nu0", line=1)
    task, site, b_hat, nu0 = map(columns.get, ESTIMATE_COLUMNS)
    b, v = b_hat.values, nu0.values
    given = np.ones(len(lines), dtype=bool)  # skipped or degenerate rows carry no estimate
    given[[i for i, text in b_hat.faults.items() if text == ""]] = False
    key = np.where(given, task.values * len(site.names) + site.values, -1)
    repeated = given.copy()
    repeated[np.unique(key, return_index=True)[1]] = False
    faulty = given & (repeated | b_hat.faulty | nu0.faulty | ~_positive(b) | ~_at_least(v, 1.0))
    faulty |= task.faulty | site.faulty
    if faulty.any():
        i = int(faulty.argmax())
        line = lines[i]
        task.check(i, "task", line)
        site.check(i, "site", line)
        if repeated[i]:
            raise ParseError(f"duplicate estimate for task {task.names[task.values[i]]!r} "
                             f"site {site.names[site.values[i]]!r}", line=line)
        b_hat.check(i, "b_hat", line)
        nu0.check(i, "nu0", line)
        if b[i] <= 0:
            raise ParseError(f"b_hat must be > 0, got {float(b[i])}", line=line)
        try:
            _check_nu0(v[i])
        except DomainError as exc:
            raise ParseError(str(exc), line=line) from None
    order = np.argsort(key)  # the rows without an estimate first, at key -1
    key, b, v = key[order], b[order], v[order]

    def join(sites: SiteTable) -> tuple[np.ndarray, np.ndarray]:
        task_of = np.array([task.codes.get(t, -1) for t in sites.task_ids], np.intp)[sites.task_of]
        site_of = np.fromiter(map(site.codes.get, sites.site_ids, repeat(-1)), np.intp, len(sites))
        wanted = np.where((task_of < 0) | (site_of < 0), -2, task_of * len(site.names) + site_of)
        at = np.minimum(np.searchsorted(key, wanted), key.size - 1)
        return tuple(np.where(key[at] == wanted, column[at], np.nan) for column in (b, v))

    return join


def resolve_variance(args: argparse.Namespace) -> VarianceSource | None:
    """The source of each site's (b_hat, nu0), NaN where --b-from has no
    estimate; None for the point and bound variants."""
    variant = args.variant
    has_b, has_from, has_bound, has_nu0 = (
        value is not None for value in (args.b, args.b_from, args.bound, args.nu0))

    if variant in ("closed", "integral"):
        if has_bound:
            raise ConfigurationError(f"--bound is not used by --variant {variant}")
        if has_b and has_from:
            raise ConfigurationError("--b and --b-from are mutually exclusive")
        if has_b:
            if not has_nu0:
                raise ConfigurationError("--b requires --nu0")
            return lambda sites: (np.full(len(sites), args.b), np.full(len(sites), args.nu0))
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


def _task_names(sites: SiteTable) -> list[str]:
    return [sites.task_ids[j] for j in sites.task_of.tolist()]


def _where(sites: SiteTable, i: int) -> str:
    return f"task {sites.task_ids[sites.task_of[i]]!r} site {sites.site_ids[i]!r}"


def cmd_estimate(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    mode = _MODES[args.mode]
    _, sites = load_sites(args.input, args.family)
    header = [
        "task", "site", "n", "mean", "variance", "df", "k", "grand_mean",
        "s0_sq", "nu0", "b_hat", "z", "mode", "note",
    ]
    (s0_sq, nu0, grand_mean), faults = _between_variance(sites, mode)
    _raise_first(faults, lambda j: f"task {sites.task_ids[j]!r}")
    # a single-site task has no fit, and a degenerate one no estimate
    multi, of = sites.k >= 2, sites.task_of
    s0_sq, estimated = s0_sq[of], (s0_sq > 0.0)[of]
    with np.errstate(all="ignore"):  # the cells of tasks without an estimate are not used
        b_hat = np.where(estimated, s0_sq / sites.variance, np.nan)
        z = np.where(estimated, (sites.mean - grand_mean[of]) / np.sqrt(s0_sq), np.nan)
    # a b_hat that overflows or underflows is one that --b-from rejects
    faulty = estimated & ~_positive(b_hat)
    _raise_first(_Faults(faulty, _check_b_hat, b_hat), partial(_where, sites))
    note = np.where(multi[of], np.where(estimated, "", "degenerate_variance"),
                    "skipped_single_site")
    columns = [
        _task_names(sites), sites.site_ids, *map(_reals, (
            sites.n, sites.mean, sites.variance, sites.df, np.where(multi, sites.k, np.nan)[of],
            grand_mean[of], s0_sq, nu0[of], b_hat, z,
        )), [mode] * len(sites), note.tolist(),
    ]
    return header, list(zip(*columns))


def _variance_columns(
    source: VarianceSource | None, sites: SiteTable, scale_e: float
) -> tuple[np.ndarray, np.ndarray, Mapping[int, DistnullError]]:
    """Each site's b_used and nu0, NaN where there is no source or no estimate,
    and the error of each site whose --b-from has no estimate."""
    if source is None:
        return np.full(len(sites), np.nan), np.full(len(sites), np.nan), {}
    b_hat, nu0 = source(sites)

    def missing(i: int) -> NoReturn:
        raise ConfigurationError(f"--b-from has no estimate for {_where(sites, i)}")

    with np.errstate(over="ignore"):  # an infinite b_used is rejected where it is used
        return b_hat * scale_e, nu0, _Faults(np.isnan(b_hat), missing, np.arange(len(sites)))


def _fixed(args: argparse.Namespace) -> tuple[list[repeat], list[repeat]]:
    """The (alpha, variant) and (bound, scale_e) cells, the same on every row."""
    bound = _real(args.bound) if args.variant == "bound" else ""
    return [repeat(_real(args.alpha)), repeat(args.variant)], [
        repeat(bound), repeat(_real(args.scale_e))]


def cmd_test(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    source = resolve_variance(args)
    _, sites = load_sites(args.input, args.family)
    header = [
        "task", "site", "n", "df", "t", "effect", "t0", "alpha", "variant",
        "b_used", "nu0_used", "bound", "scale_e", "p_point", "log10_p_point",
        "p_sig", "log10_p_sig", "direction", "significant",
    ]
    t, n, df = sites.t, sites.n, sites.df
    b_used, nu0, missing = _variance_columns(source, sites, args.scale_e)
    b = np.full(len(sites), args.bound) if args.variant == "bound" else b_used
    p_sig, faults = _p_sig_column(args.variant, t, n, df, b, nu0)
    # a site's --b-from lookup comes before its significance
    _raise_first(ChainMap(missing, faults), partial(_where, sites))
    pp = p_sig if args.variant == "point" else _p_point(t, df)[0]
    negative = t < 0
    significant = p_sig <= args.alpha
    if args.direction is not None:
        significant &= negative == (args.direction == "negative")
    fixed, scale = _fixed(args)
    columns = [
        _task_names(sites), sites.site_ids, *map(_reals, (n, df, t, sites.effect)),
        _reals(_t0(t, n, b_used)), *fixed, _reals(b_used), _reals(nu0), *scale,
        _probs(pp), _log10s(pp), _probs(p_sig), _log10s(p_sig),
        np.where(negative, "negative", "positive").tolist(),
        np.where(significant, "true", "false").tolist(),
    ]
    return header, list(zip(*columns))


def _replication_design(
    args: argparse.Namespace, shape: str, share: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-family (n_r, df_r) columns from --nr / --df-r, per the documented map."""
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
        n_r = n_r * share * (1.0 - share)
    elif df_r is None:
        df_r = n_r - 1
    return np.full(share.shape, n_r, dtype=float), np.full(share.shape, df_r, dtype=float)


def cmd_predict(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    source = resolve_variance(args)
    shape, sites = load_sites(args.input, args.family)
    header = [
        "task", "site", "n", "df", "t", "n_r", "df_r", "alpha", "variant",
        "b_used", "nu0_used", "bound", "scale_e", "p_rep", "log10_p_rep",
        "tau", "z_max", "b_max",
    ]
    t, n, df = sites.t, sites.n, sites.df
    n_r, df_r = _replication_design(args, shape, sites.share)
    b_used, nu0, missing = _variance_columns(source, sites, args.scale_e)
    b = np.full(len(sites), args.bound) if args.variant == "bound" else b_used
    p_rep, faults = _p_rep_column(args.variant, t, n, df, b, nu0, args.alpha, n_r, df_r)
    diagnostics, cell_faults = _b_max(t, n, df, args.alpha)
    # a site's --b-from lookup comes before its forecast, and that before its b_max cells
    _raise_first(ChainMap(missing, faults, cell_faults), partial(_where, sites))
    fixed, scale = _fixed(args)
    out = [
        _task_names(sites), sites.site_ids, *map(_reals, (n, df, t, n_r, df_r)), *fixed,
        _reals(b_used), _reals(nu0), *scale, _probs(p_rep), _log10s(p_rep),
        *map(_reals, diagnostics),
    ]
    return header, list(zip(*out))


def cmd_calibrate(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    from .oracle import (
        DESK_ALPHA_LEVELS, MIN_BIN_PAIRS, bin_pairs, calibration_gap, gap_direction,
        task_pair_records,
    )
    mode = _MODES[args.mode]
    _, sites = load_sites(args.input, args.family)
    (s0_sq, _, _), _ = _between_variance(sites, mode)
    for task, k, s in zip(sites.task_ids, sites.k.tolist(), s0_sq.tolist()):
        if k < 2:
            print(f"warning: task {task!r} has a single site; skipped", file=sys.stderr)
        elif s == 0.0:
            print(f"warning: task {task!r} has S0^2 = 0; skipped", file=sys.stderr)
    kept = (sites.k >= 2) & (s0_sq != 0.0)  # a faulty fit is NaN: kept, to raise its error
    if not kept.any():
        raise DomainError("no task with >= 2 sites and S0^2 > 0; nothing to calibrate")
    alphas = DESK_ALPHA_LEVELS if args.alphas is None else args.alphas
    bins = bin_pairs(task_pair_records(sites.select(kept), alphas, mode, args.scale_e,
                                       args.variant))
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
    from .oracle import SimConfig
    try:
        with open(path, encoding="utf-8-sig") as handle:
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
    from .oracle import simulate_raw_task
    config = _load_sim_config(args.config, args.seed)
    header = ["task", "site", "value"]
    n = config.n_per_experiment
    sites = [f"site{j:04d}" for j in range(config.k_experiments) for _ in range(n)]
    out = []
    for stream in range(config.n_tasks):
        task, draws = f"task{stream:04d}", simulate_raw_task(config, stream)
        if not np.isfinite(draws).all():
            raise DomainError(
                f"task {task!r}: draws must be finite; mu0, sigma0 or sigma is too large")
        out.extend(zip(repeat(task), sites, _reals(draws.ravel())))
    return header, out


def cmd_bmax(args: argparse.Namespace) -> tuple[list[str], list[list[str]]]:
    _, sites = load_sites(args.input, args.family)
    header = ["task", "site", "n", "df", "t", "effect", "alpha", "tau", "z_max", "b_max"]
    t = sites.t
    diagnostics, faults = _b_max(t, sites.n, sites.df, args.alpha)
    _raise_first(faults, partial(_where, sites))
    columns = [
        _task_names(sites), sites.site_ids, *map(_reals, (sites.n, sites.df, t, sites.effect)),
        repeat(_real(args.alpha)), *map(_reals, diagnostics),
    ]
    return header, list(zip(*columns))


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
        _check_flag("--alphas", _check_level, value)
        if value in levels:
            raise ConfigurationError(f"duplicate alpha {value}")
        levels.append(value)
    return tuple(levels)


def _check_level(alpha: float, upper: float = 1.0) -> float:
    """An alpha in (0, upper) that has a critical value T^-1(1 - alpha/2)."""
    if 1.0 - _check_alpha(alpha, upper=upper) / 2.0 == 1.0:
        raise DomainError(f"alpha is too small: 1 - alpha/2 rounds to 1, got {alpha!r}")
    return alpha


_SCALE_E = partial(_check_df, name="scale_e")
_BMAX_ALPHA = partial(_check_level, upper=0.5)  # the b_max cells need alpha < 0.5
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
        "--alpha": _check_level,
        "--effect": partial(_check_finite, name="effect"),
        "--n": partial(_check_at_least, low=2.0, name="n"),
        "--df": partial(_check_df, name="df"),
        "--b": partial(_check_df, name="b"),
        "--target-power": partial(_check_alpha, name="target_power"),
    },
    "bmax": {"--alpha": _BMAX_ALPHA},
}


def _write(path: str | None, header: list[str], rows: Iterable[Sequence[str]]) -> None:
    # Every cell is an identifier, a formatted number or a fixed word, none
    # of which CSV quotes, so the rows are joined as they are.
    text = "\n".join(map(",".join, chain([header], rows))) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
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
    p.add_argument("--alphas")
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
