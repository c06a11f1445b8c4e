"""World input-output tables and bilateral reliance metrics.

Takes a country-by-sector intermediate flow matrix with final demand,
value added and gross output, inverts the Leontief system and produces two
reliance measures for a target sector:

* foreign input reliance (FIR): where the value added embodied in a
  country's target-sector output originates, in percent of that output,
* foreign market reliance (FMR): where a country's value added ends up
  being absorbed, in percent of its value added tied to the target sector.

Both are readings of one country-by-country content matrix, built from
the target-sector columns of the Leontief inverse only: FIR takes its rows,
FMR its columns weighted by target-sector output.  They come out as
percentage matrices with the diagonal (domestic share) set aside, and
optionally aggregate every country outside a focus list into a
rest-of-world column.  An alternative "gross" measure replaces value-added
weights with total intermediate input content.

Tables are read from CSV with one numpy parse per row; forked workers parse
later slices of a large table's rows into one shared buffer.
"""

from __future__ import annotations

import csv
import itertools
import os
import warnings
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .chains import _real_array

# Relative slack for accounting identities in published tables.
BALANCE_RTOL = 1e-3
LEONTIEF_RESIDUAL_TOL = 1e-10

FD_PREFIX = "FD"
VA_LABEL = "VA"
OUT_LABEL = "OUT"
ROW_LABEL = "ROW"

# load_table forks a worker per MIN_SLICE_ROWS rows, up to the usable CPUs
# less one.  A worker re-reads the lines before its slice, so the parent's
# slice is PARENT_SLICE_WEIGHT times as long.
MIN_SLICE_ROWS = 200
PARENT_SLICE_WEIGHT = 1.1


class TableFormatError(ValueError):
    """Malformed or unbalanced input-output table."""


@dataclass
class WorldIOTable:
    """Intermediate flows Z, final demand F, value added v, gross output x.

    Rows and columns of Z follow the same (country, sector) order: country
    blocks in the order of ``countries``, sectors within each block in the
    order of ``sectors``.  F has one column per country.
    """

    countries: list
    sectors: list
    Z: np.ndarray
    F: np.ndarray
    v: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        C, S = len(self.countries), len(self.sectors)
        n = C * S
        for name in ("Z", "F", "v", "x"):
            setattr(self, name, _real_array(getattr(self, name), name))
        if self.Z.shape != (n, n):
            raise TableFormatError(f"Z must be {n}x{n}, got {self.Z.shape}")
        if self.F.shape != (n, C):
            raise TableFormatError(f"F must be {n}x{C}, got {self.F.shape}")
        if self.v.shape != (n,) or self.x.shape != (n,):
            raise TableFormatError("v and x must have one entry per country-sector")
        if len(set(self.countries)) != C or len(set(self.sectors)) != S:
            raise TableFormatError("duplicate country or sector labels")
        self.validate()

    def index(self, country: str, sector: str) -> int:
        return self.countries.index(country) * len(self.sectors) \
            + self.sectors.index(sector)

    def labels(self) -> list:
        return [f"{c}:{s}" for c in self.countries for s in self.sectors]

    def validate(self, rtol: float = BALANCE_RTOL):
        """Check accounting balance; raise listing every offender."""
        if not all(np.isfinite(a).all() for a in (self.Z, self.F, self.v, self.x)):
            raise TableFormatError("table contains non-finite entries")
        if np.any(self.Z < 0.0) or np.any(self.F < 0.0) or np.any(self.x < 0.0):
            raise TableFormatError("flows and outputs must be nonnegative")
        labels = self.labels()
        problems = []
        scale = np.maximum(self.x, 1e-12)
        use = self.Z.sum(axis=1) + self.F.sum(axis=1)
        bad = np.abs(use - self.x) > rtol * scale
        problems += [f"{labels[i]}: output {self.x[i]:.6g} vs row use {use[i]:.6g}"
                     for i in np.nonzero(bad)[0]]
        implied_va = self.x - self.Z.sum(axis=0)
        bad = np.abs(implied_va - self.v) > rtol * scale
        problems += [f"{labels[i]}: value added {self.v[i]:.6g} vs implied "
                     f"{implied_va[i]:.6g}" for i in np.nonzero(bad)[0]]
        # A zero-output row must be genuinely absent from the table.
        for i in np.nonzero(self.x == 0.0)[0]:
            if (self.Z[i].any() or self.Z[:, i].any() or self.F[i].any()
                    or self.v[i] != 0.0):
                problems.append(f"{labels[i]}: zero output but nonzero flows")
        if problems:
            head = "; ".join(problems[:8])
            more = f" (+{len(problems) - 8} more)" if len(problems) > 8 else ""
            raise TableFormatError(f"unbalanced table: {head}{more}")


def technical_coefficients(table: WorldIOTable) -> np.ndarray:
    """Input coefficients A = Z per unit of buyer output, zero-output safe."""
    x = table.x
    out = np.zeros_like(table.Z)
    np.divide(table.Z, x[None, :], out=out, where=x[None, :] > 0.0)
    return out


def _leontief_columns(table: WorldIOTable, cols: np.ndarray) -> np.ndarray:
    """Columns ``cols`` of B = (I - A)^-1 from one solve that also certifies
    that A is productive.

    I - A is solved against the unit columns ``cols`` plus one column of
    ones.  A nonnegative A is productive (spectral radius below one) iff
    some x > 0 has (I - A) x > 0 (Hawkins & Simon 1949); when it is,
    x = (I - A)^-1 1 >= 1 is such a vector, so the solved ones column is
    the certificate, and a singular I - A fails it.  The residual
    max |(I - A) B[:, cols] - I[:, cols]|, which grows with B, is checked
    per unit of max(1, max |B|) on the requested columns only: near the
    boundary x, and so its residual, is large.
    """
    lhs = technical_coefficients(table)
    n, k = lhs.shape[0], len(cols)
    # I - A in place, bitwise as if formed anew: 0 - a keeps +0.0, 1 + (-a) == 1 - a
    np.subtract(0.0, lhs, out=lhs)
    lhs.flat[::n + 1] += 1.0
    rhs = np.zeros((n, k + 1))
    rhs[cols, np.arange(k)] = 1.0
    rhs[:, k] = 1.0
    try:
        solved = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:       # singular
        solved = np.full_like(rhs, np.nan)
    x = solved[:, k]
    if not ((x > 0.0).all() and (lhs @ x > 0.0).all()):
        raise TableFormatError(
            "input coefficients are not productive: no x > 0 has (I - A) x > 0")
    B = solved[:, :k]
    residual = float(np.max(np.abs(lhs @ B - rhs[:, :k]), initial=0.0))
    if residual > LEONTIEF_RESIDUAL_TOL * np.max(np.abs(B), initial=1.0):
        raise TableFormatError(
            f"Leontief inverse residual {residual:.3e} exceeds tolerance")
    return B


def leontief_inverse(table: WorldIOTable) -> np.ndarray:
    """B = (I - A)^-1 with productivity and accuracy guards.

    One solve of I - A against the identity plus a column of ones: the
    ones column certifies that A is productive, the condition for B to
    exist and be nonnegative (Miller & Blair, Input-Output Analysis,
    ch. 2), and the residual max |(I - A) B - I| is checked against
    ``LEONTIEF_RESIDUAL_TOL * max(1, max |B|)``.  See :func:`_leontief_columns`.
    """
    return _leontief_columns(table, np.arange(len(table.x)))


@dataclass
class RelianceMatrix:
    """Country-by-country percentage shares with the diagonal set aside.

    ``values[i, j]`` is the share attributed to partner ``columns[j]`` for
    row country ``rows[i]``; the own-country cell is NaN and its share is
    kept in ``domestic``.  Rows plus domestic sum to 100 up to the table's
    accounting slack.
    """

    metric: str
    target_sector: str
    measure: str
    rows: list
    columns: list
    values: np.ndarray
    domestic: np.ndarray

    def partner_share(self, row_country: str, col_country: str) -> float:
        i = self.rows.index(row_country)
        if col_country == row_country:
            return float(self.domestic[i])
        return float(self.values[i, self.columns.index(col_country)])

    def row_total(self, row_country: str) -> float:
        i = self.rows.index(row_country)
        return float(np.nansum(self.values[i]) + self.domestic[i])

    def csv_rows(self, decimals: int = 1):
        """The header, then one row per country: values as printed, diagonal blank."""
        yield [self.metric, *self.columns]
        for country, values in zip(self.rows, self.values):
            yield [country, *("" if np.isnan(val) else f"{val:.{decimals}f}" for val in values)]

    def to_csv(self, path, decimals: int = 1):
        """Write :meth:`csv_rows` to ``path``: the bytes ``gscsim fir``/``fmr`` publish."""
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(self.csv_rows(decimals))


def _content_columns(table: WorldIOTable, cols: np.ndarray, measure: str) -> np.ndarray:
    """Per-unit content of the output of ``cols`` attributed to each row.

    "va" weights B by row value-added shares, so columns decompose one unit
    of output into originating value added and sum to 1 on balanced data.
    "gross" uses total intermediate input content B - I, normalised later.
    """
    B = _leontief_columns(table, cols)
    if measure == "va":
        shares = np.zeros_like(table.x)
        np.divide(table.v, table.x, out=shares, where=table.x > 0.0)
        return shares[:, None] * B
    B[cols, np.arange(len(cols))] -= 1.0
    return B


def _split_focus(table: WorldIOTable, focus) -> tuple[list, list]:
    if focus is None:
        return list(table.countries), []
    focus = [focus] if isinstance(focus, str) else list(focus)
    unknown = [c for c in focus if c not in table.countries]
    if unknown:
        raise ValueError(f"focus countries not in table: {', '.join(unknown)}")
    if len(set(focus)) != len(focus):
        raise ValueError("focus countries must be unique")
    rest = [c for c in table.countries if c not in focus]
    return focus, rest


def _reliance(metric: str, table: WorldIOTable, target_sector: str, focus,
              measure: str) -> RelianceMatrix:
    """FIR or FMR percentage shares for the focus rows, partners plus ROW.

    Both read one country-by-country content matrix: ``by_target[i, j]`` is
    the content from every sector of country j per unit of country i's
    target-sector output.  FIR row i is its row i; FMR row i is its column
    i weighted by each country's target-sector output.  Every sum runs over
    a contiguous axis, so numpy sums each one pairwise.
    """
    if target_sector not in table.sectors:
        raise ValueError(f"target sector {target_sector!r} not in table "
                         f"(have: {', '.join(table.sectors)})")
    if measure not in ("va", "gross"):
        raise ValueError(f"measure must be 'va' or 'gross', got {measure!r}")
    focus_list, rest = _split_focus(table, focus)
    C, S = len(table.countries), len(table.sectors)
    target_cols = np.arange(C) * S + table.sectors.index(target_sector)
    content = _content_columns(table, target_cols, measure)
    by_target = np.ascontiguousarray(content.T).reshape(C, C, S).sum(axis=2)
    rows = [table.countries.index(c) for c in focus_list]
    if metric == "fir":
        shares = by_target[rows]
        empty = "{} has no {} input content"
    else:
        shares = np.ascontiguousarray(by_target.T)[rows] * table.x[target_cols]
        empty = "{} supplies no content to {}"
    totals = shares.sum(axis=1)
    for country, total in zip(focus_list, totals):
        if total <= 0.0:
            raise ValueError(empty.format(country, target_sector))
    if metric == "fmr" or measure == "gross":
        shares = shares / totals[:, None]
    shares = shares * 100.0
    F = len(focus_list)
    columns = focus_list + ([ROW_LABEL] if rest else [])
    values = np.full((F, len(columns)), np.nan)
    values[:, :F] = shares[:, rows]
    np.fill_diagonal(values, np.nan)
    if rest:
        rest_idx = [table.countries.index(c) for c in rest]
        values[:, F] = np.ascontiguousarray(shares[:, rest_idx]).sum(axis=1)
    return RelianceMatrix(metric=metric, target_sector=target_sector,
                          measure=measure, rows=focus_list, columns=columns,
                          values=values, domestic=shares[np.arange(F), rows])


def compute_fir(table: WorldIOTable, target_sector: str, focus=None,
                measure: str = "va") -> RelianceMatrix:
    """Where the content of each country's target-sector output comes from.

    For row country i, the column-j share is the value added originating in
    j (every sector) embodied per unit of i's target-sector gross output,

        FIR[i, j] = sum_s v_(j,s)/x_(j,s) * B_(j,s),(i,target) * 100 .

    Shares over all origins including home sum to 100 on balanced tables.
    """
    return _reliance("fir", table, target_sector, focus, measure)


def compute_fmr(table: WorldIOTable, target_sector: str, focus=None,
                measure: str = "va") -> RelianceMatrix:
    """Where each country's target-sector-linked value added is absorbed.

    For row country i, the column-j share is the value added of i embodied
    in country j's target-sector output, as a fraction of i's value added
    absorbed by the target sector worldwide.  The sales-side mirror of
    :func:`compute_fir`.
    """
    return _reliance("fmr", table, target_sector, focus, measure)


def reliance_change(after: RelianceMatrix, before: RelianceMatrix) -> RelianceMatrix:
    """Percentage-point change between two matching reliance matrices."""
    if (after.metric != before.metric or after.rows != before.rows
            or after.columns != before.columns
            or after.target_sector != before.target_sector
            or after.measure != before.measure):
        raise ValueError("reliance matrices must share metric, axes, sector "
                         "and measure to be differenced")
    return RelianceMatrix(metric=f"{after.metric}_change",
                          target_sector=after.target_sector,
                          measure=after.measure,
                          rows=list(after.rows), columns=list(after.columns),
                          values=after.values - before.values,
                          domestic=after.domestic - before.domestic)


def _nonblank(row: list) -> bool:
    return any(cell.strip() for cell in row)


def _parse_cells(rest: str):
    """The comma-separated numbers of one unquoted line, or None to decline.

    One numpy call per line.  numpy reads a whitespace-only cell as -1 and
    accepts ``nan(...)``, which float() rejects; flows hold no negative or
    NaN entries, so such a line is declined and parsed cell by cell.  On
    trailing garbage numpy 2 raises and numpy 1.x warns and returns the
    numbers it read, so the warning is raised and the count compared.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cells = np.fromstring(rest, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if len(cells) != rest.count(",") + 1 or not cells.min(initial=0.0) >= 0.0:
        return None
    return cells


def _fast_cells(line: str):
    """numpy's cells of one physical line, or None for the csv path: lines
    with a quote, and the VA and OUT rows, whose final demand stays blank."""
    label, sep, rest = line.partition(",")
    if sep and '"' not in line and label.strip() not in (VA_LABEL, OUT_LABEL):
        return _parse_cells(rest)
    return None


def _parse_slice(path, start: int, stop: int, rows: np.ndarray):
    """Worker: each line of ``start:stop`` that :func:`_fast_cells` takes at
    full width goes into its row of ``rows``, whose last entry, the line's
    flag, is then set to 1.  Every other line stays unflagged."""
    with open(path, newline="") as fh:
        for row, line in zip(rows, itertools.islice(fh, start, stop)):
            cells = _fast_cells(line)
            if cells is not None and len(cells) == len(row) - 1:
                row[:-1] = cells
                row[-1] = 1.0


class _Lines:
    """The physical lines of a table file; ``result`` is the row of ``rows`` a
    worker wrote for the line read last, or None where the parent parses it."""

    def __init__(self, fh):
        self.fh, self.count, self.result = fh, 0, None
        self.base, self.rows, self.workers = 0, np.empty((0, 1)), []

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line = next(self.fh)
        while self.workers and self.workers[0][0] <= self.count:   # its slice begins
            os.waitpid(self.workers.pop(0)[1], 0)
        row, self.count = self.count - self.base, self.count + 1
        self.result = (self.rows[row, :-1] if 0 <= row < len(self.rows) and self.rows[row, -1]
                       else None)
        return line

    def fork(self, path, rows: int, width: int):
        """Fork workers that write later slices of the next ``rows`` lines to
        one shared buffer, ``width`` numbers a line, if ``path`` is a regular
        file they can reopen.  They make no BLAS call, which a fork can hang."""
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        k = min(cpus, rows // MIN_SLICE_ROWS)
        if k < 2 or isinstance(path, int) or not os.path.isfile(path) or not hasattr(os, "fork"):
            return
        import mmap
        starts = [self.count + round(rows * (PARENT_SLICE_WEIGHT + j)
                                     / (PARENT_SLICE_WEIGHT + k - 1)) for j in range(k - 1)]
        end, self.base = self.count + rows, starts[0]
        self.rows = np.frombuffer(mmap.mmap(-1, (end - self.base) * (width + 1) * 8))
        self.rows = self.rows.reshape(-1, width + 1)
        for start, stop in zip(starts, starts[1:] + [end]):
            try:
                pid = os.fork()
            except OSError:             # no process to spare: parse here
                return
            if pid == 0:
                try:
                    _parse_slice(path, start, stop, self.rows[start - self.base:stop - self.base])
                finally:
                    os._exit(0)
            self.workers.append((start, pid))

    def close(self):
        """Kill and reap every worker not waited for yet."""
        if self.workers:
            import signal
            for _, pid in self.workers:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _records(lines: _Lines):
    """(label, cells) for every nonblank row left in ``lines``.

    ``cells`` is a float array when numpy took the line, else the stripped
    strings csv.reader gives: quotes, blank cells, numbers numpy declines.
    """
    for line in lines:
        cells = _fast_cells(line) if lines.result is None else lines.result
        if cells is not None:
            yield line.partition(",")[0].strip(), cells
            continue
        # csv.reader pulls further lines when a quoted field spans them
        row = next(csv.reader(itertools.chain([line], lines)))
        if _nonblank(row):
            yield row[0].strip(), [cell.strip() for cell in row[1:]]


def _row_floats(path, label: str, cells) -> np.ndarray:
    """The cells of one row as floats, converted one by one unless numpy did."""
    if isinstance(cells, np.ndarray):
        return cells
    try:
        return np.array([float(c) for c in cells])
    except ValueError as err:
        raise TableFormatError(f"{path}: row {label}: {err}") from None


def load_table(path) -> WorldIOTable:
    """Read a world IO table from the documented CSV layout.

    Layout: header ``table,C1:S1,...,Cn:Sm,FD:C1,...,FD:Cn``; one row per
    country:sector with intermediate flows then final demand; a ``VA`` row
    and an ``OUT`` row close the file (their final-demand cells stay
    empty).  Raises :class:`TableFormatError` naming the offending row or
    column on any structural or balance problem, among them a row label
    that is not a header column, a repeated row (``VA`` and ``OUT``
    included) and a nonblank final-demand cell in ``VA`` or ``OUT``.

    A regular file of about ``2 * MIN_SLICE_ROWS`` rows or more is parsed on
    every usable CPU: forked workers, none outliving the call, only write
    later slices of its rows to a buffer as numbers; every check stays here.
    """
    with open(path, newline="") as fh, closing(_Lines(fh)) as lines:
        header = next((row for row in csv.reader(lines) if _nonblank(row)), None)
        records = _records(lines)
        head = list(itertools.islice(records, 3))
        if header is None or len(head) < 3:
            raise TableFormatError(f"{path}: too few rows for an IO table")
        header = [cell.strip() for cell in header]
        flow_labels = []
        fd_countries = []
        for cell in header[1:]:
            if cell.startswith(f"{FD_PREFIX}:"):
                fd_countries.append(cell.split(":", 1)[1])
            elif ":" in cell:
                if fd_countries:
                    raise TableFormatError(
                        f"{path}: flow column {cell!r} after final demand block")
                flow_labels.append(tuple(cell.split(":", 1)))
            else:
                raise TableFormatError(f"{path}: malformed column header {cell!r}")
        countries = list(dict.fromkeys(c for c, _ in flow_labels))
        sectors = list(dict.fromkeys(s for _, s in flow_labels))
        expect = [(c, s) for c in countries for s in sectors]
        if flow_labels != expect:
            raise TableFormatError(
                f"{path}: columns must nest sectors within country blocks")
        if fd_countries != countries:
            raise TableFormatError(
                f"{path}: final demand columns must cover every country in order")

        n = len(flow_labels)
        width = n + len(countries)
        lines.fork(path, n + 2 - len(head), width)
        row_of = {f"{c}:{s}": k for k, (c, s) in enumerate(expect)}
        data = np.empty((n, width))
        seen = np.zeros(n, dtype=bool)
        summary = {}
        for label, cells in itertools.chain(head, records):
            if label in (VA_LABEL, OUT_LABEL):
                if len(cells) < n:
                    raise TableFormatError(f"{path}: row {label} is too short")
                vals = _row_floats(path, label, cells[:n])
                if any(cells[n:]):
                    raise TableFormatError(
                        f"{path}: row {label} has final demand entries")
                if label in summary:
                    raise TableFormatError(f"{path}: duplicate row {label}")
                summary[label] = vals
                continue
            if ":" not in label:
                raise TableFormatError(f"{path}: unexpected row label {label!r}")
            if len(cells) != width:
                raise TableFormatError(
                    f"{path}: row {label} has {len(cells)} cells, expected {width}")
            vals = _row_floats(path, label, cells)
            k = row_of.get(label)
            if k is None:
                raise TableFormatError(
                    f"{path}: row {label} is not a column of the header")
            if seen[k]:
                raise TableFormatError(f"{path}: duplicate row {label}")
            data[k] = vals
            seen[k] = True

    missing = [label for label, k in row_of.items() if not seen[k]]
    if missing:
        raise TableFormatError(f"{path}: missing rows: {', '.join(missing)}")
    if VA_LABEL not in summary or OUT_LABEL not in summary:
        raise TableFormatError(f"{path}: VA and OUT rows are required")

    return WorldIOTable(countries=countries, sectors=sectors,
                        Z=data[:, :n], F=data[:, n:],
                        v=summary[VA_LABEL], x=summary[OUT_LABEL])


def write_table(table: WorldIOTable, path):
    """Inverse of :func:`load_table`, mainly for fixtures and round trips."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        labels = table.labels()
        writer.writerow(["table"] + labels
                        + [f"{FD_PREFIX}:{c}" for c in table.countries])
        for i, label in enumerate(labels):
            writer.writerow([label] + [repr(float(z)) for z in table.Z[i]]
                            + [repr(float(f)) for f in table.F[i]])
        blank = [""] * len(table.countries)
        writer.writerow([VA_LABEL] + [repr(float(v)) for v in table.v] + blank)
        writer.writerow([OUT_LABEL] + [repr(float(x)) for x in table.x] + blank)
