"""Machine-readable reports: provenance-tagged numbers, JSON and CSV rendering.

Reports are self-describing: they echo the command and flags, carry the spec
hash and tool version, and isolate wall-clock data under the single ``timing``
key so that two runs of the same configuration differ in nothing else.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math

import numpy as np

from . import __version__
from .admissibility import SeriesVerdict
from .modelspec import ModelSpec
from .simulate import EnsembleStats, PathEnsemble

FORMAT_VERSION = 1


def _nonfinite(value: float) -> str:
    return "nan" if math.isnan(value) else "infinite" if value > 0 else "-infinite"


def num(value: float, provenance: str) -> dict:
    """A numeric result with its provenance tag; infinities and NaN become strings."""
    value = float(value)
    if not math.isfinite(value):
        return {"value": _nonfinite(value), "provenance": provenance}
    return {"value": value, "provenance": provenance}


def _tail_bound_field(v: SeriesVerdict):
    if v.tail_bound is None:
        return "unknown"
    if math.isinf(v.tail_bound):
        return "unbounded"
    return num(v.tail_bound, "series+tail")


def verdict_payload(v: SeriesVerdict) -> dict:
    payload = {
        "verdict": v.verdict.value,
        "partial_value": num(v.partial_value, "series+tail"),
        "value": num(v.value, "series+tail"),
        "tail_bound": _tail_bound_field(v),
        "evidence": v.evidence,
    }
    return payload


def build_report(command: str, flags: dict, spec: ModelSpec, results: dict, elapsed: float) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "tool": {"name": "boundarynoise", "version": __version__},
        "command": command,
        "flags": flags,
        "model": {"name": spec.name, "spec_sha256": spec.sha256()},
        "results": results,
        "timing": {
            "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "elapsed_seconds": float(elapsed),
        },
    }


def render_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)``, with each :class:`Table` written from its columns."""
    return "".join([*_json_pieces(report, ""), "\n"])


def strip_timing(report: dict) -> dict:
    """Copy of the report without wall-clock fields (for byte-comparisons)."""
    out = dict(report)
    out.pop("timing", None)
    return out


class Column:
    """A table column: cell ``r`` is ``values[at(r)]``.

    ``values`` are the column's distinct values, and ``at`` maps an array of
    row numbers to their positions in ``values``; without a map, row ``r`` is
    ``values[r]``.
    """

    def __init__(self, values: np.ndarray, rows: int | None = None, at=None):
        self.values, self.at = values, at
        self.rows = len(values) if rows is None else rows

    def __len__(self) -> int:
        return self.rows


def repeated(values: np.ndarray, each: int = 1, times: int = 1) -> Column:
    """``values`` with each entry repeated ``each`` times, and the whole tiled ``times`` times."""
    return Column(values, len(values) * each * times, lambda rows: rows // each % len(values))


class Table:
    """Equal-length columns of a report table; ``len()`` is the row count.

    No Python list per row is built: the renderers format a mapped column's
    distinct values once and write the text in blocks of rows.
    """

    def __init__(self, *columns: Column):
        if len({len(c) for c in columns}) != 1:
            raise ValueError("table columns differ in length")
        if any(c.values.dtype.kind not in "iufU" for c in columns):
            raise TypeError("table cells are ints, floats or strings")
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])


def table_rows(*columns) -> Table:
    """A table of equal-length columns, each written as it stands."""
    return Table(*(Column(np.asarray(c)) for c in columns))


def covariance_rows(matrix: np.ndarray) -> Table:
    """Rows ``(n, m, value)`` of a symmetric matrix, row-major; cells ``(n, m)`` and ``(m, n)`` share one value.

    Raises ``ValueError`` unless ``matrix`` equals its transpose bit for bit
    (compared as int64 words, so ``-0.0`` and NaN payloads count).
    """
    matrix = np.asarray(matrix, dtype=float)
    bits = matrix.view(np.int64)
    if bits.ndim != 2 or not np.array_equal(bits, bits.T):
        raise ValueError("a covariance table needs a square matrix equal to its transpose bit for bit")
    n = matrix.shape[0]

    def pair(rows):
        # (i, j) with i <= j sits at i n - i (i - 1) / 2 + (j - i) in the row-major upper triangle
        i, j = np.divmod(rows, n)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        return lo * n - lo * (lo - 1) // 2 + (hi - lo)

    idx = np.arange(n)
    return Table(repeated(idx, each=n), repeated(idx, times=n), Column(matrix[np.triu_indices(n)], n * n, pair))


def series_rows(indices, terms) -> Table:
    # cumsum adds in table order, the order the diagnostic sums its terms in
    terms = np.asarray(terms, dtype=float)
    return table_rows(np.asarray(indices, dtype=int), terms, np.cumsum(terms))


def path_rows(ensemble: PathEnsemble) -> Table:
    samples, times, modes = ensemble.values.shape
    return Table(
        repeated(np.arange(samples), each=times * modes),
        repeated(ensemble.times, each=modes, times=samples),
        repeated(np.arange(modes), times=samples * times),
        Column(ensemble.values.ravel()),
    )


def render_csv(header: list[str], rows: Table) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    if not len(rows):
        return buf.getvalue()
    return "".join([buf.getvalue(), *_row_blocks(rows, _csv_cells, ",", "\n"), "\n"])


#: Rows formatted at a time: one block of cell bytes lives beside the output text.
BLOCK_ROWS = 1 << 14

#: JSON text of a non-finite table cell (inf, -inf, nan): the string ``num`` gives it.
_JSON_NONFINITE = [json.dumps(_nonfinite(v)).encode() for v in (math.inf, -math.inf, math.nan)]

#: JSON text of one scalar (or empty container); a non-finite float raises ``ValueError``.
_JSON_ENCODE = json.JSONEncoder(allow_nan=False).encode


def _reprs(values: np.ndarray) -> list[str]:
    # the list's repr calls int.__repr__ on each cell without a Python-level loop
    return repr(values.tolist())[1:-1].split(", ")


def _float_cells(values: np.ndarray) -> np.ndarray:
    # imported on first use: a command that renders no float table does not load the kernel
    from . import _floatrepr

    return _floatrepr.cells(values)


def _text_cells(strings: list[str]) -> np.ndarray:
    """The strings as rows of a NUL-padded UTF-8 byte matrix; NUL pads, so no string may hold one."""
    encoded = [s.encode() for s in strings]
    if any(b"\0" in b for b in encoded):
        raise ValueError("a table's text cell holds a NUL character")
    matrix = np.array(encoded, dtype=bytes)
    return matrix.view(np.uint8).reshape(len(strings), matrix.itemsize)


def _json_cells(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "U":
        return _text_cells([_JSON_ENCODE(s) for s in values.tolist()])
    if values.dtype.kind != "f":
        return _text_cells(_reprs(values))
    cells = _float_cells(values)
    nonfinite = np.flatnonzero(~np.isfinite(values))
    if nonfinite.size:
        v = values[nonfinite]
        texts = np.array(_JSON_NONFINITE, dtype=f"S{cells.shape[1]}").view(np.uint8).reshape(3, -1)
        cells[nonfinite] = texts[np.where(np.isnan(v), 2, v < 0)]
    return cells


def _csv_cells(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "f":
        return _float_cells(values)
    if values.dtype.kind != "U":
        return _text_cells(_reprs(values))
    # csv.writer's quoting, one cell at a time; the empty second field keeps "" from being quoted
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for s in values.tolist():
        buf.seek(0)
        buf.truncate()
        writer.writerow([s, ""])
        cells.append(buf.getvalue()[:-2])
    return _text_cells(cells)


def _distinct_cells(cells, values: np.ndarray) -> np.ndarray:
    """``cells`` of all ``values`` in one byte matrix as wide as its widest cell, formatted ``BLOCK_ROWS`` at a time."""
    out = np.zeros((len(values), 0), dtype=np.uint8)
    for start in range(0, len(values), BLOCK_ROWS):
        chunk = cells(values[start:start + BLOCK_ROWS])
        if chunk.shape[1] > out.shape[1]:
            wider = np.zeros((len(values), chunk.shape[1]), dtype=np.uint8)
            wider[:, :out.shape[1]] = out
            out = wider
        out[start:start + len(chunk), :chunk.shape[1]] = chunk
    return out


def _row_blocks(table: Table, cells, sep: str, between: str) -> list[str]:
    """The rows' text in blocks: a row's cells joined by ``sep``, rows and blocks by ``between``.

    ``cells`` formats a column slice as a byte matrix, one NUL-padded row per
    cell.  A block is the matrix ``[cell, sep, cell, ..., between]`` of its
    rows; its text is that matrix's bytes without the NULs, decoded once.  The
    caller joins the blocks once, into its output.
    """
    # a mapped column's distinct values are formatted once; its rows gather their bytes
    distinct = [None if c.at is None else _distinct_cells(cells, c.values) for c in table.columns]
    tails = [np.frombuffer(t.encode(), dtype=np.uint8) for t in [sep] * (len(table.columns) - 1) + [between]]
    pieces = []
    for start in range(0, len(table), BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, len(table))
        rows = np.arange(start, stop)
        parts = []
        for column, formatted, tail in zip(table.columns, distinct, tails):
            part = cells(column.values[start:stop]) if formatted is None else formatted.take(column.at(rows), axis=0)
            parts += [part, np.broadcast_to(tail, (stop - start, len(tail)))]
        pieces.append(np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode())
    pieces[-1] = pieces[-1][:-len(between)]
    return pieces


def _json_pieces(obj, indent: str):
    """Pieces of the text ``json.dumps(sort_keys=True, indent=2)`` writes for ``obj`` on a line indented by ``indent``."""
    if isinstance(obj, Table):
        yield from _json_table(obj, indent)
    elif isinstance(obj, dict) and obj:
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            yield f"{sep}{_JSON_ENCODE(key)}: "
            yield from _json_pieces(value, inner)
            sep = ",\n" + inner
        yield f"\n{indent}}}"
    elif isinstance(obj, (list, tuple)) and obj:
        inner = indent + "  "
        sep = "[\n" + inner
        for value in obj:
            yield sep
            yield from _json_pieces(value, inner)
            sep = ",\n" + inner
        yield f"\n{indent}]"
    else:
        yield _JSON_ENCODE(obj)


def _json_table(table: Table, indent: str) -> list[str]:
    """Pieces of the text ``json.dumps(indent=2)`` writes for the table's row lists, on a line indented by ``indent``."""
    if not len(table):
        return ["[]"]
    row, cell = indent + "  ", indent + "    "
    return [f"[\n{row}[\n{cell}", *_row_blocks(table, _json_cells, f",\n{cell}", f"\n{row}],\n{row}[\n{cell}"),
            f"\n{row}]\n{indent}]"]


def ensemble_summary(stats: EnsembleStats) -> dict:
    """Mean and diagonal variance with per-entry Monte-Carlo standard errors."""
    mean = [
        num(m, f"monte_carlo(se={se:.6g})")
        for m, se in zip(stats.mean, stats.mean_se)
    ]
    variance = [
        num(v, f"monte_carlo(se={se:.6g})")
        for v, se in zip(np.diag(stats.covariance), np.diag(stats.covariance_se))
    ]
    return {"mean": mean, "variance": variance, "sample_count": stats.sample_count}
