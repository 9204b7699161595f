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


def num(value: float, provenance: str) -> dict:
    """A numeric result with its provenance tag; infinities become strings."""
    value = float(value)
    if not math.isfinite(value):
        return {"value": "infinite" if value > 0 else "-infinite", "provenance": provenance}
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
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=True) + "\n"


def strip_timing(report: dict) -> dict:
    """Copy of the report without wall-clock fields (for byte-comparisons)."""
    out = dict(report)
    out.pop("timing", None)
    return out


def table_rows(*columns) -> list[list]:
    """Rows of equal-length columns; ``.tolist()`` keeps ints as ints and floats as floats.

    Columns are converted one at a time, so one column list at most lives beside the rows.
    """
    rows = [[None] * len(columns) for _ in range(len(columns[0]))]
    for k, col in enumerate(columns):
        for row, value in zip(rows, np.asarray(col).tolist()):
            row[k] = value
    return rows


def _shared(values) -> np.ndarray:
    # one Python object per distinct index, shared by every row that repeats it
    return np.asarray(values).astype(object)


def covariance_rows(matrix: np.ndarray) -> list[list]:
    n = matrix.shape[0]
    idx = _shared(np.arange(n))
    return table_rows(np.repeat(idx, n), np.tile(idx, n), matrix.ravel())


def series_rows(indices, terms) -> list[list]:
    # cumsum adds in table order, the order the diagnostic sums its terms in
    terms = np.asarray(terms, dtype=float)
    return table_rows(np.asarray(indices, dtype=int), terms, np.cumsum(terms))


def path_rows(ensemble: PathEnsemble) -> list[list]:
    samples, times, modes = ensemble.values.shape
    return table_rows(
        np.repeat(_shared(np.arange(samples)), times * modes),
        np.tile(np.repeat(_shared(ensemble.times), modes), samples),
        np.tile(_shared(np.arange(modes)), samples * times),
        ensemble.values.ravel(),
    )


def render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
