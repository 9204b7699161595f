"""Types shared by the workloads and the runner."""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


#: Relative slack on enclosure checks, for the rounding of float partial sums.
ROUNDING = 1e-12


def number(field) -> float:
    """A numeric report field (``{"value": ...}`` or a bare value) as a float; infinities included."""
    value = field["value"] if isinstance(field, dict) else field
    if value in ("infinite", "unbounded"):
        return math.inf
    return float(value)


def check_enclosure(route: dict, reference: float, slack: float = 0.0) -> None:
    """``[value, value + tail_bound]`` of a Converged route must contain ``reference``."""
    lo = number(route["value"])
    hi = lo + number(route["tail_bound"])
    pad = slack + ROUNDING * abs(reference)
    require(lo - pad <= reference <= hi + pad,
            f"enclosure [{lo!r}, {hi!r}] misses the reference {reference!r} (slack {pad:.3g})")


@dataclass
class Op:
    """One operation of a workload: a CLI process, a library call or a ``main`` call.

    ``run`` is timed; ``check(result)`` is not.  With ``deferred_check`` the
    runner checks the result only after the timed phase, once the workload's
    peak memory has been read, so that parsing large outputs does not count.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    deferred_check: bool = False


class RefCache:
    """Reference values on disk, keyed by a string naming the quantity and its parameters.

    Each entry keeps its provenance (how it was computed, how long it took) so
    that later runs in the same checkout reuse it.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.entries: dict[str, dict] = {}
        if path.is_file():
            with open(path, encoding="utf-8") as fh:
                self.entries = json.load(fh)

    def get(self, key: str, compute, provenance: str):
        entry = self.entries.get(key)
        if entry is None:
            started = time.perf_counter()
            value = compute()
            entry = {"value": value, "provenance": provenance,
                     "seconds": time.perf_counter() - started}
            self.entries[key] = entry
            self._save()
        return entry["value"]

    def _save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
