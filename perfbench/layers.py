"""Where the benchmark's spans and counters attach to the package.

Wrappers are installed from outside, on the module attributes the CLI and the
library look up at call time: a function imported into several modules with
``from .x import f`` is rebound in each of them, so calls between layers are
traced as well as calls from the benchmark.  ``spectral`` is left out: it does
microseconds of work on every workload.

Each span name ``<layer>.<what>`` becomes the per-layer metric
``<layer>.<what>_s`` (self time per operation).
"""

from __future__ import annotations

import importlib
import sys

from tracer import Tracer

PACKAGE = "boundarynoise"


def _apply_name(args, kwargs) -> str:
    method = kwargs.get("method", args[4] if len(args) > 4 else "galerkin")
    return "perturbation.volterra" if method == "volterra" else "perturbation.galerkin_apply"


def _count_parse(tracer, result, args, kwargs) -> None:
    tracer.add("modelspec.parse_calls", 1)


def _count_terms(tracer, result, args, kwargs) -> None:
    tracer.add("tails.terms_used", result.terms_used)


def _note_rows(tracer, rows, args, kwargs) -> None:
    # keep the list alive until the operation ends so its id stays unique
    tracer.op_state.setdefault("rows", {})[id(rows)] = rows
    tracer.add("reports.rows_built", len(rows))


def _rows_in(obj, built: dict) -> int:
    if id(obj) in built:
        return len(obj)
    if isinstance(obj, dict):
        return sum(_rows_in(v, built) for v in obj.values())
    if isinstance(obj, list):
        return sum(_rows_in(v, built) for v in obj if isinstance(v, (dict, list)))
    return 0


def _note_json(tracer, text, args, kwargs) -> None:
    tracer.add("reports.rows_written", _rows_in(args[0], tracer.op_state.get("rows", {})))
    tracer.add("reports.bytes_out", len(text))


def _note_csv(tracer, text, args, kwargs) -> None:
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    if id(rows) in tracer.op_state.get("rows", {}):
        tracer.add("reports.rows_written", len(rows))
    tracer.add("reports.bytes_out", len(text))


# (defining module, function, span name or name chooser, counter hook)
SPANS = (
    ("cli", "main", "cli.main", None),
    ("modelspec", "parse_model", "modelspec.parse", _count_parse),
    ("modelspec", "build_bundle", "modelspec.build", None),
    ("admissibility", "gamma_time", "admissibility.gamma_time", None),
    ("admissibility", "frequency_series", "admissibility.frequency_series", None),
    ("admissibility", "dyadic_diagnostic", "admissibility.dyadic", None),
    ("admissibility", "weiss_scan", "admissibility.weiss_scan", None),
    ("models", "dirichlet_frequency_criterion", "models.dirichlet_frequency", None),
    ("_tails", "gamma_power_tail", "tails.bracket", _count_terms),
    ("_tails", "power_envelope_tail", "tails.bracket", _count_terms),
    ("_tails", "frequency_mode_tail", "tails.bracket", _count_terms),
    ("simulate", "covariance_qt", "simulate.covariance", None),
    ("simulate", "factor_psd", "simulate.factor", None),
    ("simulate", "sample_exact", "simulate.sample_exact", None),
    ("simulate", "sample_grid", "simulate.sample_grid", None),
    ("simulate", "ensemble_stats", "simulate.stats", None),
    ("perturbation", "perturbed_gamma_time", "perturbation.ladder", None),
    ("perturbation", "perturbed_semigroup_apply", _apply_name, None),
    ("perturbation", "perturbed_orbit_defect", "perturbation.orbit_defect", None),
    ("reports", "covariance_rows", "reports.rows", _note_rows),
    ("reports", "series_rows", "reports.rows", _note_rows),
    ("reports", "path_rows", "reports.rows", _note_rows),
    ("reports", "render_json", "reports.render", _note_json),
    ("reports", "render_csv", "reports.render", _note_csv),
)

#: Span names, in the order the per-layer table prints them.
SPAN_NAMES = tuple(dict.fromkeys(
    name for _, _, name, _ in SPANS if isinstance(name, str)
)) + ("perturbation.galerkin_apply", "perturbation.volterra")

COUNTERS = (
    "modelspec.parse_calls", "tails.terms_used", "perturbation.expm_calls",
    "reports.rows_built", "reports.rows_written", "reports.bytes_out",
)


def _rebind(original, replacement) -> None:
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the package and count ``scipy.linalg.expm`` calls.

    Imports the modules it wraps; wrappers record nothing outside an open
    operation.
    """
    for module_name, func, name, after in SPANS:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        original = getattr(module, func)
        _rebind(original, tracer.wrap(name, original, after))
    linalg = importlib.import_module("scipy.linalg")
    linalg.expm = tracer.count_calls("perturbation.expm_calls", linalg.expm)
