"""Model-spec files: schema validation and construction of runnable bundles.

A spec file is a single JSON object.  Unknown fields are rejected, and every
problem is reported with the path of the offending field::

    {
      "name": "heat-right",
      "modes": 64,
      "control": {"preset": "heat_neumann_right"}
    }

    {
      "name": "two-mode",
      "spectrum": {"type": "explicit", "values": [-1.0, -2.0]},
      "modes": 2,
      "noise_dim": 1,
      "control": {"type": "explicit", "beta": [[1.0], [1.0]]}
    }

    {
      "name": "transport",
      "noise_dim": 1,
      "control": {"preset": "transport", "r": 1.0}
    }

Presets: ``heat_neumann_left`` / ``heat_neumann_right`` build the heat model
(spectrum implied); ``transport`` builds the shift model and takes no spectrum
or mode count.  Explicit control requires a spectrum, a mode count matching
the ``beta`` rows, and -- for any Converged verdict on a power spectrum -- a
``tail_rule`` from ``constant`` | ``zero_tail`` | ``ell2:<bound>``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import PreconditionError, SpecValidationError
from .models import (
    TransportModel,
    build_heat_neumann,
    build_transport,
    constant_one_feedback,
)
from .perturbation import RankOnePerturbation
from .spectral import COUNTABLE, Coefficients, DiagonalModel, TailRule

HEAT_PRESETS = ("heat_neumann_left", "heat_neumann_right")
#: Bytes a dense float64 mode-by-mode table (covariance, perturbed generator)
#: may take; bounds the mode count of every diagonal bundle.
MEMORY_BUDGET_BYTES = 2**30
_TOP_FIELDS = {"name", "spectrum", "modes", "noise_dim", "control", "perturbation", "observation"}


@dataclass(frozen=True)
class ModelSpec:
    """Validated content of a model-spec file: the normalized JSON object its hash and bundle read.

    Defaults are filled in (``noise_dim`` 1, a power spectrum's
    ``include_zero_mode``) and absent optional blocks are left out.
    """

    data: dict

    @property
    def name(self) -> str:
        return self.data["name"]

    def to_dict(self) -> dict:
        return self.data

    def sha256(self) -> str:
        canonical = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _is_number(x) -> bool:
    """A finite JSON number; ``json`` also accepts ``NaN`` and ``Infinity``."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def _number_list(value, path, problems, rows=None) -> list | None:
    if not isinstance(value, list) or not value or not all(_is_number(v) for v in value):
        problems.append((path, "must be a non-empty list of finite numbers"))
        return None
    if rows is not None and len(value) != rows:
        problems.append((path, f"expected {rows} entries, found {len(value)}"))
        return None
    return [float(v) for v in value]


def _mode_rows(value, path, modes, problems) -> list | None:
    """A non-empty list of equal-length rows of finite numbers, one row per mode."""
    if not isinstance(value, list) or not value or not all(isinstance(row, list) for row in value):
        problems.append((path, "must be a non-empty list of per-mode channel rows"))
        return None
    rows = []
    for i, row in enumerate(value):
        vals = _number_list(row, f"{path}[{i}]", problems)
        if vals is not None and len(vals) != len(value[0]):
            problems.append((f"{path}[{i}]", "ragged channel rows"))
            vals = None
        if vals is None:
            return None
        rows.append(vals)
    if modes is not None and len(rows) != modes:
        problems.append((path, f"expected {modes} mode rows, found {len(rows)}"))
    return rows


def _unknown_fields(obj: dict, allowed, prefix: str, problems) -> None:
    """Report every field of ``obj`` outside ``allowed``, in the order the spec gives them."""
    for key in obj:
        if key not in allowed:
            problems.append((f"{prefix}{key}", "unknown field"))


def parse_model_dict(data: Any) -> ModelSpec:
    """Validate a loaded JSON object; raises :class:`SpecValidationError` with field paths."""
    problems: list[tuple[str, str]] = []
    if not isinstance(data, dict):
        raise SpecValidationError([("", "model spec must be a JSON object")])
    _unknown_fields(data, _TOP_FIELDS, "", problems)

    name = data.get("name")
    if not isinstance(name, str) or not name:
        problems.append(("name", "required non-empty string"))
        name = ""

    noise_dim = data.get("noise_dim", 1)
    if noise_dim != COUNTABLE and (not isinstance(noise_dim, int) or isinstance(noise_dim, bool) or noise_dim < 1):
        problems.append(("noise_dim", "must be a positive integer or 'countable'"))
        noise_dim = 1

    modes = data.get("modes")
    if modes is not None and (not isinstance(modes, int) or isinstance(modes, bool) or modes < 1):
        problems.append(("modes", "must be a positive integer"))
        modes = None

    spectrum = data.get("spectrum")
    if spectrum is not None:
        spectrum = _validate_spectrum(spectrum, problems)

    control = data.get("control")
    control = _validate_control(control, modes, noise_dim, spectrum, problems)

    perturbation = data.get("perturbation")
    if perturbation is not None:
        perturbation = _validate_perturbation(perturbation, modes, control, problems)

    observation = data.get("observation")
    if observation is not None:
        observation = _validate_observation(observation, modes, problems)

    if problems:
        raise SpecValidationError(problems)
    spec = {"name": name, "spectrum": spectrum, "modes": modes, "noise_dim": noise_dim, "control": control,
            "perturbation": perturbation, "observation": observation}
    return ModelSpec({key: value for key, value in spec.items() if value is not None})


def _validate_spectrum(spectrum, problems):
    if not isinstance(spectrum, dict):
        problems.append(("spectrum", "must be an object"))
        return None
    kind = spectrum.get("type")
    if kind == "explicit":
        _unknown_fields(spectrum, {"type", "values"}, "spectrum.", problems)
        values = _number_list(spectrum.get("values"), "spectrum.values", problems)
        if values is None:
            return None
        return {"type": "explicit", "values": values}
    if kind == "power":
        _unknown_fields(spectrum, {"type", "c", "p", "include_zero_mode"}, "spectrum.", problems)
        c = spectrum.get("c")
        p = spectrum.get("p")
        zero = spectrum.get("include_zero_mode", True)
        ok = True
        if not _is_number(c) or c <= 0:
            problems.append(("spectrum.c", "must be a positive number"))
            ok = False
        if not _is_number(p) or p <= 0:
            problems.append(("spectrum.p", "must be a positive number"))
            ok = False
        if not isinstance(zero, bool):
            problems.append(("spectrum.include_zero_mode", "must be a boolean"))
            ok = False
        if not ok:
            return None
        return {"type": "power", "c": float(c), "p": float(p), "include_zero_mode": zero}
    problems.append(("spectrum.type", "must be 'explicit' or 'power'"))
    return None


def _validate_tail_rule(text, path, problems):
    if not isinstance(text, str):
        problems.append((path, "must be a string"))
        return None
    try:
        TailRule.parse(text)
    except PreconditionError as exc:
        problems.append((path, str(exc)))
        return None
    return text


def _validate_control(control, modes, noise_dim, spectrum, problems):
    if not isinstance(control, dict):
        problems.append(("control", "required object"))
        return {}
    if "preset" in control:
        preset = control["preset"]
        if preset in HEAT_PRESETS:
            _unknown_fields(control, {"preset"}, "control.", problems)
            if modes is None:
                problems.append(("modes", "required for heat presets"))
            if spectrum is not None and spectrum != {"type": "power", "c": 1.0, "p": 2.0, "include_zero_mode": True}:
                problems.append(("spectrum", "heat presets imply the power spectrum c=1, p=2 with the zero mode"))
            return {"preset": preset}
        if preset == "transport":
            _unknown_fields(control, {"preset", "r"}, "control.", problems)
            r = control.get("r")
            if not _is_number(r) or r <= 0:
                problems.append(("control.r", "transport preset needs a positive delay r"))
                r = 1.0
            if modes is not None:
                problems.append(("modes", "transport carries no mode truncation"))
            if spectrum is not None:
                problems.append(("spectrum", "transport is not a spectral model"))
            return {"preset": "transport", "r": float(r)}
        problems.append(("control.preset", f"unknown preset {preset!r}"))
        return {"preset": str(preset)}
    if control.get("type") == "explicit":
        _unknown_fields(control, {"type", "beta", "tail_rule"}, "control.", problems)
        if spectrum is None:
            problems.append(("spectrum", "required for explicit control"))
        if modes is None:
            problems.append(("modes", "required for explicit control"))
        norm_beta = _mode_rows(control.get("beta"), "control.beta", modes, problems)
        if norm_beta is not None:
            if spectrum is not None and spectrum.get("type") == "explicit" and modes is not None \
                    and len(spectrum["values"]) != modes:
                problems.append(("spectrum.values", f"expected {modes} eigenvalues"))
            if noise_dim != COUNTABLE and len(norm_beta[0]) != noise_dim:
                problems.append(("control.beta", f"expected {noise_dim} channels, found {len(norm_beta[0])}"))
        out = {"type": "explicit", "beta": norm_beta if norm_beta is not None else []}
        if "tail_rule" in control:
            rule = _validate_tail_rule(control["tail_rule"], "control.tail_rule", problems)
            if rule is not None:
                out["tail_rule"] = rule
        return out
    problems.append(("control", "must carry a 'preset' or be of type 'explicit'"))
    return {}


def _validate_perturbation(pert, modes, control, problems):
    if not isinstance(pert, dict):
        problems.append(("perturbation", "must be an object"))
        return None
    if pert.get("type") != "rank_one":
        problems.append(("perturbation.type", "only 'rank_one' is supported"))
        return None
    _unknown_fields(pert, {"type", "b", "m"}, "perturbation.", problems)
    heat_based = isinstance(control, dict) and control.get("preset") in HEAT_PRESETS
    b = pert.get("b")
    if isinstance(b, str):
        if b not in HEAT_PRESETS:
            problems.append(("perturbation.b", f"unknown preset {b!r}"))
        elif not heat_based:
            problems.append(("perturbation.b", "coefficient presets require a heat control preset"))
    else:
        b = _number_list(b, "perturbation.b", problems, rows=modes)
    m = pert.get("m")
    if isinstance(m, str):
        if m != "constant_one":
            problems.append(("perturbation.m", "must be an array or 'constant_one'"))
        elif not heat_based:
            problems.append(("perturbation.m", "'constant_one' requires a heat control preset"))
    else:
        m = _number_list(m, "perturbation.m", problems, rows=modes)
    return {"type": "rank_one", "b": b, "m": m}


def _validate_observation(obs, modes, problems):
    if not isinstance(obs, dict):
        problems.append(("observation", "must be an object"))
        return None
    if obs.get("type") != "explicit":
        problems.append(("observation.type", "only 'explicit' is supported"))
        return None
    _unknown_fields(obs, {"type", "gamma", "tail_rule"}, "observation.", problems)
    norm = _mode_rows(obs.get("gamma"), "observation.gamma", modes, problems)
    out = {"type": "explicit", "gamma": norm if norm is not None else []}
    if "tail_rule" in obs:
        rule = _validate_tail_rule(obs["tail_rule"], "observation.tail_rule", problems)
        if rule is not None:
            out["tail_rule"] = rule
    return out


def parse_model(path) -> ModelSpec:
    """Load and validate a model-spec file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecValidationError([("", f"invalid JSON: {exc}")]) from exc
    return parse_model_dict(data)


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """A runnable model: either a diagonal pair (``model``) or the transport closed forms (``transport``)."""

    spec: ModelSpec
    model: DiagonalModel | None = None
    control: Coefficients | None = None
    transport: TransportModel | None = None
    observation: Coefficients | None = None
    perturbation: RankOnePerturbation | None = None


def require_table_budget(source: str, value: int, modes: int, table: str) -> None:
    """Refuse ``source=value`` when its dense float64 ``value x modes`` table exceeds the budget."""
    table_bytes = 8 * value * modes
    if table_bytes > MEMORY_BUDGET_BYTES:
        raise PreconditionError(
            f"{source}={value}: a dense {value} x {modes} {table} needs {table_bytes:.3g} bytes, "
            f"above the {MEMORY_BUDGET_BYTES / 2**30:g} GiB memory budget"
        )


def build_bundle(spec: ModelSpec, modes_override: int | None = None) -> ModelBundle:
    """Materialize the spec.  ``modes_override`` re-truncates preset or power models."""
    data = spec.data
    control = data["control"]
    if control.get("preset") == "transport":
        if modes_override is not None:
            raise PreconditionError("transport carries no mode truncation to override")
        return ModelBundle(spec=spec, transport=build_transport(control["r"], data["noise_dim"]))

    modes = modes_override if modes_override is not None else data["modes"]
    require_table_budget("--modes" if modes_override is not None else "modes", modes, modes, "mode table")
    if control.get("preset") in HEAT_PRESETS:
        side = "left" if control["preset"].endswith("left") else "right"
        heat = build_heat_neumann(side, modes)
        return ModelBundle(
            spec=spec, model=heat.model, control=heat.control,
            perturbation=_build_perturbation(data, modes), observation=_build_observation(data, modes),
        )

    # explicit control
    spectrum = data["spectrum"]
    if modes_override is not None:
        # the beta table is materialized at the spec's truncation; extending it
        # would need tail-rule synthesis, re-truncating would silently drop rows
        raise PreconditionError("mode override is only supported for preset models")
    if spectrum["type"] == "explicit":
        model = DiagonalModel.from_eigenvalues(spectrum["values"])
    else:
        model = DiagonalModel.from_power(
            spectrum["c"], spectrum["p"], modes,
            include_zero_mode=spectrum["include_zero_mode"],
        )
    tail = TailRule.parse(control["tail_rule"]) if "tail_rule" in control else None
    ctrl = Coefficients(np.asarray(control["beta"], dtype=float), tail=tail)
    return ModelBundle(
        spec=spec, model=model, control=ctrl,
        perturbation=_build_perturbation(data, modes), observation=_build_observation(data, modes),
    )


def _build_perturbation(data: dict, modes: int) -> RankOnePerturbation | None:
    pert = data.get("perturbation")
    if pert is None:
        return None
    b = pert["b"]
    if isinstance(b, str):
        side = "left" if b.endswith("left") else "right"
        b = build_heat_neumann(side, modes).control.array[:, 0]
    else:
        b = np.asarray(b, dtype=float)
        if b.size != modes:
            raise PreconditionError("perturbation.b does not match the requested truncation")
    m = pert["m"]
    if isinstance(m, str):
        m = constant_one_feedback(modes)
    else:
        m = np.asarray(m, dtype=float)
        if m.size != modes:
            raise PreconditionError("perturbation.m does not match the requested truncation")
    return RankOnePerturbation(b=b, m=m)


def _build_observation(data: dict, modes: int) -> Coefficients | None:
    obs = data.get("observation")
    if obs is None:
        return None
    gamma = np.asarray(obs["gamma"], dtype=float)
    if gamma.shape[0] != modes:
        raise PreconditionError("observation.gamma does not match the requested truncation")
    tail = TailRule.parse(obs["tail_rule"]) if "tail_rule" in obs else None
    return Coefficients(gamma, tail=tail)
