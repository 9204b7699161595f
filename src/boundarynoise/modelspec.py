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
    """Validated, normalized content of a model-spec file."""

    name: str
    spectrum: dict | None
    modes: int | None
    noise_dim: Any
    control: dict
    perturbation: dict | None
    observation: dict | None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"name": self.name}
        if self.spectrum is not None:
            out["spectrum"] = self.spectrum
        if self.modes is not None:
            out["modes"] = self.modes
        out["noise_dim"] = self.noise_dim
        out["control"] = self.control
        if self.perturbation is not None:
            out["perturbation"] = self.perturbation
        if self.observation is not None:
            out["observation"] = self.observation
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


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


def parse_model_dict(data: Any) -> ModelSpec:
    """Validate a loaded JSON object; raises :class:`SpecValidationError` with field paths."""
    problems: list[tuple[str, str]] = []
    if not isinstance(data, dict):
        raise SpecValidationError([("", "model spec must be a JSON object")])
    for key in data:
        if key not in _TOP_FIELDS:
            problems.append((key, "unknown field"))

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
    return ModelSpec(
        name=name,
        spectrum=spectrum,
        modes=modes,
        noise_dim=noise_dim,
        control=control,
        perturbation=perturbation,
        observation=observation,
    )


def _validate_spectrum(spectrum, problems):
    if not isinstance(spectrum, dict):
        problems.append(("spectrum", "must be an object"))
        return None
    kind = spectrum.get("type")
    if kind == "explicit":
        extra = set(spectrum) - {"type", "values"}
        if extra:
            problems.append((f"spectrum.{sorted(extra)[0]}", "unknown field"))
        values = _number_list(spectrum.get("values"), "spectrum.values", problems)
        if values is None:
            return None
        return {"type": "explicit", "values": values}
    if kind == "power":
        extra = set(spectrum) - {"type", "c", "p", "include_zero_mode"}
        if extra:
            problems.append((f"spectrum.{sorted(extra)[0]}", "unknown field"))
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
            extra = set(control) - {"preset"}
            if extra:
                problems.append((f"control.{sorted(extra)[0]}", "unknown field"))
            if modes is None:
                problems.append(("modes", "required for heat presets"))
            if spectrum is not None and spectrum != {"type": "power", "c": 1.0, "p": 2.0, "include_zero_mode": True}:
                problems.append(("spectrum", "heat presets imply the power spectrum c=1, p=2 with the zero mode"))
            return {"preset": preset}
        if preset == "transport":
            extra = set(control) - {"preset", "r"}
            if extra:
                problems.append((f"control.{sorted(extra)[0]}", "unknown field"))
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
        extra = set(control) - {"type", "beta", "tail_rule"}
        if extra:
            problems.append((f"control.{sorted(extra)[0]}", "unknown field"))
        if spectrum is None:
            problems.append(("spectrum", "required for explicit control"))
        if modes is None:
            problems.append(("modes", "required for explicit control"))
        beta = control.get("beta")
        norm_beta = None
        if not isinstance(beta, list) or not beta or not all(isinstance(row, list) for row in beta):
            problems.append(("control.beta", "must be a non-empty list of per-mode channel rows"))
        else:
            norm_beta = []
            width = len(beta[0])
            for i, row in enumerate(beta):
                vals = _number_list(row, f"control.beta[{i}]", problems)
                if vals is None:
                    norm_beta = None
                    break
                if len(vals) != width:
                    problems.append((f"control.beta[{i}]", "ragged channel rows"))
                    norm_beta = None
                    break
                norm_beta.append(vals)
            if norm_beta is not None:
                if modes is not None and len(norm_beta) != modes:
                    problems.append(("control.beta", f"expected {modes} mode rows, found {len(norm_beta)}"))
                if spectrum is not None and spectrum.get("type") == "explicit" and modes is not None \
                        and len(spectrum["values"]) != modes:
                    problems.append(("spectrum.values", f"expected {modes} eigenvalues"))
                if noise_dim != COUNTABLE and norm_beta and len(norm_beta[0]) != noise_dim:
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
    extra = set(pert) - {"type", "b", "m"}
    if extra:
        problems.append((f"perturbation.{sorted(extra)[0]}", "unknown field"))
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
    extra = set(obs) - {"type", "gamma", "tail_rule"}
    if extra:
        problems.append((f"observation.{sorted(extra)[0]}", "unknown field"))
    gamma = obs.get("gamma")
    norm = None
    if not isinstance(gamma, list) or not gamma or not all(isinstance(row, list) for row in gamma):
        problems.append(("observation.gamma", "must be a non-empty list of per-mode rows"))
    else:
        norm = []
        for i, row in enumerate(gamma):
            vals = _number_list(row, f"observation.gamma[{i}]", problems)
            if vals is None:
                norm = None
                break
            norm.append(vals)
        if norm is not None and modes is not None and len(norm) != modes:
            problems.append(("observation.gamma", f"expected {modes} mode rows, found {len(norm)}"))
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
    """A runnable model: either a diagonal pair or the transport closed forms."""

    spec: ModelSpec
    kind: str  # "diagonal" | "transport"
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
    control = spec.control
    if control.get("preset") == "transport":
        if modes_override is not None:
            raise PreconditionError("transport carries no mode truncation to override")
        transport = build_transport(control["r"], spec.noise_dim)
        return ModelBundle(spec=spec, kind="transport", transport=transport)

    modes = modes_override if modes_override is not None else spec.modes
    require_table_budget("--modes" if modes_override is not None else "modes", modes, modes, "mode table")
    if control.get("preset") in HEAT_PRESETS:
        side = "left" if control["preset"].endswith("left") else "right"
        heat = build_heat_neumann(side, modes)
        pert = _build_perturbation(spec, modes)
        obs = _build_observation(spec, modes)
        return ModelBundle(
            spec=spec, kind="diagonal", model=heat.model, control=heat.control,
            observation=obs, perturbation=pert,
        )

    # explicit control
    spectrum = spec.spectrum
    if modes_override is not None:
        # the beta table is materialized at the spec's truncation; extending it
        # would need tail-rule synthesis, re-truncating would silently drop rows
        raise PreconditionError("mode override is only supported for preset models")
    if spectrum["type"] == "explicit":
        model = DiagonalModel.from_eigenvalues(spectrum["values"], noise_dim=spec.noise_dim)
    else:
        model = DiagonalModel.from_power(
            spectrum["c"], spectrum["p"], modes,
            include_zero_mode=spectrum["include_zero_mode"], noise_dim=spec.noise_dim,
        )
    tail = TailRule.parse(control["tail_rule"]) if "tail_rule" in control else None
    ctrl = Coefficients(np.asarray(control["beta"], dtype=float), tail=tail)
    pert = _build_perturbation(spec, modes)
    obs = _build_observation(spec, modes)
    return ModelBundle(
        spec=spec, kind="diagonal", model=model, control=ctrl, observation=obs, perturbation=pert,
    )


def _build_perturbation(spec: ModelSpec, modes: int) -> RankOnePerturbation | None:
    pert = spec.perturbation
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


def _build_observation(spec: ModelSpec, modes: int) -> Coefficients | None:
    obs = spec.observation
    if obs is None:
        return None
    gamma = np.asarray(obs["gamma"], dtype=float)
    if gamma.shape[0] != modes:
        raise PreconditionError("observation.gamma does not match the requested truncation")
    tail = TailRule.parse(obs["tail_rule"]) if "tail_rule" in obs else None
    return Coefficients(gamma, tail=tail)
