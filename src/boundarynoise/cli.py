"""Command-line surface: one command per question the library answers.

Commands::

    check         existence criteria (all applicable routes)
    covariance    analytic covariance of the convolution at a horizon
    simulate      seeded sampling, gated on a Converged existence verdict
    perturb-check perturbed time-domain criterion on a Galerkin ladder
    scan-weiss    resolvent bound scan
    dyadic        dyadic diagnostic sum
    report        aggregate of the applicable commands

Exit codes: 0 for completed runs (a Diverged verdict is a result, not an
error), 2 for input/schema problems, 3 for violated preconditions including
the existence gate.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .admissibility import (
    FrequencyGrid,
    dyadic_diagnostic,
    dyadic_terms,
    frequency_series,
    gamma_time,
    weiss_scan,
)
from .errors import BoundaryNoiseError, PreconditionError, SpecValidationError
from .models import dirichlet_frequency_criterion
from .modelspec import ModelBundle, build_bundle, parse_model, require_table_budget
from .perturbation import perturbed_gamma_time
from .reports import (
    build_report,
    covariance_rows,
    ensemble_summary,
    num,
    path_rows,
    render_csv,
    render_json,
    series_rows,
    verdict_payload,
)
from .simulate import covariance_qt, ensemble_stats, require_existence, sample_exact, sample_grid
from .spectral import growth_bound


def _default_omega(bundle: ModelBundle, requested: float | None) -> float:
    if requested is not None:
        return requested
    if bundle.kind == "transport":
        return 1.0
    return growth_bound(bundle.model) + 1.0


def _table(header: list, rows: list) -> dict:
    return {"layout": header, "provenance": "closed_form", "rows": rows}


# Each command returns (results, CSV header, CSV rows); the header is None
# for commands without a tabular layout.


def cmd_check(args, bundle: ModelBundle) -> tuple[dict, list | None, list | None]:
    T = args.T
    omega = _default_omega(bundle, args.omega)
    n_max = args.freq_terms if args.freq_terms is not None else 256
    routes = {}
    if bundle.kind == "transport":
        routes["dirichlet_frequency"] = dirichlet_frequency_criterion(bundle.transport, omega, T, n_max)
    else:
        require_table_budget("--freq-terms", n_max, bundle.model.mode_count, "frequency table")
        routes["time_domain"] = gamma_time(bundle.model, bundle.control, T)
        grid = FrequencyGrid(omega, T, n_max)
        routes["dual_frequency"] = frequency_series(bundle.model, bundle.control, grid)
        routes["dirichlet_frequency"] = dirichlet_frequency_criterion(
            bundle.model, omega, T, n_max, ctrl=bundle.control
        )
    verdicts = {v.verdict.value for v in routes.values()}
    overall = verdicts.pop() if len(verdicts) == 1 else "Mixed"
    results = {
        "horizon": num(T, "closed_form"),
        "omega": num(omega, "closed_form"),
        "overall": overall,
        "routes": {name: verdict_payload(v) for name, v in routes.items()},
    }
    rows = [[name, v.verdict.value, v.value, v.partial_value] for name, v in routes.items()]
    return results, ["route", "verdict", "value", "partial_value"], rows


def cmd_covariance(args, bundle: ModelBundle) -> tuple[dict, list | None, list | None]:
    if bundle.kind != "diagonal":
        raise PreconditionError("covariance requires a spectral (diagonal) model")
    cov = covariance_qt(bundle.model, bundle.control, args.T)
    eigvals = np.linalg.eigvalsh(cov.matrix)
    header, rows = ["n", "m", "value"], covariance_rows(cov.matrix)
    results = {
        "horizon": num(args.T, "closed_form"),
        "trace": verdict_payload(cov.trace_verdict),
        "materialized_trace": num(cov.trace, "closed_form"),
        "min_eigenvalue": num(float(eigvals[0]), "closed_form"),
        "entries": _table(header, rows),
    }
    return results, header, rows


def cmd_simulate(args, bundle: ModelBundle) -> tuple[dict, list | None, list | None]:
    if bundle.kind == "transport":
        n_max = args.freq_terms if args.freq_terms is not None else 256
        omega = _default_omega(bundle, args.omega)
        verdict = dirichlet_frequency_criterion(bundle.transport, omega, args.T, n_max)
    else:
        verdict = gamma_time(bundle.model, bundle.control, args.T)
    require_existence(verdict, override=args.override_existence_gate)
    if bundle.kind != "diagonal":
        raise PreconditionError(
            "the transport model has no spectral representation to simulate; "
            "the override applies to diagonal models only"
        )
    require_table_budget("--samples", args.samples, bundle.model.mode_count, "sample table")
    if args.dt is None:
        ens = sample_exact(bundle.model, bundle.control, args.T, args.samples, args.seed)
    else:
        ens = sample_grid(
            bundle.model, bundle.control, args.T, args.dt, args.samples, args.seed,
            scheme=args.scheme,
        )
    stats = ensemble_stats(ens)
    results = {
        "existence": verdict_payload(verdict),
        "existence_gate_overridden": bool(
            args.override_existence_gate and verdict.verdict.value != "Converged"
        ),
        "scheme": ens.scheme,
        "seed": args.seed,
        "horizon": num(args.T, "closed_form"),
        "ensemble": ensemble_summary(stats),
    }
    rows = path_rows(ens) if args.format == "csv" else None  # JSON carries the summary only
    return results, ["sample", "time", "mode", "value"], rows


def cmd_perturb_check(args, bundle: ModelBundle) -> tuple[dict, list | None, list | None]:
    if bundle.kind != "diagonal":
        raise PreconditionError("perturbation checks need a spectral (diagonal) model")
    if bundle.perturbation is None:
        raise SpecValidationError([("perturbation", "required for perturb-check")])
    verdict = perturbed_gamma_time(bundle.model, bundle.perturbation, bundle.control, args.T)
    base = gamma_time(bundle.model, bundle.control, args.T)
    results = {
        "horizon": num(args.T, "closed_form"),
        "unperturbed": verdict_payload(base),
        "perturbed": verdict_payload(verdict),
    }
    return results, None, None


def cmd_scan_weiss(args, bundle: ModelBundle) -> tuple[dict, list | None, list | None]:
    if bundle.kind != "diagonal":
        raise PreconditionError("the resolvent scan needs a spectral (diagonal) model")
    omega = args.omega if args.omega is not None else growth_bound(bundle.model) + 0.1
    obs = bundle.observation if bundle.observation is not None else bundle.control
    reals = omega + np.logspace(-2.0, 2.0, 25)
    imags = np.array([0.0, 1.0, -1.0, 10.0, -10.0])
    grid = (reals[:, None] + 1j * imags[None, :]).ravel()
    scan = weiss_scan(bundle.model, obs, omega, grid)
    header = ["lambda_re", "lambda_im", "value"]
    rows = [[float(p.real), float(p.imag), float(v)] for p, v in zip(scan.points, scan.values)]
    results = {
        "omega": num(omega, "closed_form"),
        "statistic": num(scan.statistic, "closed_form"),
        "arg_max": {"re": num(scan.arg_max.real, "closed_form"), "im": num(scan.arg_max.imag, "closed_form")},
        "points": _table(header, rows),
    }
    return results, header, rows


#: Largest dyadic range whose points ``2**n`` are finite floats.
_MAX_DYADIC_RANGE = sys.float_info.max_exp - 1


def cmd_dyadic(args, bundle: ModelBundle) -> tuple[dict, list | None, list | None]:
    if bundle.kind != "diagonal":
        raise PreconditionError("the dyadic diagnostic needs a spectral (diagonal) model")
    n_range = args.freq_terms if args.freq_terms is not None else 10
    if n_range > _MAX_DYADIC_RANGE:
        raise PreconditionError(
            f"--freq-terms={n_range}: the dyadic point 2**{n_range} overflows a float; "
            f"the range is at most {_MAX_DYADIC_RANGE}"
        )
    verdict = dyadic_diagnostic(bundle.model, bundle.control, n_range)
    header = ["index", "term", "cumulative"]
    rows = series_rows(*dyadic_terms(bundle.model, bundle.control, n_range))
    results = {
        "n_range": n_range,
        "diagnostic": verdict_payload(verdict),
        "note": "diagnostic only: no existence claim is attached",
        "terms": _table(header, rows),
    }
    return results, header, rows


def cmd_report(args, bundle: ModelBundle) -> tuple[dict, list | None, list | None]:
    sections = {"check": cmd_check(args, bundle)[0]}
    if bundle.kind == "diagonal":
        sections["covariance"] = cmd_covariance(args, bundle)[0]
        sections["dyadic"] = cmd_dyadic(args, bundle)[0]
        if bundle.perturbation is not None:
            sections["perturbation"] = cmd_perturb_check(args, bundle)[0]
    return sections, None, None


_COMMANDS = {
    "check": cmd_check,
    "covariance": cmd_covariance,
    "simulate": cmd_simulate,
    "perturb-check": cmd_perturb_check,
    "scan-weiss": cmd_scan_weiss,
    "dyadic": cmd_dyadic,
    "report": cmd_report,
}


def _flag_echo(args) -> dict:
    # the output destination is where the report goes, not part of the run
    echo = {}
    for key in ("model", "T", "omega", "modes", "freq_terms", "samples", "seed", "dt",
                "scheme", "format", "override_existence_gate"):
        if hasattr(args, key):
            value = getattr(args, key)
            if value is not None:
                echo[key.replace("_", "-")] = value
    return echo


def _finite_float(text: str) -> float:
    # float() alone accepts "nan" and "inf"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boundarynoise", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="path to a model-spec JSON file")
        p.add_argument("--T", type=_finite_float, default=1.0, help="time horizon (default 1)")
        p.add_argument("--omega", type=_finite_float, default=None,
                       help="abscissa for frequency criteria (default: growth bound + 1)")
        p.add_argument("--modes", type=int, default=None, help="re-truncate preset models")
        p.add_argument("--freq-terms", dest="freq_terms", type=int, default=None,
                       help="frequency grid half-width (check: 256) / dyadic range (dyadic: 10)")
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dt", type=_finite_float, default=None,
                       help="grid step for trajectory sampling (default: exact endpoint draw)")
        p.add_argument("--scheme", choices=["shared_increment", "exact_joint"],
                       default="shared_increment")
        p.add_argument("--override-existence-gate", dest="override_existence_gate",
                       action="store_true")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        bundle = build_bundle(parse_model(args.model), modes_override=args.modes)
        results, header, rows = _COMMANDS[args.command](args, bundle)
    except (SpecValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundaryNoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.format == "csv":
        if header is None:
            print(f"error: {args.command} has no CSV layout; use --format json", file=sys.stderr)
            return 2
        _emit(render_csv(header, rows), args.output)
    else:
        report = build_report(args.command, _flag_echo(args), bundle.spec, results,
                              time.perf_counter() - started)
        _emit(render_json(report), args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
