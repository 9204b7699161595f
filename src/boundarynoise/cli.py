"""Command-line surface: one command per question the library answers.

Commands::

    check         existence criteria (all applicable routes)
    covariance    analytic covariance of the convolution at a horizon
    simulate      seeded sampling, gated on a Converged existence verdict
    perturb-check perturbed time-domain criterion on a Galerkin ladder
    scan-weiss    resolvent bound scan
    dyadic        dyadic diagnostic sum
    report        aggregate of the applicable commands

Every command takes --model, --modes, --format and --output, plus only the
flags it reads (see its --help); any other flag is refused like an unknown
one.  report's --freq-terms sets the grid of its check section only.

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
    Table,
    build_report,
    covariance_rows,
    ensemble_summary,
    num,
    path_rows,
    render_csv,
    render_json,
    series_rows,
    table_rows,
    verdict_payload,
)
from .simulate import covariance_qt, ensemble_stats, factor_psd, require_existence, sample_exact, sample_grid
from .spectral import growth_bound


def _table(header: list, rows: list) -> dict:
    return {"layout": header, "provenance": "closed_form", "rows": rows}


# Each command returns (results, CSV header, table); the header is None
# for commands without a tabular layout.


def cmd_check(args, bundle: ModelBundle) -> tuple[dict, list | None, Table | None]:
    T = args.T
    omega = args.omega
    if omega is None:
        omega = 1.0 if bundle.transport is not None else growth_bound(bundle.model) + 1.0
    n_max = args.freq_terms if args.freq_terms is not None else 256
    routes = {}
    if bundle.transport is not None:
        routes["dirichlet_frequency"] = dirichlet_frequency_criterion(bundle.transport, omega, T, n_max)
    else:
        require_table_budget("--freq-terms", n_max, bundle.model.mode_count, "frequency table")
        routes["time_domain"] = gamma_time(bundle.model, bundle.control, T)
        routes["dual_frequency"] = frequency_series(bundle.model, bundle.control, omega, T, n_max)
        # the stationary solution map factors through the resolvent: on a diagonal model
        # its frequency series is the dual one, so the route is reported as that alias
        routes["dirichlet_frequency"] = routes["dual_frequency"]
    verdicts = {v.verdict.value for v in routes.values()}
    overall = verdicts.pop() if len(verdicts) == 1 else "Mixed"
    payloads = {name: verdict_payload(v) for name, v in routes.items()}
    if bundle.transport is None:
        payloads["dirichlet_frequency"]["same_as"] = "dual_frequency"
    results = {
        "horizon": num(T, "closed_form"),
        "omega": num(omega, "closed_form"),
        "overall": overall,
        "routes": payloads,
    }
    rows = table_rows(list(routes), [v.verdict.value for v in routes.values()],
                      [v.value for v in routes.values()], [v.partial_value for v in routes.values()])
    return results, ["route", "verdict", "value", "partial_value"], rows


def cmd_covariance(args, bundle: ModelBundle) -> tuple[dict, list | None, Table | None]:
    if bundle.model is None:
        raise PreconditionError("covariance requires a spectral (diagonal) model")
    cov = covariance_qt(bundle.model, bundle.control, args.T)
    header, rows = ["n", "m", "value"], covariance_rows(cov.matrix)
    results = {
        "horizon": num(args.T, "closed_form"),
        "trace": verdict_payload(cov.trace_verdict),
        "materialized_trace": num(cov.trace, "closed_form"),
        "entries": _table(header, rows),
    }
    if args.format == "json":  # CSV writes the entries only; the O(N^3) spectrum would be discarded
        try:
            low = float(np.linalg.eigvalsh(cov.matrix)[0])
        except np.linalg.LinAlgError:  # LAPACK does not converge on a NaN entry: the spectrum is undefined
            low = math.nan
        results["min_eigenvalue"] = num(low, "closed_form")
    return results, header, rows


def cmd_simulate(args, bundle: ModelBundle) -> tuple[dict, list | None, Table | None]:
    if args.seed < 0:  # a SeedSequence entropy is a non-negative integer
        raise argparse.ArgumentTypeError(f"--seed must be a non-negative integer, got {args.seed}")
    if bundle.model is None:
        raise PreconditionError(
            "the transport model has no spectral representation to simulate; "
            "the override applies to diagonal models only"
        )
    verdict = gamma_time(bundle.model, bundle.control, args.T)
    require_existence(verdict, override=args.override_existence_gate)
    overridden = args.override_existence_gate and verdict.verdict.value != "Converged"
    if overridden:
        # the override skips the series test, not the law sampled: its covariance at T must factor
        factor_psd(covariance_qt(bundle.model, bundle.control, args.T).matrix)
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
        "existence_gate_overridden": overridden,
        "scheme": ens.scheme,
        "seed": args.seed,
        "horizon": num(args.T, "closed_form"),
        "ensemble": ensemble_summary(stats),
    }
    rows = path_rows(ens) if args.format == "csv" else None  # JSON carries the summary only
    return results, ["sample", "time", "mode", "value"], rows


#: Peak memory of the perturbed ladder in units of its 2N x 2N float64 Van Loan
#: block: scipy's ``expm`` workspace plus the block and its Gramian products.
#: Measured: from 256 to 1024 modes, peak RSS grows by 9.2 to 10.8 blocks per block.
_VAN_LOAN_WORKSPACE = 11


def cmd_perturb_check(args, bundle: ModelBundle) -> tuple[dict, list | None, Table | None]:
    if bundle.model is None:
        raise PreconditionError("perturbation checks need a spectral (diagonal) model")
    if bundle.perturbation is None:
        raise SpecValidationError([("perturbation", "required for perturb-check")])
    n = bundle.model.mode_count
    require_table_budget("--modes" if args.modes is not None else "modes", n, 4 * _VAN_LOAN_WORKSPACE * n,
                         f"Van Loan workspace ({_VAN_LOAN_WORKSPACE} blocks of {2 * n} x {2 * n})")
    verdict = perturbed_gamma_time(bundle.model, bundle.perturbation, bundle.control, args.T)
    base = gamma_time(bundle.model, bundle.control, args.T)
    results = {
        "horizon": num(args.T, "closed_form"),
        "unperturbed": verdict_payload(base),
        "perturbed": verdict_payload(verdict),
    }
    return results, None, None


def cmd_scan_weiss(args, bundle: ModelBundle) -> tuple[dict, list | None, Table | None]:
    if bundle.model is None:
        raise PreconditionError("the resolvent scan needs a spectral (diagonal) model")
    omega = args.omega if args.omega is not None else growth_bound(bundle.model) + 0.1
    obs = bundle.observation if bundle.observation is not None else bundle.control
    reals = omega + np.logspace(-2.0, 2.0, 25)
    imags = np.array([0.0, 1.0, -1.0, 10.0, -10.0])
    grid = (reals[:, None] + 1j * imags[None, :]).ravel()
    scan = weiss_scan(bundle.model, obs, omega, grid)
    header = ["lambda_re", "lambda_im", "value"]
    rows = table_rows(scan.points.real, scan.points.imag, scan.values)
    results = {
        "omega": num(omega, "closed_form"),
        "statistic": num(scan.statistic, "closed_form"),
        "arg_max": {"re": num(scan.arg_max.real, "closed_form"), "im": num(scan.arg_max.imag, "closed_form")},
        "points": _table(header, rows),
    }
    return results, header, rows


#: Largest dyadic range whose terms stay finite: each squares its point ``2**n``.
_MAX_DYADIC_RANGE = (sys.float_info.max_exp - 1) // 2


def cmd_dyadic(args, bundle: ModelBundle) -> tuple[dict, list | None, Table | None]:
    if bundle.model is None:
        raise PreconditionError("the dyadic diagnostic needs a spectral (diagonal) model")
    n_range = args.freq_terms if args.freq_terms is not None else 10
    if n_range > _MAX_DYADIC_RANGE:
        raise PreconditionError(
            f"--freq-terms={n_range}: the square of the dyadic point 2**{n_range} overflows a float; "
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


def cmd_report(args, bundle: ModelBundle) -> tuple[dict, list | None, Table | None]:
    sections = {"check": cmd_check(args, bundle)[0]}
    if bundle.model is not None:
        sections["covariance"] = cmd_covariance(args, bundle)[0]
        # --freq-terms sets the check section's grid; the dyadic section keeps its default range
        sections["dyadic"] = cmd_dyadic(argparse.Namespace(freq_terms=None), bundle)[0]
        if bundle.perturbation is not None:
            sections["perturbation"] = cmd_perturb_check(args, bundle)[0]
    return sections, None, None


#: Each command and the flags it reads besides ``_COMMON``; a flag it does not read is refused (exit 2).
_COMMANDS = {
    "check": (cmd_check, ("--T", "--omega", "--freq-terms")),
    "covariance": (cmd_covariance, ("--T",)),
    "simulate": (cmd_simulate, ("--T", "--samples", "--seed", "--dt", "--scheme", "--override-existence-gate")),
    "perturb-check": (cmd_perturb_check, ("--T",)),
    "scan-weiss": (cmd_scan_weiss, ("--omega",)),
    "dyadic": (cmd_dyadic, ("--freq-terms",)),
    "report": (cmd_report, ("--T", "--omega", "--freq-terms")),
}


def _finite_float(text: str) -> float:
    # float() alone accepts "nan" and "inf"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


#: Every flag once, in help order; ``_COMMON`` and ``_COMMANDS`` say which commands take it.
_FLAGS = {
    "--model": dict(required=True, help="path to a model-spec JSON file"),
    "--T": dict(type=_finite_float, default=1.0, help="time horizon (default 1)"),
    "--omega": dict(type=_finite_float, default=None,
                    help="abscissa for frequency criteria (default: growth bound + 1; "
                         "scan-weiss: growth bound + 0.1; transport: 1)"),
    "--modes": dict(type=int, default=None, help="re-truncate preset models"),
    "--freq-terms": dict(dest="freq_terms", type=int, default=None,
                         help="frequency grid half-width (default 256; report: its check section only) "
                              "/ dyadic range (dyadic: default 10)"),
    "--samples": dict(type=int, default=1000),
    "--seed": dict(type=int, default=0),
    "--dt": dict(type=_finite_float, default=None,
                 help="grid step for trajectory sampling (default: exact endpoint draw)"),
    "--scheme": dict(choices=["shared_increment", "exact_joint"], default="shared_increment"),
    "--override-existence-gate": dict(dest="override_existence_gate", action="store_true"),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--output": dict(default=None, help="write the report here instead of stdout"),
}
#: Flags that ``main`` reads for every command.
_COMMON = ("--model", "--modes", "--format", "--output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boundarynoise", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, own) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, options in _FLAGS.items():
            if flag in _COMMON or flag in own:
                p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        bundle = build_bundle(parse_model(args.model), modes_override=args.modes)
        results, header, rows = _COMMANDS[args.command][0](args, bundle)
    except (SpecValidationError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundaryNoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.format == "csv":
        if header is None:
            print(f"error: {args.command} has no CSV layout; use --format json", file=sys.stderr)
            return 2
        text = render_csv(header, rows)
    else:
        # the flags the command's parser read; the output destination is not part of the run
        flags = {key.replace("_", "-"): value for key, value in vars(args).items()
                 if key not in ("command", "output") and value is not None}
        report = build_report(args.command, flags, bundle.spec, results, time.perf_counter() - started)
        text = render_json(report)
    if args.output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # an unwritable --output is an input problem, like an unreadable --model
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
