"""In-process workloads: library calls (sample, perturb) and ``cli.main`` calls (emit).

Importing the package and building the models count as set-up; every
operation is one library or ``main`` call, timed in this process.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import resource
from pathlib import Path

import numpy as np

import layers
import reference
from core import CheckFailed, Op, check_enclosure, require

GRAMIAN_PROVENANCE = ("composite Gauss-Legendre {panels}x16 of ||exp(tA) b||^2, exp(tA) through "
                      "numpy.linalg.eig of diag(lambda) + b m^T")


def seeding_contract(seed: int, cache) -> tuple[str, str | None]:
    """Per-sample seeding contract, checked once per run through the public API.

    A fixed seed gives the same sha256 of ``values`` across repeated sweeps and
    across runs in this checkout, and the first 5 000 rows of a 10 000-sample
    ensemble equal the 5 000-sample ensemble.
    """
    bn = importlib.import_module("boundarynoise")
    heat = bn.build_heat_neumann("right", 64)
    draw = lambda n: bn.sample_exact(heat.model, heat.control, 1.0, n, seed).values
    full = draw(10_000)
    digest = hashlib.sha256(full.tobytes()).hexdigest()
    recorded = cache.get(f"sample_exact_sha256:heat-64:T=1:samples=10000:seed={seed}", lambda: digest,
                         "package output, recorded by the first run with this seed in this checkout")
    problems = []
    if hashlib.sha256(draw(10_000).tobytes()).hexdigest() != digest:
        problems.append("a second sweep gave different values")
    if recorded != digest:
        problems.append("values differ from an earlier run with the same seed")
    if not np.array_equal(full[:5_000], draw(5_000)):
        problems.append("the first 5000 of 10000 samples differ from the 5000-sample ensemble")
    return "seeding contract", "; ".join(problems) or None


class InProcess:
    """Shared set-up: import the package and keep handles to its modules."""

    modules = ("simulate",)

    def __init__(self, seed: int, workdir: Path, src: Path) -> None:
        self.workdir = workdir
        self.seed = seed
        self.bn = importlib.import_module("boundarynoise")
        for name in self.modules:
            setattr(self, name, importlib.import_module(f"boundarynoise.{name}"))
        self.rng = np.random.default_rng(seed)

    def install_tracing(self, tracer) -> None:
        layers.install(tracer)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_checks(self, seed: int, cache) -> list[tuple[str, str | None]]:
        return [seeding_contract(seed, cache)]


def _check_ensemble(samples: int, times: int, modes: int):
    def check(ens):
        require(ens.values.shape == (samples, times, modes),
                f"ensemble shape {ens.values.shape}, expected {(samples, times, modes)}")
        require(bool(np.all(np.isfinite(ens.values))), "non-finite samples")
    return check


class Sample(InProcess):
    """sample: the ``simulate`` layer in two shapes, many samples at small N and few at large N."""

    name = "sample"

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir, src)
        self.heat = {n: self.bn.build_heat_neumann("right", n) for n in (64, 512, 2048)}
        self.sample_seed = int(self.rng.integers(2**31))
        self.last = None

    def prepare(self, cache) -> None:
        self.moments = {
            n: cache.get(f"heat_trace_moments:modes={n}:T=1.0", lambda: reference.heat_trace_moments(n, 1.0),
                         "closed-form covariance matrix, numpy trace and Frobenius sum")
            for n in (64, 512)
        }
        lam, beta = reference.heat_spectrum(2048)
        self.head_2048 = cache.get("finite_gamma:heat:modes=2048:T=1.0",
                                   lambda: reference.finite_gamma(lam, beta**2, 1.0),
                                   "per-mode closed-form integrals, math.fsum")
        self.total_2048 = cache.get("heat_gamma_total:T=1.0:head=2048", lambda: reference.heat_gamma_total(1.0, 2048),
                                    "closed-form head sum + zeta(2) remainder + brute-force exponential tail, math.fsum")

    def operations(self, tracer=None) -> list[Op]:
        sim, heat, seed = self.simulate, self.heat, self.sample_seed

        def keep(ensemble, modes):
            self.last = (ensemble, modes)
            return ensemble

        def stats():
            ensemble, modes = self.last
            return sim.ensemble_stats(ensemble), modes

        def check_stats(result):
            st, modes = result
            trace, trace_sq = self.moments[modes]
            se = math.sqrt(2.0 * trace_sq / (st.sample_count - 1))
            got = float(np.trace(st.covariance))
            require(abs(got - trace) <= 5.0 * se,
                    f"ensemble trace {got:.6g} is {abs(got - trace) / se:.1f} standard errors from {trace:.6g}")

        def check_cov(cov):
            require(abs(cov.trace - self.head_2048) <= 1e-12 * self.head_2048,
                    f"covariance trace {cov.trace!r} != closed form {self.head_2048!r}")
            v = cov.trace_verdict
            require(v.verdict.value == "Converged", f"trace verdict {v.verdict.value}")
            check_enclosure({"value": v.value, "tail_bound": v.tail_bound}, self.total_2048)

        h64, h512, h2048 = heat[64], heat[512], heat[2048]
        stats_op = Op("ensemble_stats", stats, check_stats)
        return [
            Op("sample_exact heat-64 x10000",
               lambda: keep(sim.sample_exact(h64.model, h64.control, 1.0, 10_000, seed), 64),
               _check_ensemble(10_000, 1, 64)),
            stats_op,
            Op("sample_exact heat-512 x1000",
               lambda: keep(sim.sample_exact(h512.model, h512.control, 1.0, 1_000, seed), 512),
               _check_ensemble(1_000, 1, 512)),
            stats_op,
            Op("sample_grid heat-64 dt=1e-3 x1000 shared_increment",
               lambda: keep(sim.sample_grid(h64.model, h64.control, 1.0, 1e-3, 1_000, seed,
                                            scheme="shared_increment"), 64),
               _check_ensemble(1_000, 33, 64)),
            stats_op,
            Op("sample_grid heat-64 dt=1e-2 x1000 exact_joint",
               lambda: keep(sim.sample_grid(h64.model, h64.control, 1.0, 1e-2, 1_000, seed,
                                            scheme="exact_joint"), 64),
               _check_ensemble(1_000, 33, 64)),
            stats_op,
            Op("covariance_qt heat-2048", lambda: sim.covariance_qt(h2048.model, h2048.control, 1.0), check_cov),
        ]


class Perturb(InProcess):
    """perturb: the ``perturbation`` layer on heat with ``constant_one`` feedback."""

    name = "perturb"
    modules = ("perturbation",)
    T = 1.0
    t_apply = 0.5

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir, src)
        bn = self.bn
        self.cases = {}
        for n in (64, 128):
            heat = bn.build_heat_neumann("right", n)
            pert = bn.RankOnePerturbation(b=heat.control.array[:, 0], m=bn.constant_one_feedback(n))
            self.cases[n] = (heat, pert)
        self.x = self.rng.standard_normal(64) / (1.0 + np.arange(64)) ** 2
        self.last_galerkin = None

    def prepare(self, cache) -> None:
        self.gramian = {}
        for n in self.cases:
            fine, coarse = (
                cache.get(f"feedback_gramian:heat-{n}:T={self.T}:panels={panels}",
                          lambda: reference.feedback_gramian(n, self.T, panels),
                          GRAMIAN_PROVENANCE.format(panels=panels))
                for panels in (400, 200)
            )
            # halving the panel width moved the value by this much; use it as the reference's error
            self.gramian[n] = (fine, abs(fine - coarse))
        self.x_ref = np.asarray(cache.get(
            f"feedback_apply:heat-64:t={self.t_apply}:seed={self.seed}",
            lambda: reference.feedback_apply(64, self.t_apply, self.x).tolist(),
            "exp(tA) x through numpy.linalg.eig of diag(lambda) + b m^T"))

    def operations(self, tracer=None) -> list[Op]:
        pm, T, t, x = self.perturbation, self.T, self.t_apply, self.x
        heat64, pert64 = self.cases[64]

        def ladder(n):
            heat, pert = self.cases[n]
            return Op(f"perturbed_gamma_time heat-{n}",
                      lambda: pm.perturbed_gamma_time(heat.model, pert, heat.control, T),
                      lambda v: self._check_ladder(n, v))

        def galerkin():
            self.last_galerkin = pm.perturbed_semigroup_apply(heat64.model, pert64, t, x, method="galerkin")
            return self.last_galerkin

        def check_galerkin(y):
            err = np.linalg.norm(y - self.x_ref) / np.linalg.norm(self.x_ref)
            require(err <= 1e-10, f"galerkin apply is {err:.3g} (relative) from the eigen-decomposition reference")

        def check_volterra(y):
            ref = self.last_galerkin
            err = np.linalg.norm(y - ref) / np.linalg.norm(ref)
            require(err <= 1e-3, f"volterra and galerkin applies differ by {err:.3g} relative (pin 1e-3)")

        def check_defect(defect):
            require(math.isfinite(defect) and defect >= 0.0, f"orbit defect {defect!r}")

        return [
            ladder(64),
            ladder(128),
            Op("perturbed_semigroup_apply galerkin heat-64", galerkin, check_galerkin),
            Op("perturbed_semigroup_apply volterra heat-64 x600",
               lambda: pm.perturbed_semigroup_apply(heat64.model, pert64, t, x, method="volterra", grid_points=600),
               check_volterra),
            Op("perturbed_orbit_defect heat-64", lambda: pm.perturbed_orbit_defect(heat64.model, pert64, t, x),
               check_defect),
        ]

    def _check_ladder(self, n: int, v) -> None:
        require(v.verdict.value == "Converged", f"ladder verdict {v.verdict.value}")
        ref, err = self.gramian[n]
        check_enclosure({"value": v.value, "tail_bound": v.tail_bound}, ref, slack=err)


def _strip_timing(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "timing"}


class Emit(InProcess):
    """emit: ``cli.main`` with ``--output``, where row building and JSON/CSV rendering dominate."""

    name = "emit"
    modules = ("cli",)

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir, src)
        self.heat = workdir / "heat.json"
        self.feedback = workdir / "heat-feedback.json"
        self.heat.write_text(json.dumps(
            {"name": "heat-right", "modes": 64, "control": {"preset": "heat_neumann_right"}}), encoding="utf-8")
        self.feedback.write_text(json.dumps({
            "name": "heat-feedback", "modes": 64, "control": {"preset": "heat_neumann_right"},
            "perturbation": {"type": "rank_one", "b": "heat_neumann_right", "m": "constant_one"},
        }), encoding="utf-8")
        self.sim_seed = str(int(self.rng.integers(2**31)))
        self.outputs = itertools.count()
        self.digests: dict[str, str] = {}

    def prepare(self, cache) -> None:
        """Every check here is on the shape of the output; no reference values are needed."""

    def _op(self, label: str, argv: list[str], check) -> Op:
        def run():
            path = self.workdir / f"out-{next(self.outputs)}"
            return self.cli.main([*argv, "--output", str(path)]), path

        def checked(result):
            rc, path = result
            try:
                require(rc == 0, f"exit code {rc}")
                data = path.read_bytes()
            finally:
                path.unlink(missing_ok=True)
            if argv[-1] == "csv":
                lines = data.decode("ascii").splitlines()
                check(lines)
                canonical = data
            else:
                try:
                    payload = json.loads(data)
                except ValueError as exc:
                    raise CheckFailed(f"output is not JSON: {exc}") from exc
                check(payload)
                canonical = json.dumps(_strip_timing(payload), sort_keys=True).encode()
            digest = hashlib.sha256(canonical).hexdigest()
            first = self.digests.setdefault(label, digest)
            require(first == digest, "output bytes differ from an earlier repeat of this operation")

        return Op(label, run, checked, deferred_check=True)

    def operations(self, tracer=None) -> list[Op]:
        heat, seed = str(self.heat), self.sim_seed

        def simulate_json(samples):
            def check(payload):
                results = payload["results"]
                require(results["existence"]["verdict"] == "Converged", "existence verdict")
                ens = results["ensemble"]
                require(ens["sample_count"] == samples, f"sample_count {ens['sample_count']}")
                require(len(ens["mean"]) == 64 and len(ens["variance"]) == 64, "ensemble summary length")
            return check

        def csv_rows(header: str, rows: int):
            def check(lines):
                require(lines[0] == header, f"CSV header {lines[0]!r}")
                require(len(lines) - 1 == rows, f"{len(lines) - 1} CSV rows, expected {rows}")
            return check

        def covariance_json(payload):
            rows = payload["results"]["entries"]["rows"]
            require(len(rows) == 512 * 512, f"{len(rows)} covariance entries, expected {512 * 512}")

        def report(payload):
            results = payload["results"]
            require(set(results) == {"check", "covariance", "dyadic", "perturbation"}, f"sections {sorted(results)}")
            require(results["check"]["overall"] == "Converged", "check section verdict")

        sim = ["simulate", "--model", heat, "--seed", seed]
        # half of 10 000 / 1 000 / 200 samples: that halves the peak memory, and
        # row building and rendering still dominate each operation
        return [
            self._op("simulate exact x5000 json", [*sim, "--samples", "5000", "--format", "json"],
                     simulate_json(5_000)),
            self._op("simulate dt=1e-3 x500 json", [*sim, "--dt", "0.001", "--samples", "500", "--format", "json"],
                     simulate_json(500)),
            # 100 steps store min(steps + 1, 33) = 33 times
            self._op("simulate dt=1e-2 x100 csv", [*sim, "--dt", "0.01", "--samples", "100", "--format", "csv"],
                     csv_rows("sample,time,mode,value", 100 * 33 * 64)),
            self._op("covariance modes=512 json",
                     ["covariance", "--model", heat, "--modes", "512", "--format", "json"], covariance_json),
            self._op("covariance modes=512 csv", ["covariance", "--model", heat, "--modes", "512", "--format", "csv"],
                     csv_rows("n,m,value", 512 * 512)),
            self._op("report heat-feedback", ["report", "--model", str(self.feedback), "--format", "json"], report),
        ]
