"""decide-cold: fresh ``python -m boundarynoise.cli`` processes, one at a time.

Cold start and spec parsing dominate here; sampling, perturbation and row
rendering are bypassed, so import work shows here and almost nowhere else.
The 2048-mode check adds tens of milliseconds of criteria work, which keeps
``admissibility``, ``models`` and ``_tails`` at a visible share.

Set-up only writes the spec files, with the standard library, so set-up time
is interpreter start plus input generation.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from core import Op, check_enclosure, number, require

HERE = Path(__file__).resolve().parent


class DecideCold:
    name = "decide-cold"

    def __init__(self, seed: int, workdir: Path, src: Path) -> None:
        self.workdir = workdir
        rng = random.Random(seed)
        self.child_peak_kb = 0
        modes = 64
        finite_modes = 32
        self.finite_lams = sorted((-rng.uniform(0.1, 50.0) for _ in range(finite_modes)), reverse=True)
        self.finite_beta = [rng.gauss(0.0, 1.0) for _ in range(finite_modes)]
        power = lambda p: {
            "name": f"power-p{p}", "modes": modes, "noise_dim": 1,
            "spectrum": {"type": "power", "c": 1.0, "p": p, "include_zero_mode": False},
            "control": {"type": "explicit", "beta": [[1.0]] * modes, "tail_rule": "constant"},
        }
        specs = {
            "heat-right": {"name": "heat-right", "modes": modes, "control": {"preset": "heat_neumann_right"}},
            "heat-left": {"name": "heat-left", "modes": modes, "control": {"preset": "heat_neumann_left"}},
            "power-1.5": power(1.5),
            "power-0.9": power(0.9),
            "finite": {
                "name": "finite-random", "modes": finite_modes, "noise_dim": 1,
                "spectrum": {"type": "explicit", "values": self.finite_lams},
                "control": {"type": "explicit", "beta": [[b] for b in self.finite_beta]},
            },
            "transport": {"name": "transport", "noise_dim": 1, "control": {"preset": "transport", "r": 1.0}},
            "transport-countable": {"name": "transport-countable", "noise_dim": "countable",
                                    "control": {"preset": "transport", "r": 1.0}},
        }
        self.spec_paths = {}
        for key, spec in specs.items():
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            self.spec_paths[key] = str(path)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        self.refs: dict[str, float] = {}

    def prepare(self, cache) -> None:
        import reference

        for T in (1.0, 2.0):
            for head in (64, 2048):
                self.refs[f"heat:T={T}:head={head}"] = cache.get(
                    f"heat_gamma_total:T={T}:head={head}",
                    lambda: reference.heat_gamma_total(T, head),
                    "closed-form head sum + zeta(2) remainder + brute-force exponential tail, math.fsum",
                )
        weights = [b * b for b in self.finite_beta]
        self.refs["finite"] = cache.get(
            "finite_gamma:" + json.dumps([self.finite_lams, weights]),
            lambda: reference.finite_gamma(self.finite_lams, weights, 1.0),
            "per-mode closed-form integrals, math.fsum",
        )

    # ---- operations -------------------------------------------------------

    def _spawn(self, cmd: list[str]):
        err_path = self.workdir / "child.stderr"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.workdir)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return proc.returncode, out, stderr, usage.ru_maxrss

    def _op(self, label: str, argv: list[str], check, tracer) -> Op:
        spans_path = self.workdir / "child-spans.json"

        def run():
            if tracer is None:
                cmd = [sys.executable, "-m", "boundarynoise.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "cold_child.py"), str(spans_path), "--", *argv]
                spans_path.unlink(missing_ok=True)
            rc, out, err, maxrss_kb = self._spawn(cmd)
            if tracer is None:
                self.child_peak_kb = max(self.child_peak_kb, maxrss_kb)
            else:
                with open(spans_path, encoding="utf-8") as fh:
                    recorded = json.load(fh)
                tracer.graft(recorded["spans"], recorded["counts"].get("0", {}))
            return rc, out, err

        def checked(result):
            rc, out, err = result
            require(rc == 0, f"exit code {rc}: {err.strip()[-300:]}")
            check(json.loads(out))

        return Op(label, run, checked)

    def operations(self, tracer=None) -> list[Op]:
        p = self.spec_paths
        refs = self.refs

        def verdicts(expected: str, time_ref: float | None = None):
            def check(report):
                results = report["results"]
                require(results["overall"] == expected, f"overall {results['overall']}, expected {expected}")
                for name, route in results["routes"].items():
                    require(route["verdict"] == expected, f"route {name} is {route['verdict']}, expected {expected}")
                if time_ref is not None:
                    check_enclosure(results["routes"]["time_domain"], time_ref)
            return check

        def dyadic(report):
            results = report["results"]
            # the zero mode makes the negative-exponent side grow like 2^|n|
            require(results["diagnostic"]["verdict"] == "Diverged", "heat dyadic diagnostic should diverge")
            require(len(results["terms"]["rows"]) == 21, "expected 21 dyadic exponents for |n| <= 10")

        def scan(report):
            results = report["results"]
            require(len(results["points"]["rows"]) == 125, "expected 25 x 5 scan points")
            stat = number(results["statistic"])
            require(math.isfinite(stat) and stat > 0, f"scan statistic {stat}")

        return [
            self._op("check heat-64 right T=1", ["check", "--model", p["heat-right"], "--T", "1"],
                     verdicts("Converged", refs["heat:T=1.0:head=64"]), tracer),
            self._op("check heat-64 left T=2", ["check", "--model", p["heat-left"], "--T", "2"],
                     verdicts("Converged", refs["heat:T=2.0:head=64"]), tracer),
            self._op("check heat-2048", ["check", "--model", p["heat-right"], "--modes", "2048",
                                         "--freq-terms", "2048"],
                     verdicts("Converged", refs["heat:T=1.0:head=2048"]), tracer),
            self._op("check power p=1.5", ["check", "--model", p["power-1.5"]], verdicts("Converged"), tracer),
            self._op("check power p=0.9", ["check", "--model", p["power-0.9"]], verdicts("Diverged"), tracer),
            self._op("check finite random", ["check", "--model", p["finite"]],
                     verdicts("Converged", refs["finite"]), tracer),
            self._op("check transport d=1", ["check", "--model", p["transport"]], verdicts("Diverged"), tracer),
            self._op("check transport countable", ["check", "--model", p["transport-countable"]],
                     verdicts("Diverged"), tracer),
            self._op("dyadic heat-64", ["dyadic", "--model", p["heat-right"]], dyadic, tracer),
            self._op("scan-weiss heat-64", ["scan-weiss", "--model", p["heat-right"]], scan, tracer),
        ]

    def install_tracing(self, tracer) -> None:
        """Nothing to install here: each traced child process installs its own wrappers."""

    def peak_rss_mb(self) -> float:
        return self.child_peak_kb / 1024.0

    def run_checks(self, seed: int, cache) -> list[tuple[str, str | None]]:
        import inprocess

        return [inprocess.seeding_contract(seed, cache)]
