import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boundarynoise
from boundarynoise import (
    SpecValidationError,
    build_bundle,
    parse_model,
    parse_model_dict,
)
from boundarynoise.cli import main
from boundarynoise.reports import strip_timing
from helpers import piecewise_spectrum

HEAT = {
    "name": "heat-right",
    "modes": 8,
    "control": {"preset": "heat_neumann_right"},
}
TRANSPORT = {
    "name": "transport",
    "noise_dim": 1,
    "control": {"preset": "transport", "r": 1.0},
}
EXPLICIT = {
    "name": "two-mode",
    "spectrum": {"type": "explicit", "values": [-1.0, -2.0]},
    "modes": 2,
    "noise_dim": 1,
    "control": {"type": "explicit", "beta": [[1.0], [1.0]]},
}
HEAT_FB = {
    "name": "heat-feedback",
    "modes": 32,
    "control": {"preset": "heat_neumann_right"},
    "perturbation": {"type": "rank_one", "b": "heat_neumann_left", "m": "constant_one"},
}


def write_spec(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParsing:
    def test_heat_preset_builds_expected_coefficients(self, tmp_path):
        spec = parse_model(write_spec(tmp_path, HEAT))
        bundle = build_bundle(spec)
        assert bundle.transport is None
        beta = bundle.control.array[:, 0]
        assert beta[0] == pytest.approx(1 / math.sqrt(math.pi))
        assert beta[1] == pytest.approx(-math.sqrt(2 / math.pi))
        assert bundle.model.eigenvalues[:3] == pytest.approx([0.0, -1.0, -4.0])

    def test_power_spectrum_expansion(self):
        spec = parse_model_dict(
            {
                "name": "power",
                "spectrum": {"type": "power", "c": 1.0, "p": 2.0, "include_zero_mode": True},
                "modes": 3,
                "control": {"type": "explicit", "beta": [[1.0], [1.0], [1.0]], "tail_rule": "zero_tail"},
            }
        )
        bundle = build_bundle(spec)
        assert bundle.model.eigenvalues == pytest.approx([0.0, -1.0, -4.0])

    def test_wrong_beta_row_count_names_field(self):
        bad = dict(EXPLICIT, control={"type": "explicit", "beta": [[1.0]]})
        with pytest.raises(SpecValidationError) as err:
            parse_model_dict(bad)
        assert any(path == "control.beta" for path, _ in err.value.problems)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SpecValidationError) as err:
            parse_model_dict(dict(HEAT, flavor="spicy"))
        assert any(path == "flavor" for path, _ in err.value.problems)

    def test_unknown_nested_field_rejected(self):
        bad = dict(HEAT, control={"preset": "heat_neumann_right", "strength": 2})
        with pytest.raises(SpecValidationError) as err:
            parse_model_dict(bad)
        assert any(path == "control.strength" for path, _ in err.value.problems)

    def test_transport_rejects_spectrum(self):
        bad = dict(TRANSPORT, spectrum={"type": "explicit", "values": [-1.0]})
        with pytest.raises(SpecValidationError) as err:
            parse_model_dict(bad)
        assert any(path == "spectrum" for path, _ in err.value.problems)

    def test_bad_tail_rule_named(self):
        bad = dict(
            EXPLICIT,
            control={"type": "explicit", "beta": [[1.0], [1.0]], "tail_rule": "sometimes"},
        )
        with pytest.raises(SpecValidationError) as err:
            parse_model_dict(bad)
        assert any(path == "control.tail_rule" for path, _ in err.value.problems)

    def test_noise_dim_validation(self):
        with pytest.raises(SpecValidationError):
            parse_model_dict(dict(HEAT, noise_dim=0))
        parse_model_dict(dict(TRANSPORT, noise_dim="countable"))

    def test_round_trip_identity(self, tmp_path):
        for payload in (HEAT, TRANSPORT, EXPLICIT, HEAT_FB):
            spec = parse_model(write_spec(tmp_path, payload))
            again = parse_model_dict(json.loads(json.dumps(spec.to_dict())))
            assert again == spec
            assert again.sha256() == spec.sha256()

    def test_constant_one_feedback_bundle(self, tmp_path):
        spec = parse_model(write_spec(tmp_path, HEAT_FB))
        bundle = build_bundle(spec)
        assert bundle.perturbation is not None
        assert bundle.perturbation.m[0] == pytest.approx(math.sqrt(math.pi))
        assert np.all(bundle.perturbation.m[1:] == 0.0)
        assert bundle.perturbation.b[0] == pytest.approx(-1 / math.sqrt(math.pi))

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SpecValidationError, match="invalid JSON"):
            parse_model(str(path))


class TestCli:
    def test_check_heat(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT)
        assert main(["check", "--model", path, "--T", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        results = report["results"]
        assert results["overall"] == "Converged"
        assert set(results["routes"]) == {"time_domain", "dual_frequency", "dirichlet_frequency"}
        for route in results["routes"].values():
            assert route["verdict"] == "Converged"

    def test_check_heat_dirichlet_route_is_the_dual_series(self, tmp_path, capsys):
        # on a diagonal model the stationary solution map factors through the resolvent,
        # so the Dirichlet route is reported as an alias of the dual frequency route
        path = write_spec(tmp_path, dict(HEAT, modes=64))
        assert main(["check", "--model", path, "--omega", "0.5", "--freq-terms", "128"]) == 0
        routes = json.loads(capsys.readouterr().out)["results"]["routes"]
        dirichlet = dict(routes["dirichlet_frequency"])
        assert dirichlet.pop("same_as") == "dual_frequency"
        assert dirichlet == routes["dual_frequency"]
        assert dirichlet["verdict"] == "Converged"
        assert "same_as" not in routes["dual_frequency"] and "same_as" not in routes["time_domain"]

    @pytest.mark.parametrize("command", ["check", "covariance"])
    def test_huge_horizon_prints_no_warnings(self, tmp_path, capsys, command):
        # e^{2 lambda T} and a T overflow to their limits: expm1 -> -1, tanh -> 1, x / inf -> 0
        path = write_spec(tmp_path, dict(HEAT, modes=16))
        assert main([command, "--model", path, "--T", "1e308"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        verdict = results["routes"]["time_domain"] if command == "check" else results["trace"]
        assert verdict["verdict"] == "Converged"

    def test_huge_horizon_simulate_takes_infinite_limits(self, tmp_path, capsys):
        # the zero mode's variance is about T: its sample covariance overflows to inf
        path = write_spec(tmp_path, dict(HEAT, modes=16))
        assert main(["simulate", "--model", path, "--T", "1e308", "--samples", "50"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        ensemble = json.loads(captured.out)["results"]["ensemble"]
        assert ensemble["variance"][0]["value"] == "infinite"
        assert ensemble["mean"][0]["provenance"] == "monte_carlo(se=inf)"
        assert all(math.isfinite(entry["value"]) for entry in ensemble["variance"][1:])

    @pytest.mark.parametrize("command", ["perturb-check", "report"])
    def test_huge_horizon_perturbed_gramian_is_inconclusive(self, tmp_path, capsys, command):
        path = write_spec(tmp_path, dict(HEAT_FB, modes=16))
        assert main([command, "--model", path, "--T", "1e308"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        perturbed = results["perturbed"] if command == "perturb-check" else results["perturbation"]["perturbed"]
        assert perturbed["verdict"] == "Inconclusive"
        assert "overflows float64" in perturbed["evidence"]

    def test_tiny_horizon_check_takes_the_frequency_limits(self, tmp_path, capsys):
        # 2 pi n / T is about 1e163: its square overflows to inf, whose quotient is the limit 0
        path = write_spec(tmp_path, dict(HEAT, modes=16))
        assert main(["check", "--model", path, "--T", "1e-160"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["results"]["overall"] == "Converged"

    def test_grid_path_table_is_refused_by_the_memory_budget(self, tmp_path, capsys):
        # 2e6 x 64 samples and 6.4e7 draws pass their checks; the 2e6 x 33 x 64 stored paths would take 31.5 GiB
        path = write_spec(tmp_path, dict(HEAT, modes=64))
        assert main(["simulate", "--model", path, "--samples", "2000000", "--dt", "0.03125"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: samples=2000000: a dense 2000000 x 2112 path table")
        assert err.endswith("above the 1 GiB memory budget\n")

    def test_subnormal_step_is_refused_by_the_draw_budget(self, tmp_path, capsys):
        # T / dt overflows to inf: more steps than the 2^28 draws any ensemble may take
        path = write_spec(tmp_path, dict(HEAT, modes=16))
        assert main(["simulate", "--model", path, "--dt", "1e-320"]) == 3
        assert "more than 2^28 standard normal increments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, frequency_verdict", [
        (["check", "--T", "1e-320"], "Converged"),
        # the zero mode's term 1 / (pi omega^2) overflows
        (["check", "--T", "1e308", "--omega", "1e-300"], "Inconclusive"),
        (["check", "--T", "1e-320", "--omega", "1e-300"], "Inconclusive"),
        (["simulate", "--T", "1e308", "--dt", "1e307", "--samples", "3"], None),
    ], ids=["check-T-1e-320", "check-T-1e308-omega-1e-300", "check-T-1e-320-omega-1e-300", "simulate-T-1e308-dt-1e307"])
    def test_extreme_horizon_prints_no_warnings(self, tmp_path, capsys, argv, frequency_verdict):
        path = write_spec(tmp_path, dict(HEAT, modes=16))
        assert main([argv[0], "--model", path, *argv[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if frequency_verdict is not None:
            routes = json.loads(captured.out)["results"]["routes"]
            assert routes["time_domain"]["verdict"] == "Converged"
            assert routes["dual_frequency"]["verdict"] == frequency_verdict

    def test_report_freq_terms_sets_only_the_check_section(self, tmp_path, capsys):
        # 600 is past the dyadic range's limit of 511: the dyadic section keeps its default 10
        path = write_spec(tmp_path, HEAT_FB)
        assert main(["report", "--model", path, "--freq-terms", "600"]) == 0
        sections = json.loads(capsys.readouterr().out)["results"]
        assert len(sections["dyadic"]["terms"]["rows"]) == 21
        for argv, section in [(["check", "--freq-terms", "600"], "check"), (["dyadic"], "dyadic")]:
            assert main([*argv, "--model", path]) == 0
            assert json.loads(capsys.readouterr().out)["results"] == sections[section]

    def test_check_transport_diverges_with_witness(self, tmp_path, capsys):
        path = write_spec(tmp_path, TRANSPORT)
        assert main(["check", "--model", path, "--omega", "1", "--T", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        route = report["results"]["routes"]["dirichlet_frequency"]
        assert "same_as" not in route
        assert route["verdict"] == "Diverged"
        assert route["evidence"] == "terms constant in n"
        assert route["tail_bound"] == "unbounded"

    def test_simulate_transport_refused_at_gate(self, tmp_path, capsys):
        # refused before any gate: there is no spectral representation to sample, overridden or not
        path = write_spec(tmp_path, TRANSPORT)
        for extra in ([], ["--override-existence-gate"]):
            assert main(["simulate", "--model", path, *extra]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: the transport model has no spectral representation to simulate")

    def test_simulate_heat_runs_and_reports(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT)
        assert main(["simulate", "--model", path, "--samples", "50", "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        results = report["results"]
        assert results["scheme"] == "exact"
        assert results["existence"]["verdict"] == "Converged"
        assert len(results["ensemble"]["mean"]) == 8
        assert results["ensemble"]["mean"][0]["provenance"].startswith("monte_carlo")

    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT)
        assert main(["simulate", "--model", path, "--seed=-1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --seed must be a non-negative integer, got -1\n"

    def test_simulate_reports_are_reproducible(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT)
        outputs = []
        for _ in range(2):
            assert main(["simulate", "--model", path, "--samples", "40", "--seed", "11"]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        a, b = (json.dumps(strip_timing(o), sort_keys=True) for o in outputs)
        assert a == b

    def test_covariance_csv_long_form(self, tmp_path, capsys):
        path = write_spec(tmp_path, dict(HEAT, modes=3))
        assert main(["covariance", "--model", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,m,value"
        assert len(lines) == 1 + 9
        first = lines[1].split(",")
        assert first[:2] == ["0", "0"]
        assert float(first[2]) == pytest.approx(1.0 / math.pi)

    def test_dyadic_csv_series_layout(self, tmp_path, capsys):
        path = write_spec(tmp_path, EXPLICIT)
        assert main(["dyadic", "--model", path, "--freq-terms", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,term,cumulative"
        assert len(lines) == 1 + 7

    def test_scan_weiss(self, tmp_path, capsys):
        path = write_spec(tmp_path, EXPLICIT)
        assert main(["scan-weiss", "--model", path, "--omega", "0.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["statistic"]["value"] > 0.0

    def test_perturb_check(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT_FB)
        assert main(["perturb-check", "--model", path, "--T", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        # the exact heat-32 ladder 0.80637 / 0.82832 / 0.83876 moves 1.24% in its last step
        perturbed = report["results"]["perturbed"]
        assert perturbed["verdict"] == "Inconclusive"
        assert "not Cauchy" in perturbed["evidence"]

    def test_perturb_check_requires_block(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT)
        assert main(["perturb-check", "--model", path]) == 2
        assert "perturbation" in capsys.readouterr().err

    def test_report_aggregates(self, tmp_path, capsys):
        path = write_spec(tmp_path, dict(HEAT_FB, modes=16))
        assert main(["report", "--model", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["results"]) == {"check", "covariance", "dyadic", "perturbation"}

    def test_modes_override(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT)
        assert main(["covariance", "--model", path, "--modes", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 4

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["check", "--model", str(tmp_path / "nope.json")]) == 2

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = write_spec(tmp_path, dict(HEAT, flavor="?"))
        assert main(["check", "--model", path]) == 2
        assert "flavor" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT)
        out = tmp_path / "report.json"
        assert main(["check", "--model", path, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["command"] == "check"
        assert report["model"]["name"] == "heat-right"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, fmt, where):
        path = write_spec(tmp_path, HEAT)
        out = tmp_path / "no" / "such" / "report" if where == "missing_dir" else tmp_path
        assert main(["check", "--model", path, "--format", fmt, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert captured.out == ""

    def test_omega_below_growth_bound_is_precondition_error(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT)
        assert main(["check", "--model", path, "--omega", "-1.0"]) == 3

    def test_report_rejects_csv(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT)
        assert main(["report", "--model", path, "--format", "csv"]) == 2

    def test_simulate_csv_path_layout(self, tmp_path, capsys):
        path = write_spec(tmp_path, dict(HEAT, modes=2))
        assert main(["simulate", "--model", path, "--samples", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "sample,time,mode,value"
        assert len(lines) == 1 + 3 * 1 * 2  # samples x times x modes

    def test_every_result_numeric_carries_provenance(self, tmp_path, capsys):
        # bare numbers under "results" must sit in {"value": ..., "provenance": ...}
        # wrappers or in an array block that declares one
        def walk(node, tagged):
            if isinstance(node, dict):
                if "provenance" in node:
                    return
                for key, sub in node.items():
                    walk(sub, tagged or key in ("rows",))
            elif isinstance(node, list):
                for sub in node:
                    walk(sub, tagged)
            elif isinstance(node, float):
                assert tagged, f"untagged float {node}"

        for cmd in (["check"], ["covariance"], ["simulate", "--samples", "5"]):
            path = write_spec(tmp_path, dict(HEAT, modes=4))
            assert main(cmd + ["--model", path]) == 0
            report = json.loads(capsys.readouterr().out)
            walk(report["results"], False)

    def test_simulate_json_builds_no_path_rows(self, tmp_path, capsys, monkeypatch):
        def refuse(ens):
            raise AssertionError("JSON reports carry no path rows")

        monkeypatch.setattr("boundarynoise.cli.path_rows", refuse)
        path = write_spec(tmp_path, dict(HEAT, modes=2))
        assert main(["simulate", "--model", path, "--samples", "3", "--dt", "0.1"]) == 0


class TestModeBudget:
    @pytest.mark.parametrize("argv, source", [
        (["check", "--modes", "1000000000000"], "--modes=1000000000000"),
        (["covariance", "--modes", "1000000"], "--modes=1000000"),  # its N^2 table would be 8 TB
        (["check"], "modes=100000"),
        # a 1e12 x 64 frequency table would take 7.28 TiB, a 1e12 x 64 sample table 466 TiB
        (["check", "--modes", "64", "--freq-terms", "1000000000000"], "--freq-terms=1000000000000"),
        (["simulate", "--modes", "64", "--samples", "1000000000000"], "--samples=1000000000000"),
        (["dyadic", "--modes", "64", "--freq-terms", "1024"], "--freq-terms=1024"),
        (["dyadic", "--modes", "64", "--freq-terms", "1000000000000"], "--freq-terms=1000000000000"),
        # (2**512)**2 overflows
        (["dyadic", "--modes", "64", "--freq-terms", "512"], "--freq-terms=512"),
        # 11 Van Loan blocks of 3494 x 3494 doubles take 1.07e9 bytes, just above 1 GiB
        (["perturb-check", "--modes", "1747"], "--modes=1747"),
    ])
    def test_beyond_budget_exits_3_naming_source(self, tmp_path, capsys, argv, source):
        path = write_spec(tmp_path, dict(HEAT_FB, modes=100000))
        assert main([argv[0], "--model", path, *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {source}:")
        assert ("overflows a float" if argv[0] == "dyadic" else "GiB memory budget") in err


def _scipy_modules_in_child(code: str) -> list:
    src = str(Path(boundarynoise.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestImportPath:
    def test_package_import_loads_no_scipy(self):
        assert _scipy_modules_in_child("import boundarynoise") == []

    @pytest.mark.parametrize("command", ["check", "dyadic", "scan-weiss", "covariance", "simulate"])
    def test_cli_commands_load_no_scipy(self, tmp_path, command):
        path = write_spec(tmp_path, dict(HEAT, modes=64))
        argv = [command, "--model", path, "--output", str(tmp_path / "out.json")]
        code = f"from boundarynoise.cli import main\nassert main({argv!r}) == 0"
        assert _scipy_modules_in_child(code) == []


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv, flag", [
        (["check", "--T", "nan"], "--T"),
        (["check", "--T", "inf"], "--T"),
        (["check", "--omega=-inf"], "--omega"),
        (["simulate", "--dt", "nan"], "--dt"),
    ])
    def test_flag_rejected_with_exit_2(self, tmp_path, capsys, argv, flag):
        path = write_spec(tmp_path, HEAT)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--model", path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a finite number" in err

    @pytest.mark.parametrize("values", [[-1.0, float("nan")], [-1.0, float("-inf")], [-1.0, -(10**400)]])
    def test_non_finite_spec_number_names_field(self, tmp_path, capsys, values):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(EXPLICIT, spectrum={"type": "explicit", "values": values})))
        assert main(["check", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert "spectrum.values" in err
        assert "finite" in err

    def test_non_finite_control_and_delay_rejected(self):
        bad_beta = dict(EXPLICIT, control={"type": "explicit", "beta": [[1.0], [float("inf")]]})
        with pytest.raises(SpecValidationError) as err:
            parse_model_dict(bad_beta)
        assert any(path == "control.beta[1]" for path, _ in err.value.problems)
        with pytest.raises(SpecValidationError) as err:
            parse_model_dict(dict(TRANSPORT, control={"preset": "transport", "r": float("nan")}))
        assert any(path == "control.r" for path, _ in err.value.problems)

    @pytest.mark.parametrize("rule", ["ell2:nan", "ell2:inf"])
    def test_non_finite_ell2_bound_rejected(self, rule):
        bad = dict(EXPLICIT, control={"type": "explicit", "beta": [[1.0], [1.0]], "tail_rule": rule})
        with pytest.raises(SpecValidationError) as err:
            parse_model_dict(bad)
        assert any(path == "control.tail_rule" for path, _ in err.value.problems)


class TestNonFiniteSums:
    """A sum that overflows float64 is Inconclusive, never a Converged infinity."""

    OVERFLOW = dict(EXPLICIT, spectrum={"type": "explicit", "values": [700.0, -1.0]})  # e^1400 in gamma(1)
    HUGE_BETA = dict(EXPLICIT, spectrum={"type": "explicit", "values": [-1.0]}, modes=1,
                     control={"type": "explicit", "beta": [[1e200]]})  # weight 1e400

    # e^1400 is the limit inf, taken without a warning: pytest's error::RuntimeWarning guards these runs
    def test_overflowing_time_route_is_inconclusive(self, tmp_path, capsys):
        path = write_spec(tmp_path, self.OVERFLOW)
        assert main(["check", "--model", path]) == 0
        route = json.loads(capsys.readouterr().out)["results"]["routes"]["time_domain"]
        assert route["verdict"] == "Inconclusive"
        assert route["tail_bound"] == "unknown"
        assert "not finite in float64" in route["evidence"]

    def test_overflowing_time_route_fails_the_gate(self, tmp_path, capsys):
        path = write_spec(tmp_path, self.OVERFLOW)
        assert main(["simulate", "--model", path, "--samples", "10"]) == 3
        assert "existence gate: verdict Inconclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--dt", "0.5"]])
    def test_overridden_gate_refuses_non_finite_covariance(self, tmp_path, capsys, extra):
        path = write_spec(tmp_path, self.OVERFLOW)
        argv = ["simulate", "--model", path, "--samples", "10", "--override-existence-gate", *extra]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "the covariance is not finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["check", "dyadic"])
    def test_infinite_weight_leaks_no_invariant(self, tmp_path, capsys, command):
        path = write_spec(tmp_path, self.HUGE_BETA)
        assert main([command, "--model", path]) == 0
        captured = capsys.readouterr()
        assert "requires a finite" not in captured.err
        results = json.loads(captured.out)["results"]
        verdicts = results["routes"].values() if command == "check" else [results["diagnostic"]]
        assert {v["verdict"] for v in verdicts} == {"Inconclusive"}


class TestTinyEigenvalues:
    """A square that underflows float64: a zero weight adds 0, a positive one is an uncertified inf; no warning."""

    TINY = dict(EXPLICIT, spectrum={"type": "explicit", "values": [-4e-203, -1.0]},
                control={"type": "explicit", "beta": [[0.0], [1.0]]})

    def test_zero_weight_mode_adds_nothing(self, tmp_path, capsys):
        path = write_spec(tmp_path, self.TINY)
        assert main(["dyadic", "--model", path]) == 0
        diagnostic = json.loads(capsys.readouterr().out)["results"]["diagnostic"]
        assert diagnostic["verdict"] == "Converged"
        # what is left is the single mode at -1 over |n| <= 10, as in TestDyadic
        assert diagnostic["partial_value"]["value"] == pytest.approx(1.4407431867274039, rel=1e-12)

    def test_positive_weight_over_underflowed_square_is_inconclusive(self, tmp_path, capsys):
        path = write_spec(tmp_path, dict(self.TINY, control={"type": "explicit", "beta": [[1.0], [1.0]]}))
        assert main(["dyadic", "--model", path]) == 0
        diagnostic = json.loads(capsys.readouterr().out)["results"]["diagnostic"]
        assert diagnostic["verdict"] == "Inconclusive"
        assert "not finite in float64" in diagnostic["evidence"]

    def test_omega_next_to_growth_bound(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT)
        assert main(["check", "--model", path, "--omega", "1e-170"]) == 0
        routes = json.loads(capsys.readouterr().out)["results"]["routes"]
        assert routes["time_domain"]["verdict"] == "Converged"
        for name in ("dual_frequency", "dirichlet_frequency"):
            assert routes[name]["verdict"] == "Inconclusive"
            assert "not finite in float64" in routes[name]["evidence"]


class TestCovarianceSpectrum:
    def test_csv_computes_no_eigenvalues(self, tmp_path, capsys, monkeypatch):
        path = write_spec(tmp_path, HEAT)
        assert main(["covariance", "--model", path, "--format", "csv"]) == 0
        expected = capsys.readouterr().out
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        assert main(["covariance", "--model", path, "--format", "csv"]) == 0
        assert capsys.readouterr().out == expected
        assert calls == []
        assert main(["covariance", "--model", path]) == 0
        assert len(calls) == 1
        assert "min_eigenvalue" in json.loads(capsys.readouterr().out)["results"]

    def test_nan_entry_reports_a_nan_min_eigenvalue(self, tmp_path, capsys):
        # eigenvalue 1 at T = 1e308 makes an infinite factor; over the zero Gram entry it gives a NaN cell,
        # on which LAPACK does not converge
        spec = dict(EXPLICIT, modes=2, spectrum={"type": "explicit", "values": [1.0, 1.0]}, noise_dim=2,
                    control={"type": "explicit", "beta": [[1.0, 0.0], [0.0, 1.0]]})
        path = write_spec(tmp_path, spec)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["covariance", "--model", path, "--T", "1e308"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["entries"]["rows"][1] == [0, 1, "nan"]
        assert results["min_eigenvalue"]["value"] == "nan"


class TestDyadicTable:
    def test_last_cumulative_is_partial_value(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        for k in range(20):
            lam, w = piecewise_spectrum(rng)
            spec = {
                "name": f"finite-{k}", "modes": int(lam.size), "noise_dim": 1,
                "spectrum": {"type": "explicit", "values": lam.tolist()},
                "control": {"type": "explicit", "beta": [[b] for b in np.sqrt(w).tolist()]},
            }
            path = write_spec(tmp_path, spec)
            n_range = int(rng.integers(1, 12))
            argv = ["dyadic", "--model", path, "--freq-terms", str(n_range)]
            assert main(argv) == 0
            results = json.loads(capsys.readouterr().out)["results"]
            partial = results["diagnostic"]["partial_value"]["value"]
            rows = results["terms"]["rows"]
            assert rows[-1][2] == partial
            indices = [row[0] for row in rows]
            assert indices == sorted(indices, key=lambda n: (abs(n), n))
            assert main(argv + ["--format", "csv"]) == 0
            last = capsys.readouterr().out.strip().splitlines()[-1].split(",")
            assert float(last[2]) == partial


class TestReportComposition:
    @pytest.mark.parametrize("payload", [dict(HEAT_FB, modes=16), TRANSPORT, EXPLICIT])
    def test_sections_equal_standalone_results(self, tmp_path, capsys, payload):
        path = write_spec(tmp_path, payload)
        assert main(["report", "--model", path]) == 0
        sections = json.loads(capsys.readouterr().out)["results"]
        commands = {"check": "check", "covariance": "covariance", "dyadic": "dyadic",
                    "perturbation": "perturb-check"}
        assert sections
        for section, results in sections.items():
            assert main([commands[section], "--model", path]) == 0
            assert json.loads(capsys.readouterr().out)["results"] == results
