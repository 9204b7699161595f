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
        assert bundle.kind == "diagonal"
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

    def test_check_transport_diverges_with_witness(self, tmp_path, capsys):
        path = write_spec(tmp_path, TRANSPORT)
        assert main(["check", "--model", path, "--omega", "1", "--T", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        route = report["results"]["routes"]["dirichlet_frequency"]
        assert route["verdict"] == "Diverged"
        assert route["evidence"] == "terms constant in n"
        assert route["tail_bound"] == "unbounded"

    def test_simulate_transport_refused_at_gate(self, tmp_path, capsys):
        path = write_spec(tmp_path, TRANSPORT)
        assert main(["simulate", "--model", path]) == 3
        err = capsys.readouterr().err
        assert "existence gate" in err

    def test_simulate_heat_runs_and_reports(self, tmp_path, capsys):
        path = write_spec(tmp_path, HEAT)
        assert main(["simulate", "--model", path, "--samples", "50", "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        results = report["results"]
        assert results["scheme"] == "exact"
        assert results["existence"]["verdict"] == "Converged"
        assert len(results["ensemble"]["mean"]) == 8
        assert results["ensemble"]["mean"][0]["provenance"].startswith("monte_carlo")

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
    ])
    def test_beyond_budget_exits_3_naming_source(self, tmp_path, capsys, argv, source):
        path = write_spec(tmp_path, dict(HEAT, modes=100000))
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
