"""Property test of the input boundary: any spec file and flags end in exit 0, 2 or 3.

Specs mix well-formed blocks with ragged and wrongly typed rows, missing and
unknown fields, and junk values.  Each command gets exactly the flags its
parser accepts.  A RuntimeWarning (an error under this suite's settings)
means a defect: a float64 value that overflows takes its limit silently.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from boundarynoise.cli import build_parser, main


def accepted_flags() -> dict:
    """Each command's long options, read from the parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions if a.dest != "help" for o in a.option_strings}
            for name, p in sub.choices.items()}


ACCEPTED = accepted_flags()
COMMANDS = list(ACCEPTED)

HEAT = ["heat_neumann_left", "heat_neumann_right"]
small = st.floats(-10.0, 10.0, allow_nan=False)
# feedback stays small: a positive perturbed eigenvalue of 50 would overflow e^{2 lambda T}
feedback = st.floats(-1.0, 1.0)
# magnitudes reach the least subnormal: below about 1e-154, lambda^2 underflows to 0 in w / lambda^2;
# stable ones reach 1e300, where lambda^2 overflows; positive ones stay small: e^{2 lambda T} overflows
eigenvalue = st.one_of(st.just(0.0), st.floats(-1e300, -5e-324), st.floats(5e-324, 5.0), st.floats(-1e-150, 1e-150))
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), small, st.text(max_size=3), st.builds(list), st.builds(dict),
)


def ragged_rows(count):
    return st.lists(st.lists(small, min_size=1, max_size=3), min_size=count, max_size=count).filter(
        lambda rows: len({len(row) for row in rows}) > 1)


mistyped_rows = st.lists(
    st.one_of(small, st.text(max_size=2), st.lists(st.one_of(small, st.booleans(), st.text(max_size=1)), max_size=2)),
    max_size=3,
)


@st.composite
def specs(draw):
    """A well-formed spec of one of the four families, then up to two defects."""
    if draw(st.integers(0, 9)) == 0:
        return draw(junk)
    modes, width = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    table = st.lists(st.lists(small, min_size=width, max_size=width), min_size=modes, max_size=modes)
    rows = st.one_of(table, table, table, ragged_rows(max(modes, 2)))
    kind = draw(st.sampled_from(["heat", "explicit", "power", "transport"]))
    if kind == "transport":
        spec = {"name": "prop", "noise_dim": draw(st.one_of(st.integers(1, 3), st.just("countable"))),
                "control": {"preset": "transport", "r": draw(st.floats(0.1, 3.0))}}
    else:
        spec = {"name": "prop", "modes": modes}
        if kind == "heat":
            spec["control"] = {"preset": draw(st.sampled_from(HEAT))}
        else:
            spec["noise_dim"] = width
            if kind == "explicit":
                values = draw(st.lists(eigenvalue, min_size=modes, max_size=modes))
                spec["spectrum"] = {"type": "explicit", "values": values}
            else:
                spec["spectrum"] = {"type": "power", "c": draw(st.floats(0.1, 3.0)), "p": draw(st.floats(0.5, 3.0)),
                                    "include_zero_mode": draw(st.booleans())}
            spec["control"] = {"type": "explicit", "beta": draw(rows)}
            if draw(st.booleans()):
                spec["control"]["tail_rule"] = draw(st.sampled_from(["constant", "zero_tail", "ell2:0.5"]))
        if draw(st.sampled_from([False, True, True])):
            vector = st.lists(feedback, min_size=modes, max_size=modes)
            b = draw(st.sampled_from(HEAT)) if kind == "heat" and draw(st.booleans()) else draw(vector)
            m = "constant_one" if kind == "heat" and draw(st.booleans()) else draw(vector)
            spec["perturbation"] = {"type": "rank_one", "b": b, "m": m}
        if draw(st.booleans()):
            spec["observation"] = {"type": "explicit", "gamma": draw(rows)}
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        obj = draw(st.sampled_from([spec, *(v for v in spec.values() if isinstance(v, dict))]))
        key = draw(st.sampled_from([*sorted(obj), "colour"]))
        defect = draw(st.sampled_from(["junk", "rows", "missing"]))
        if defect == "missing":
            obj.pop(key, None)
        else:
            obj[key] = draw(junk if defect == "junk" else st.one_of(ragged_rows(3), mistyped_rows))
    return spec




def flag(*values):
    """Absent two times in three; the last value is out of range."""
    return st.one_of(st.none(), st.none(), st.sampled_from(values))


# horizons, steps and abscissae reach the float range's ends, where frequencies and step counts overflow;
# a horizon of 1e308 only in examples on stable specs, since a positive eigenvalue overflows there for real
flags = st.fixed_dictionaries({
    "--T": flag("1", "0.5", "2", "1e-160", "1e-300", "1e-320", "5e-324", "0"),
    "--omega": flag("3", "60", "1e300", "1e-300", "-1"),
    "--modes": flag("1", "3", "5", "-2"),
    "--freq-terms": flag("1", "5", "12", "0"),
    "--samples": flag("2", "5", "1"),
    "--seed": flag("0", "3", "12345", "-1"),
    "--dt": flag("0.25", "0.5", "1e-320", "1e307", "0.3"),
    "--scheme": flag("shared_increment", "exact_joint"),
})


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "model.json"


RAGGED_GAMMA = {
    "name": "ragged", "spectrum": {"type": "explicit", "values": [-1.0, -2.0]}, "modes": 2,
    "control": {"type": "explicit", "beta": [[1.0], [1.0]]},
    "observation": {"type": "explicit", "gamma": [[1.0], [1.0, 2.0]]},
}


# the mode at -4e-203 has weight 0: the dyadic diagnostic stays Converged
TINY_ZERO_WEIGHT = {
    "name": "tiny", "spectrum": {"type": "explicit", "values": [-4e-203, -1.0]}, "modes": 2, "noise_dim": 1,
    "control": {"type": "explicit", "beta": [[0.0], [1.0]]},
}


# lambda^2 overflows at -1e200: every w / lambda^2 takes its finite value without a warning
HUGE_STABLE = {
    "name": "huge", "spectrum": {"type": "explicit", "values": [-1e200, -1.0]}, "modes": 2, "noise_dim": 1,
    "control": {"type": "explicit", "beta": [[1.0], [1.0]]},
}


HEAT_FEEDBACK = {
    "name": "heat-feedback", "modes": 4, "control": {"preset": "heat_neumann_right"},
    "perturbation": {"type": "rank_one", "b": "heat_neumann_right", "m": "constant_one"},
}


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(payload=specs(), fmt=st.sampled_from(["json", "csv"]), options=flags,
       override=st.sampled_from([False, False, True]))
@example(payload=RAGGED_GAMMA, fmt="json", options={}, override=False)
@example(payload=TINY_ZERO_WEIGHT, fmt="json", options={}, override=False)
@example(payload=HUGE_STABLE, fmt="json", options={}, override=False)
@example(payload={"name": "heat", "modes": 4, "control": {"preset": "heat_neumann_right"}}, fmt="json",
         options={"--omega": "1e-170"}, override=False)
@example(payload={"name": "heat", "modes": 4, "control": {"preset": "heat_neumann_right"}}, fmt="json",
         options={"--dt": "1e-300"}, override=False)
@example(payload=HEAT_FEEDBACK, fmt="json", options={"--T": "1e308", "--omega": "1e-300"}, override=False)
@example(payload=HEAT_FEEDBACK, fmt="csv", options={"--T": "1e308", "--dt": "1e307"}, override=False)
@example(payload=HUGE_STABLE, fmt="json", options={"--T": "1e308"}, override=False)
@example(payload=TINY_ZERO_WEIGHT, fmt="json", options={"--T": "1e308", "--omega": "1e-300"}, override=False)
def test_every_run_exits_0_2_or_3(spec_path, command, payload, fmt, options, override):
    spec_path.write_text(json.dumps(payload))
    argv = [command, "--model", str(spec_path), "--format", fmt]
    argv += [f"{name}={value}" for name, value in options.items() if value is not None and name in ACCEPTED[command]]
    if override and "--override-existence-gate" in ACCEPTED[command]:
        argv.append("--override-existence-gate")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert err.getvalue().startswith("error: ")


# a valid value for every flag, so that a refusal is about the flag, not its value
VALID = {"--T": "1", "--omega": "3", "--modes": "3", "--freq-terms": "5", "--samples": "2", "--seed": "0",
         "--dt": "0.25", "--scheme": "exact_joint", "--override-existence-gate": None}
UNREAD = [(command, flag) for command in COMMANDS for flag in VALID if flag not in ACCEPTED[command]]


def test_flag_table():
    assert set().union(*ACCEPTED.values()) == {*VALID, "--model", "--format", "--output"}
    assert sum(map(len, ACCEPTED.values())) == 44
    assert len(UNREAD) == 40


@pytest.mark.parametrize("command, flag", UNREAD)
def test_unread_flag_exits_2(spec_path, command, flag):
    spec_path.write_text(json.dumps({"name": "heat", "modes": 4, "control": {"preset": "heat_neumann_right"}}))
    argv = [command, "--model", str(spec_path), flag, *([VALID[flag]] if VALID[flag] else [])]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert f"unrecognized arguments: {flag}" in err.getvalue()
    assert "Traceback" not in err.getvalue()
