"""Digest a fixed corpus of CLI runs, one line per run, to compare two source trees.

Runs every command in JSON and CSV on a fixed set of model specs, in process
through ``boundarynoise.cli.main``, and prints one line per run::

    <command> <spec> <format> <exit code> <sha256>

The digest covers stdout and stderr.  A JSON report enters without its
``timing`` object (the only wall-clock field), and each warning enters as
``module:line: Category: message``, so the digest does not depend on the
checkout's path.  Diffing the output of two trees checks that reports stay
byte-identical outside ``timing``::

    python tools/report_digests.py > new.txt
    python tools/report_digests.py --src ../parent/src > old.txt
    diff old.txt new.txt

The exit status is 1 when a run ends outside the CLI's exit codes 0, 2 and 3
(an uncaught exception counts as exit 1), else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

COMMANDS = ("check", "covariance", "simulate", "perturb-check", "scan-weiss", "dyadic", "report")


def _power(p: float, modes: int, rule: str, observation: bool) -> dict:
    spec = {
        "name": f"power-p{p}", "modes": modes, "noise_dim": 1,
        "spectrum": {"type": "power", "c": 1.0, "p": p, "include_zero_mode": False},
        "control": {"type": "explicit", "beta": [[1.0]] * modes, "tail_rule": rule},
    }
    if observation:
        spec["observation"] = {"type": "explicit", "gamma": [[0.5 + 0.01 * k] for k in range(modes)],
                               "tail_rule": rule}
    return spec


SPECS = {
    "heat-right": {"name": "heat-right", "modes": 64, "control": {"preset": "heat_neumann_right"}},
    "heat-left": {"name": "heat-left", "modes": 16, "control": {"preset": "heat_neumann_left"}},
    "heat-feedback": {"name": "heat-feedback", "modes": 32, "control": {"preset": "heat_neumann_right"},
                      "perturbation": {"type": "rank_one", "b": "heat_neumann_right", "m": "constant_one"}},
    "ell2": _power(2.0, 24, "ell2:0.5", False),
    "power-1.5": _power(1.5, 64, "constant", True),
    "power-2.3": _power(2.3, 40, "constant", True),
    "power-0.9": _power(0.9, 32, "constant", False),
    "zero-tail": _power(2.0, 24, "zero_tail", False),
    "explicit": {
        "name": "explicit", "modes": 4, "noise_dim": 2,
        "spectrum": {"type": "explicit", "values": [-0.5, -1.0, -3.0, -7.5]},
        "control": {"type": "explicit", "beta": [[1.0, 0.0], [0.5, 0.5], [-1.0, 2.0], [0.25, 0.0]]},
        "observation": {"type": "explicit", "gamma": [[1.0], [0.0], [2.0], [1.0]]},
        "perturbation": {"type": "rank_one", "b": [0.1, 0.0, -0.2, 0.3], "m": [1.0, 0.5, 0.0, 0.0]},
    },
    # table cells in every layout repr has: fixed (0.000ddd to 15 integer digits), e-XX, e+XX, e±XXX,
    # subnormal and -0.0 (beta 1e-200 against -1e-200 over an eigenvalue of -1e200)
    "layouts": {
        "name": "layouts", "modes": 14, "noise_dim": 1,
        "spectrum": {"type": "explicit", "values": [-0.5, -1.0, -2.0, -3.0, -1e200, -0.25, -4.0, -1.5, -6.0,
                                                    -0.75, -8.0, -5.0, -2.5, -0.125]},
        "control": {"type": "explicit", "beta": [[1.0], [1e150], [1e10], [1e-5], [1e-200], [-1e-200], [1e-100],
                                                 [0.03], [1e8], [1e-160], [3e-310], [-2.5], [1e20], [3e-4]]},
    },
    # growing modes: at T = 1e308 the covariance has inf and -inf cells, and nan where the Gram entry is 0
    "growing": {
        "name": "growing", "modes": 3, "noise_dim": 2,
        "spectrum": {"type": "explicit", "values": [0.5, 0.25, 0.125]},
        "control": {"type": "explicit", "beta": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]]},
    },
    "transport": {"name": "transport", "noise_dim": 1, "control": {"preset": "transport", "r": 1.0}},
    "transport-countable": {"name": "transport-countable", "noise_dim": "countable",
                            "control": {"preset": "transport", "r": 1.0}},
}

#: Extra flags per (spec, command); every spec also runs each command with default flags.
EXTRA = (
    ("heat-right", "check", ["--modes", "2048", "--freq-terms", "2048"]),
    ("heat-right", "simulate", ["--dt", "0.01", "--samples", "50"]),
    ("heat-right", "simulate", ["--dt", "0.01", "--samples", "20", "--scheme", "exact_joint"]),
    ("heat-left", "simulate", ["--dt", "1e-300"]),
    ("heat-left", "check", ["--T", "1e308"]),
    ("heat-left", "covariance", ["--T", "1e308"]),
    ("heat-left", "dyadic", ["--freq-terms", "600"]),
    ("heat-left", "check", ["--omega", "1e-170"]),
    ("explicit", "simulate", ["--dt", "0.25", "--seed", "7"]),
    ("heat-feedback", "report", ["--freq-terms", "600"]),
    ("heat-feedback", "simulate", ["--T", "1e308"]),
    ("heat-feedback", "perturb-check", ["--T", "1e308"]),
    ("heat-feedback", "report", ["--T", "1e308"]),
    ("heat-left", "check", ["--T", "1e-160"]),
    ("heat-left", "check", ["--T", "1e-320"]),
    ("heat-left", "check", ["--T", "1e308", "--omega", "1e-300"]),
    ("heat-left", "simulate", ["--dt", "1e-320"]),
    ("heat-feedback", "simulate", ["--T", "1e308", "--dt", "1e307"]),
    ("heat-right", "covariance", ["--modes", "512"]),
    # 129^2 = 16,641 rows: the renderer's 16,384-row block edge falls inside matrix row n = 127
    ("heat-right", "covariance", ["--modes", "129"]),
    ("zero-tail", "simulate", ["--dt", "0.01", "--samples", "20"]),
    # 2e6 x 33 x 64 stored paths (31.5 GiB) pass the sample-table and draw checks; the path budget refuses them
    ("heat-right", "simulate", ["--samples", "2000000", "--dt", "0.03125"]),
    ("transport", "simulate", ["--omega", "1"]),
    ("layouts", "simulate", ["--dt", "0.25", "--samples", "3"]),
    ("growing", "covariance", ["--T", "1e308"]),
)

_TIMING = re.compile(r'\n  "timing": \{\n.*?\n  \}', re.DOTALL)


def _run(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # once per location and run, as in a fresh process
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback in a fresh process
                rc = 1
                print(f"Traceback: {type(exc).__name__}: {exc}", file=sys.stderr)
    notes = "".join(f"{Path(w.filename).stem}:{w.lineno}: {w.category.__name__}: {w.message}\n" for w in caught)
    stdout = _TIMING.sub('\n  "timing": null', out.getvalue())
    return rc, "\0".join((stdout, err.getvalue(), notes))


def runs():
    for name in SPECS:
        for command in COMMANDS:
            for fmt in ("json", "csv"):
                yield name, command, fmt, []
    for name, command, extra in EXTRA:
        for fmt in ("json", "csv"):
            yield name, command, fmt, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the boundarynoise package (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    cli_main = importlib.import_module("boundarynoise.cli").main
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)  # specs by relative path, so the flag echo is the same in every checkout
        try:
            for name, spec in SPECS.items():
                Path(f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
            for name, command, fmt, extra in runs():
                rc, text = _run(cli_main, [command, "--model", f"{name}.json", "--format", fmt, *extra])
                bad += rc not in (0, 2, 3)
                label = "_".join([name, *extra]) if extra else name
                print(command, label, fmt, rc, hashlib.sha256(text.encode()).hexdigest(), flush=True)
        finally:
            os.chdir(here)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
