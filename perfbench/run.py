"""Benchmark of the boundarynoise package: workloads end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sample --seed 1 --seconds 20 --trace 0

Load is a closed loop with one client: the next operation starts when the
previous one has returned, as for a CLI user or a library caller.  A run
repeats whole cycles of the workload's operations until about ``--seconds`` of
operation time has passed (at least three cycles untraced), so every run
measures the same mix of operations.  The run and its child processes keep to
one CPU.  A fixed calibration (``calibrate.py``) is timed before every
operation and around every set-up, and times are reported at the reference
host's speed, so that the shared host's drift cancels; raw times are printed
beside them.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``,
measured without tracing.  ``--trace 1`` runs half the time untraced and half
traced, and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report.  Spans and a detailed result file go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from calibrate import CAL_REF_S, calibrate, local_calibrations, scaled
from core import CheckFailed, RefCache
from tracer import END, NAME, OP, START, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: BLAS threads for this process and every child: at most the machine's cores.
#: One thread keeps the single-client loop on one core, away from thread start-up
#: stalls and from contention with the other core.
BLAS_THREADS = "1"


@dataclass
class Record:
    label: str
    position: int  # index of the operation in the workload's cycle
    started: float  # time.perf_counter() at the start
    seconds: float
    calibration: float  # seconds of the calibration work timed right before the operation
    error: str | None = None


def nearest_rank(values: list[float], q: float) -> float:
    """Smallest value with at least a share ``q`` of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def run_phase(ops, seconds: float, min_cycles: int, tracer=None):
    """Run whole cycles of ``ops`` until about ``seconds`` of operation time is spent.

    Returns the records and the ``(op, result, record)`` triples whose check
    waits until after the phase.
    """
    records, deferred = [], []
    spent, cycles = 0.0, 0
    while True:
        for position, op in enumerate(ops):
            calibration = calibrate()
            root = tracer.begin_op(len(tracer.op_labels), op.label) if tracer is not None else None
            started = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an operation that raises is a failed operation, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            record = Record(op.label, position, started, time.perf_counter() - started, calibration, error)
            if tracer is not None:
                tracer.end_op(root)
            records.append(record)
            spent += record.seconds
            if error is None:
                if op.deferred_check:
                    deferred.append((op, result, record))
                else:
                    check(op, result, record)
            del result
        cycles += 1
        # stop at the cycle boundary nearest to the requested time
        if cycles >= min_cycles and spent + 0.5 * spent / cycles >= seconds:
            return records, deferred


def check(op, result, record: Record) -> None:
    try:
        op.check(result)
    except CheckFailed as exc:
        record.error = str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        record.error = f"malformed output: {type(exc).__name__}: {exc}"


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh process to the end of the workload's set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {rc}")
    return elapsed


def setup_times(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set up at least three times and for at least a second and a half, at most 15 times.

    Each set-up comes with the mean of the calibrations timed before and after it.
    """
    probes: list[tuple[float, float]] = []
    before = calibrate()
    while len(probes) < 3 or (sum(p[0] for p in probes) < 1.5 and len(probes) < 15):
        elapsed = probe_setup(workload, seed)
        after = calibrate()
        probes.append((elapsed, 0.5 * (before + after)))
        before = after
    return probes


def scaled_seconds(records: list[Record]) -> list[float]:
    """Each operation's time at the reference host's speed."""
    local = local_calibrations([r.started for r in records], [r.seconds for r in records],
                               [r.calibration for r in records])
    return [scaled(r.seconds, c) for r, c in zip(records, local)]


def typical_times(records: list[Record], scale: bool = True) -> list[float]:
    """Each operation of the cycle at its median time over the run's cycles.

    With ``scale`` the times are at the reference host's speed.
    ``len(typical) / sum(typical)`` is then the operations completed per
    second of operation time over whole cycles.
    """
    seconds = scaled_seconds(records) if scale else [r.seconds for r in records]
    by_position: dict[int, list[float]] = {}
    for r, s in zip(records, seconds):
        by_position.setdefault(r.position, []).append(s)
    return [statistics.median(times) for _, times in sorted(by_position.items())]


def end_to_end_metrics(records: list[Record], peak_rss_mb: float, setup: list[tuple[float, float]],
                       scale: bool = True) -> dict[str, float]:
    """The end-to-end metrics; times at the reference host's speed unless ``scale`` is false."""
    typical = typical_times(records, scale)
    return {
        "ops_per_s": len(typical) / sum(typical),
        # the middle two averaged when a cycle has an even number of operations
        "op_s.p50": statistics.median(typical),
        "op_s.p90": nearest_rank(typical, 0.9),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(scaled(s, c) if scale else s for s, c in setup),
    }


def layer_tables(tracer) -> tuple[dict, dict, dict]:
    """Self and inclusive seconds per span name, and per operation label, from the spans."""
    selfs = self_times(tracer.spans)
    by_name: dict[str, dict[str, float]] = {}
    by_op: dict[int, dict[str, float]] = {}
    for span, own in zip(tracer.spans, selfs):
        entry = by_name.setdefault(span[NAME], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["total_s"] += span[END] - span[START]
        entry["calls"] += 1
        if span[NAME] == "op":
            by_op[span[OP]] = {"wall_s": span[END] - span[START], "uncovered_s": own}
    by_label: dict[str, dict[str, float]] = {}
    for op, info in by_op.items():
        entry = by_label.setdefault(tracer.op_labels[op], {"ops": 0, "wall_s": 0.0, "uncovered_s": 0.0})
        entry["ops"] += 1
        entry["wall_s"] += info["wall_s"]
        entry["uncovered_s"] += info["uncovered_s"]
        for metric, value in tracer.counts.get(op, {}).items():
            entry[metric] = entry.get(metric, 0.0) + value
    return by_name, by_label, by_op


def per_layer_metrics(tracer, untraced: list[Record], traced: list[Record]) -> dict[str, float]:
    by_name, _, by_op = layer_tables(tracer)
    ops = max(len(traced), 1)
    metrics = {"cli.import_s": by_name.get("cli.import", {}).get("self_s", 0.0) / ops,
               "cli.main_self_s": by_name.get("cli.main", {}).get("self_s", 0.0) / ops}
    for name in layers.SPAN_NAMES:
        if name != "cli.main":
            metrics[f"{name}_s"] = by_name.get(name, {}).get("self_s", 0.0) / ops
    totals = {metric: 0.0 for metric in layers.COUNTERS}
    for counts in tracer.counts.values():
        for metric, value in counts.items():
            totals[metric] += value
    for metric in layers.COUNTERS:
        if metric != "reports.rows_written":
            metrics[metric] = totals[metric] / ops
    built = totals["reports.rows_built"]
    metrics["reports.rows_useful_ratio"] = totals["reports.rows_written"] / built if built else 0.0
    wall = sum(info["wall_s"] for info in by_op.values())
    metrics["trace.uncovered_share"] = sum(info["uncovered_s"] for info in by_op.values()) / wall if wall else 0.0
    # both phases at the reference host's speed, so that drift between the halves cancels
    untraced_mean = sum(scaled_seconds(untraced)) / max(len(untraced), 1)
    traced_mean = sum(scaled_seconds(traced)) / ops
    metrics["trace.overhead"] = traced_mean / untraced_mean - 1.0 if untraced_mean else 0.0
    return metrics


def with_units(declared: list[dict], measured: dict[str, float]) -> dict[str, dict]:
    """Attach units from BENCHMARK.json; the measured names must be exactly the declared ones."""
    names = [m["name"] for m in declared]
    if set(names) != set(measured):
        raise RuntimeError(f"metrics {sorted(measured)} do not match BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


#: Every workload the runner knows.  ``perturb`` is not in BENCHMARK.json: its
#: correctness checks fail on the current package (see results/README.md), and
#: a benchmark workload must pass them.  It runs on request, with its failures.
WORKLOADS = ("decide-cold", "sample", "perturb", "emit")


def workload_class(name: str):
    if name == "decide-cold":
        from decide_cold import DecideCold
        return DecideCold
    import inprocess
    return {"sample": inprocess.Sample, "perturb": inprocess.Perturb, "emit": inprocess.Emit}[name]


def failures_by_label(records: list[Record]) -> dict[str, dict]:
    table: dict[str, dict] = {}
    for r in records:
        entry = table.setdefault(r.label, {"ops": 0, "failed": 0, "times": [], "error": None})
        entry["ops"] += 1
        entry["times"].append(r.seconds)
        if r.error is not None:
            entry["failed"] += 1
            entry["error"] = entry["error"] or r.error
    return table


def print_ops(table: dict[str, dict]) -> None:
    print(f"{'operation':52s} {'n':>4s} {'median s':>10s} {'failed':>6s}")
    for label, entry in table.items():
        print(f"{label:52s} {entry['ops']:4d} {statistics.median(entry['times']):10.4f} {entry['failed']:6d}"
              + (f"  {entry['error']}" if entry["error"] else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # one CPU for this process and every child, so that a calibration and the
    # operation after it run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "boundarynoise" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'boundarynoise'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = WORK / (f"probe-{os.getpid()}" if args.setup_probe else args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, declared, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, declared: dict, workdir: Path) -> int:
    cls = workload_class(args.workload)
    if args.setup_probe:
        cls(args.seed, workdir, SRC)
        print("ready", flush=True)
        return 0

    origin = importlib.util.find_spec("boundarynoise").origin
    if Path(origin).resolve().parent != (SRC / "boundarynoise").resolve():
        print(f"error: boundarynoise resolves to {origin}, not to {SRC}", file=sys.stderr)
        return 2
    for _ in range(3):  # the first calibrations in a process are slower
        calibrate()
    setup = [] if args.trace else setup_times(args.workload, args.seed)
    workload = cls(args.seed, workdir, SRC)
    cache = RefCache(WORK / "cache" / "references.json")
    workload.prepare(cache)

    tracer = None
    if args.trace:
        untraced, deferred = run_phase(workload.operations(), args.seconds / 2, 1)
        tracer = Tracer()
        workload.install_tracing(tracer)
        records, more = run_phase(workload.operations(tracer), args.seconds / 2, 1, tracer)
        deferred += more
        everything = untraced + records
    else:
        records, deferred = run_phase(workload.operations(), args.seconds, 3)
        peak = workload.peak_rss_mb()
        everything = records
    for op, result, record in deferred:
        check(op, result, record)
    run_checks = workload.run_checks(args.seed, cache)

    failed = sum(r.error is not None for r in everything) + sum(err is not None for _, err in run_checks)
    attempted = len(everything) + len(run_checks)
    info = machine_info()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print_ops(failures_by_label(everything))
    for name, err in run_checks:
        print(f"{name}: {'ok' if err is None else 'FAILED: ' + err}")
    print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} operations and per-run checks failed)")

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": info, "operations": failures_by_label(everything),
              "run_checks": dict(run_checks), "attempted": attempted, "failed": failed}
    if args.trace:
        measured = per_layer_metrics(tracer, untraced, records)
        metrics = with_units(declared["per_layer"], measured)
        detail["spans_by_name"], detail["by_operation"], _ = layer_tables(tracer)
        print_layers(detail, len(records), len(untraced))
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        tracer.dump(WORK / "spans" / f"{args.workload}-seed{args.seed}.json")
    else:
        measured = end_to_end_metrics(records, peak, setup)
        metrics = with_units(declared["end_to_end"], measured)
        raw = end_to_end_metrics(records, peak, setup, scale=False)
        speed = CAL_REF_S / statistics.median(r.calibration for r in records)
        detail["raw_metrics"], detail["host_speed"] = raw, speed
        for r, seconds in zip(records, scaled_seconds(records)):
            detail["operations"][r.label].setdefault("scaled_times", []).append(seconds)
        per_cycle = len(typical_times(records))
        ops_note = f"n={len(records)} operations: {per_cycle} per cycle x {len(records) // per_cycle} cycles"
        notes = {"ops_per_s": ops_note, "op_s.p50": ops_note, "op_s.p90": ops_note,
                 "peak_rss_mb": "n=1 (maximum over the run)", "setup_s": f"n={len(setup)} set-ups"}
        print(f"host speed {speed:.3f} of the reference (calibration {CAL_REF_S * 1e3:g} ms there); "
              "times are scaled to the reference, raw times beside them")
        for name, m in metrics.items():
            print(f"{name:14s} {m['value']:12.6g} {m['unit']:4s} raw {raw[name]:12.6g}  {notes[name]}")
        if len(records) > 10:
            q = 1.0 - 10 / len(records)
            pooled = scaled_seconds(records)
            print(f"pooled over all {len(records)} operations, the highest percentile with ten samples beyond it "
                  f"is p{100 * q:.0f} = {nearest_rank(pooled, q):.6g} s")
    detail["metrics"] = metrics
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def print_layers(detail: dict, traced_ops: int, untraced_ops: int) -> None:
    print(f"traced {traced_ops} operations after {untraced_ops} untraced; self time per operation:")
    modules: dict[str, float] = {}
    for name, entry in detail["spans_by_name"].items():
        layer = "uncovered" if name == "op" else name.split(".")[0]
        modules[layer] = modules.get(layer, 0.0) + entry["self_s"]
        print(f"  {name:34s} self {entry['self_s'] / traced_ops:10.6f} s  total {entry['total_s'] / traced_ops:10.6f} s"
              f"  calls {entry['calls'] / traced_ops:8.2f}")
    print("self time per layer:")
    wall = sum(modules.values())
    for layer, seconds in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:14s} {seconds / traced_ops:10.6f} s/op  {100 * seconds / wall:5.1f}% of traced wall time")
    print("per operation:")
    for label, entry in detail["by_operation"].items():
        built = entry.get("reports.rows_built", 0.0)
        useful = f"{entry.get('reports.rows_written', 0.0) / built:.3f}" if built else "-"
        print(f"  {label:52s} uncovered {entry['uncovered_s'] / entry['wall_s']:6.1%}"
              f"  parse_calls/op {entry.get('modelspec.parse_calls', 0.0) / entry['ops']:4.1f}"
              f"  rows useful {useful}")


if __name__ == "__main__":
    sys.exit(main())
