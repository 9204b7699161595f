"""Repeat the benchmark over several seeds and summarise each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/repeat.py --workloads sample emit --seeds 1-10 [--trace 0] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, and
prints for every metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the interquartile range as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  ``--out`` writes the summary and,
for every run, its result line and the detail file ``run.py`` wrote (machine,
per-operation times and failures, and with ``--trace 1`` the per-layer tables).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"] + declared["per_layer"]}

    report = {"runs": {}, "summary": {}}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(declared["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            detail = ROOT / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace{args.trace}.json"
            results.append({"result": result, "detail": json.loads(detail.read_text())})
            print(f"{workload} seed {seed}: failed {result['failed']} of {result['attempted']}",
                  file=sys.stderr, flush=True)
        report["runs"][workload] = results
        summary = {name: summarise([r["result"]["metrics"][name]["value"] for r in results])
                   for name in results[0]["result"]["metrics"]}
        report["summary"][workload] = summary
        print(f"{workload} ({len(results)} runs)")
        for name, s in summary.items():
            bound = bounds.get(name)
            print(f"  {name:34s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
                  f"  iqr/median {s['iqr_share']:7.3f}" + (f"  bound {bound}" if bound is not None else ""))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
