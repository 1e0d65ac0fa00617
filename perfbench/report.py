"""Run workloads over several seeds and print every metric's spread.

    python3 perfbench/report.py                      # all workloads, seeds 1..10
    python3 perfbench/report.py --workloads linkpred --seeds 5
    python3 perfbench/report.py --trace 1 --seeds 1  # per-layer metrics

Each run is a fresh ``perfbench/run.py`` process.  For every metric the
table shows the median over runs, the quartile spread (Q3 − Q1 as a
share of the median, from ``statistics.quantiles(values, n=4)``), the
metric's bound from ``BENCHMARK.json`` and the run count.  The
workload-specific metrics each run reports (``sample_s``,
``rank_queries_per_s``, …), the tail percentile where at least ten
runs lie beyond one, and each run's failed/attempted ops are shown as
well.  A ``!``
marks a spread above a third of the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread, tail_percentile  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    detail = next(
        (json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("perfbench-detail ")), {}
    )
    return {"result": json.loads(lines[-1]), "detail": detail, "wall_s": wall}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    for w in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_once(w, seed, spec["run_seconds"], args.trace)
            runs.append(r)
            res = r["result"]
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"failed/attempted={res['failed']}/{res['attempted']} "
                  f"wall={r['wall_s']:.1f}s {values}", flush=True)
        print(f"\n{w}: {len(runs)} runs, mean wall {statistics.mean(r['wall_s'] for r in runs):.1f}s")
        print(f"  {'metric':34s} {'median':>14s} {'spread':>8s} {'bound':>6s} {'n':>3s}  tail")
        rows = {}
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in runs
                    if name in r["result"]["metrics"]]
            if vals:
                rows[name] = (vals, bounds[name])
        for r in runs:  # workload metrics that BENCHMARK.json does not gate
            for name, s in (r["detail"].get("workload_metrics") or {}).items():
                if name not in bounds:
                    rows.setdefault(f"({name})", ([], None))[0].append(s["median"])
        for name, (vals, b) in rows.items():
            sp = spread(vals)
            pct, pct_value = tail_percentile(vals)
            tail = f"p{pct:g}={pct_value:.4f}" if pct else "-"
            flag = " !" if b is not None and sp > b / 3 else ""
            print(f"  {name:34s} {statistics.median(vals):14.4f} {sp:8.2%} "
                  f"{b if b is not None else '-':>6} {len(vals):3d}  {tail}{flag}")
        if args.trace:
            oh = [r["detail"].get("trace_overhead_s") for r in runs]
            print(f"  trace overhead s per pass: {oh}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
