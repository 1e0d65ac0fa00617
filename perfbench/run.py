"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kg-build --seed 7 --seconds 12 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there, and everything the run writes (Spark scratch, temp files, the
spans of a traced run) goes under ``.perfbench/`` in that root.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics named in ``BENCHMARK.json`` with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Lines before it are a human-readable
report.  Exits with code 2, printing no result, when the checkout holds
no program to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``local[N]``: one Spark executor thread per core, at most four.
SPARK_CORES = min(4, os.cpu_count() or 1)
SPARK_DRIVER_MEMORY = "2g"
SPARK_SHUFFLE_PARTITIONS = 8

#: The seed used while writing a change, and one kept back to confirm it.
DEFAULT_SEED = 7
HELDOUT_SEED = 11


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_spark(scratch: Path):
    """A local SparkSession whose scratch space stays under ``scratch``."""
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch / "spark-local")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    path = [str(ROOT / "src"), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        path + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory {SPARK_DRIVER_MEMORY} "
        f"--driver-java-options \"-Djava.io.tmpdir={tmp}\" "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", 1_000_000)
        .config("spark.ui.retainedStages", 1_000_000)
        .config("spark.sql.shuffle.partitions", SPARK_SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until the JVM it launched has exited.

    ``SparkSession.stop`` leaves the JVM running until this process
    closes the JVM's stdin; close it here and wait, so the run ends with
    no process of its own left behind.
    """
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is None:
        return
    gateway.shutdown()
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def versions(spark) -> dict:
    import numpy
    import pandas

    return {
        "python": sys.version.split()[0],
        "spark": spark.version,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "master": spark.sparkContext.master,
        "driver_memory": SPARK_DRIVER_MEMORY,
    }


def result_line(result: dict, spec: dict, trace: int) -> dict:
    """The result object: every metric of one kind, by name."""
    kind = "per_layer" if trace else "end_to_end"
    values = result.get(kind, {})
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec[kind]
        if m["name"] in values
    }
    return {
        "correct": bool(result["correct"]) and len(metrics) == len(spec[kind]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program to measure under {ROOT} (need src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"

    t0 = time.perf_counter()
    spark = start_spark(scratch)
    spark_start_s = time.perf_counter() - t0
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import tracing, workloads

        tracer = tracing.Tracer(spark.sparkContext)
        result = workloads.run_workload(
            spark, tracer, args.workload, args.seed, args.seconds, bool(args.trace),
            spark_start_s=spark_start_s,
        )
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "versions": versions(spark),
            **{k: result.get(k) for k in ("workload_metrics", "report", "checks")},
        }
        if "spans" in result:
            spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(result["spans"]))
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
            detail["trace_overhead_s"] = result["per_layer"]["trace.overhead_s"]
    finally:
        stop_spark(spark)

    for name, s in (result.get("workload_metrics") or {}).items():
        pct = f"p{s['pct']:g}={s['pct_value']:.4f}" if s["pct"] else "no tail percentile"
        print(f"# {args.workload} {name}: median {s['median']:.4f} {s['unit']} "
              f"({pct}, n={s['n']})")
    print("# failed/attempted:", result["failed"], "/", result["attempted"])
    print("perfbench-detail " + json.dumps(detail))
    line = result_line(result, spec, args.trace)
    print(json.dumps(line))
    return 0 if line["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
