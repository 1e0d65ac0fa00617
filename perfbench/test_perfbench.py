"""Self-test of the benchmark: every workload at ``scale=1e-4``.

    PYTHONPATH=src python3 -m pytest perfbench -q

Checks that every metric named in ``BENCHMARK.json`` is produced and
printed, that every correctness check passes on the program as it is,
that an injected wrong rank or wrong count is caught (``failed`` > 0),
and that the traced run emits each per-layer metric.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# Spark's Python workers inherit this when the session fixture starts the JVM
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
)
os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")

import pytest  # noqa: E402

from perfbench import run as bench_run  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that may read 0 on every workload, and why.
MAY_BE_ZERO = {
    # every misspelling in the synthetic catalogue is within the fuzzy
    # edit budget, so nothing reaches the end of the matcher unresolved
    "schema_mapping.miss": "no surface escapes the fuzzy stage on synthetic data",
    "trace.overhead_s": "a difference of two timings; its sign is not fixed",
}


def _run(spark, name, trace):
    tracer = tracing.Tracer(spark.sparkContext)
    return workloads.run_workload(spark, tracer, name, seed=7, seconds=1, trace=trace)


@pytest.fixture(scope="module")
def traced_results(spark):
    """One traced run per workload; it reports both metric kinds."""
    return {name: _run(spark, name, trace=True) for name in workloads.WORKLOADS}


def test_every_workload_runs_at_scale_1e4():
    assert all(w.scale == 1e-4 for w in workloads.WORKLOADS.values())


def test_spec_names_match_code():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    layer = set(workloads.LAYER_METRICS) | set(workloads.SPARK_METRICS)
    layer |= {"spark.core_busy_ratio", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == layer
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_pass_and_every_metric_is_reported(traced_results, name):
    res = traced_results[name]
    assert res["correct"], [c for c in res["checks"] if not c[1]]
    assert res["failed"] == 0 and res["attempted"] > 0
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        line = bench_run.result_line(res, SPEC, trace)
        assert line["correct"]
        assert set(line["metrics"]) == {m["name"] for m in SPEC[kind]}
        for m in line["metrics"].values():
            assert isinstance(m["value"], float) and m["value"] == m["value"]
    for m in SPEC["end_to_end"]:
        assert res["end_to_end"][m["name"]] > 0, m["name"]


def test_traced_runs_emit_every_layer(traced_results):
    """Each per-layer metric is nonzero on some workload, unless listed
    in ``MAY_BE_ZERO`` with the reason."""
    silent = [
        m["name"] for m in SPEC["per_layer"]
        if m["name"] not in MAY_BE_ZERO
        and not any(r["per_layer"][m["name"]] for r in traced_results.values())
    ]
    assert not silent, silent
    spans = traced_results["linkpred"]["spans"]
    assert all("self_s" in s and "spark" in s for s in spans)
    # the downstream stage and its checks run in traced linkpred runs
    checks = [c for c, _ in traced_results["linkpred"]["checks"]]
    assert "category: +KG >= base" in checks and "scores in [0, 1]" in checks


def test_wrong_rank_is_caught(spark, monkeypatch):
    real = workloads.kge_evaluate.evaluate_spark

    def one_rank_off(spark_, model, data, split="test", **kw):
        res = real(spark_, model, data, split, **kw)
        return {**res, "mr": res["mr"] + 1 / len(getattr(data, split))}

    monkeypatch.setattr(workloads.kge_evaluate, "evaluate_spark", one_rank_off)
    res = _run(spark, "linkpred", trace=False)
    assert res["failed"] > 0 and not res["correct"]


def test_wrong_count_is_caught(spark, monkeypatch):
    real = workloads.con_stats.kind_stats

    def one_extra(kg):
        out = dict(real(kg))
        out[sorted(out)[0]] += 1
        return out

    monkeypatch.setattr(workloads.con_stats, "kind_stats", one_extra)
    res = _run(spark, "kg-build", trace=False)
    assert res["failed"] > 0 and not res["correct"]


def test_cli_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kg-build", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_cli_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kg-build", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
