"""Outputs do not depend on the Spark master or the shuffle partitions.

The KG, the nine benchmark splits and a TransE ranking are computed in
two fresh processes, because the master is fixed per JVM: one on
``local[1]`` with one shuffle partition, one on ``local[4]`` with 64.
Everything must come out identical, floats included.

Run as a script, the module computes one side and prints it as JSON:

    SPARK_MASTER=local[1] python tests/test_session_invariance.py 1
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.benchmark.build import build_all_benchmarks
from repro.construction.assemble import build_world
from repro.core.config import TEST_CONFIG
from repro.kge.data import KGEDataset
from repro.kge.evaluate import evaluate_spark
from repro.kge.trans import TransE
from repro.session import get_spark

SRC = Path(__file__).resolve().parent.parent / "src"


def _digest(pdf) -> str:
    rows = pdf.sort_values(list(pdf.columns)).to_csv(index=False)
    return hashlib.sha256(rows.encode()).hexdigest()


def fingerprint(partitions: int) -> dict:
    spark = get_spark("invariance")
    spark.conf.set("spark.sql.shuffle.partitions", partitions)
    kg = build_world(spark, TEST_CONFIG)
    out = {"triples": _digest(kg.triples.toPandas())}
    benches = build_all_benchmarks(kg, boost=3.0)
    for name, b in benches.items():
        for split in ("train", "dev", "test"):
            out[f"{name}/{split}"] = _digest(getattr(b, f"{split}_pdf"))
    data = KGEDataset.from_benchmark(benches["OpenBG500"])
    model = TransE(data.n_ent, data.n_rel, seed=0).fit(data, epochs=10)
    # rank the training triples: the five test queries are too few for the
    # order of a float sum to show in the MRR
    out["metrics"] = evaluate_spark(spark, model, data, split="train")
    out["spark"] = [
        spark.sparkContext.master, spark.conf.get("spark.sql.shuffle.partitions")
    ]
    spark.stop()
    return out


def _run(master: str, partitions: int) -> dict:
    env = {
        **os.environ,
        "SPARK_MASTER": master,
        "SPARK_DRIVER_MEM": "2g",
        "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ),
    }
    proc = subprocess.run(
        [sys.executable, __file__, str(partitions)],
        env=env, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_results_invariant_under_master_and_partitions():
    one = _run("local[1]", 1)
    four = _run("local[4]", 64)
    assert one.pop("spark") == ["local[1]", "1"]
    assert four.pop("spark") == ["local[4]", "64"]
    assert len(one) == 1 + 9 + 1
    assert one == four


if __name__ == "__main__":
    print(json.dumps(fingerprint(int(sys.argv[1]))))
