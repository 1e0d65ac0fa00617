"""Filtered link-prediction evaluation: Hits@K, MR, MRR.

Protocol (paper Sec. III-B/C): for each test triple, score every entity
as a candidate tail (and, standardly, head), mask out *other* known true
triples (filtered setting), and rank the gold entity; report Hits@1/3/10
(higher better), Mean Rank (lower better), Mean Reciprocal Rank.

Two implementations:

- :func:`evaluate` — driver-side numpy reference;
- :func:`evaluate_spark` — the trained model and the known-triple
  filter are broadcast, and ranks are computed distributed over test
  triples with ``mapInPandas``; tests assert it matches the reference
  exactly.
"""
from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.kge.base import KGEModel
from repro.kge.data import KGEDataset

RANK_SCHEMA = StructType([StructField("rank", LongType(), False)])


def _rank_one(
    model: KGEModel,
    h: int,
    r: int,
    t: int,
    filt: Dict[Tuple[int, int], set],
    tails: bool,
) -> int:
    anchor, gold = (h, t) if tails else (t, h)
    scores = model.score_candidates(anchor, r, tails=tails)
    gold_score = scores[gold]
    others = filt.get((anchor, r), ())
    if others:
        idx = np.fromiter((o for o in others if o != gold), dtype=np.int64)
        if len(idx):
            scores = scores.copy()
            scores[idx] = -np.inf
    return int(1 + np.sum(scores > gold_score))


#: Paper protocol (Sec. III-C): "given an incomplete triple (h, r, ?)
#: … predict a tail entity t" — tail prediction only.  Pass
#: ``("tail", "head")`` for the symmetric protocol other papers use.
DEFAULT_DIRECTIONS = ("tail",)


def ranks_numpy(
    model: KGEModel,
    data: KGEDataset,
    split: str = "test",
    directions=DEFAULT_DIRECTIONS,
) -> np.ndarray:
    """Filtered ranks (reference implementation)."""
    by_hr, by_rt = data.filtered_targets()
    triples = getattr(data, split)
    out = []
    for h, r, t in triples:
        if "tail" in directions:
            out.append(_rank_one(model, h, r, t, by_hr, tails=True))
        if "head" in directions:
            out.append(_rank_one(model, h, r, t, by_rt, tails=False))
    return np.array(out, dtype=np.int64)


def metrics_from_ranks(ranks: np.ndarray) -> Dict[str, float]:
    """Hits@1/3/10, MR and MRR of ``ranks``, in any order.

    Ranks are averaged in sorted order: a float sum depends on the order
    of its terms, and :func:`evaluate_spark` collects ranks in an order
    that depends on how queries fell into partitions.
    """
    ranks = np.sort(ranks)
    return {
        "hits1": float(np.mean(ranks <= 1)),
        "hits3": float(np.mean(ranks <= 3)),
        "hits10": float(np.mean(ranks <= 10)),
        "mr": float(np.mean(ranks)),
        "mrr": float(np.mean(1.0 / ranks)),
    }


def evaluate(
    model: KGEModel,
    data: KGEDataset,
    split: str = "test",
    directions=DEFAULT_DIRECTIONS,
) -> Dict[str, float]:
    """Driver-side filtered evaluation."""
    return metrics_from_ranks(ranks_numpy(model, data, split, directions))


def evaluate_spark(
    spark: SparkSession,
    model: KGEModel,
    data: KGEDataset,
    split: str = "test",
    directions=DEFAULT_DIRECTIONS,
) -> Dict[str, float]:
    """Spark-distributed filtered evaluation (broadcast model + filter)."""
    by_hr, by_rt = data.filtered_targets()
    bc_model = spark.sparkContext.broadcast(model)
    bc_hr = spark.sparkContext.broadcast(by_hr)
    bc_rt = spark.sparkContext.broadcast(by_rt)

    triples = getattr(data, split)
    pdf = pd.DataFrame(triples, columns=["h", "r", "t"])
    sdf = spark.createDataFrame(pdf).repartition(
        max(2, spark.sparkContext.defaultParallelism)
    )

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        m = bc_model.value
        hr, rt = bc_hr.value, bc_rt.value
        for b in batches:
            ranks = []
            for h, r, t in b[["h", "r", "t"]].itertuples(index=False):
                if "tail" in directions:
                    ranks.append(_rank_one(m, h, r, t, hr, tails=True))
                if "head" in directions:
                    ranks.append(_rank_one(m, h, r, t, rt, tails=False))
            yield pd.DataFrame({"rank": ranks})

    ranks = sdf.mapInPandas(run, RANK_SCHEMA).toPandas()["rank"].to_numpy()
    for bc in (bc_model, bc_hr, bc_rt):
        bc.destroy()
    return metrics_from_ranks(ranks)
