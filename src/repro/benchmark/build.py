"""Three-stage OpenBG benchmark sampling (Sec. III-A, Eq. 1–2).

Stage 1 — **relation refinement**: the paper filters relations manually
by (i) high frequency and (ii) close business relevance.  Mechanized
here as: candidate triples are the *business* triples (product heads,
object + attribute relations — labels/comments/meta excluded), ranked
by frequency, top-N kept.  OpenBG-IMG's R136 ⊆ R500 holds by
construction: its relations are chosen from R500 restricted to triples
whose heads carry images.

Stage 2 — **head-entity filtering** (Eq. 1): relations split into
head-relations (upper half by frequency) and tail-relations; entities
under each sampled at rates α_h > α_l.

Stage 3 — **tail-entity sampling** (Eq. 2): triples with sampled heads
and refined relations, sampled at rate α^N to hit the split-size
target.

All sampling decisions are deterministic xxhash64 thresholds, so the
same config always yields the same benchmark.
"""
from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.core import schema as S
from repro.core.config import PAPER_BENCHMARKS, ScaledConfig
from repro.construction.assemble import OpenBG

#: Denominator of the deterministic-sampling hash bucket.
_BUCKETS = 1_000_000

#: Explicit split schema so empty splits still lift to Spark.
from pyspark.sql.types import StringType, StructField, StructType  # noqa: E402

SPLIT_SCHEMA = StructType(
    [
        StructField("h", StringType(), False),
        StructField("r", StringType(), False),
        StructField("t", StringType(), False),
    ]
)


@dataclasses.dataclass(frozen=True)
class BenchmarkSpec:
    """Targets for one benchmark (scaled Table II row).

    ``boost`` multiplies the volume targets relative to the straight
    ``paper × scale`` values — the KGE experiments (Tables III/IV) use a
    boosted extraction so the scaled-down benchmarks stay large enough
    to train on, exactly as documented in DESIGN.md.
    """

    name: str
    n_rel: int
    ent_target: int
    train_target: int
    n_dev: int
    n_test: int
    multimodal: bool = False
    head_share: float = 0.6  # fraction of the entity budget spent on heads
    alpha_ratio: float = 4.0  # α_h / α_l  (Eq. 1 requires α_h > α_l)


@dataclasses.dataclass
class Benchmark:
    """One constructed benchmark.

    Splits are *materialized* (pandas source of truth + lineage-free
    Spark views): the sampling stages already bounded their size, and
    severing the Spark lineage here keeps every downstream consumer
    (KGE training, stats, tests) from re-running the three-stage
    pipeline per action.
    """

    spec: BenchmarkSpec
    train_pdf: "pd.DataFrame"
    dev_pdf: "pd.DataFrame"
    test_pdf: "pd.DataFrame"
    relations: List[str]
    multimodal_entities: int
    spark: "SparkSession"

    @property
    def train(self) -> DataFrame:
        return self.spark.createDataFrame(self.train_pdf, schema=SPLIT_SCHEMA)

    @property
    def dev(self) -> DataFrame:
        return self.spark.createDataFrame(self.dev_pdf, schema=SPLIT_SCHEMA)

    @property
    def test(self) -> DataFrame:
        return self.spark.createDataFrame(self.test_pdf, schema=SPLIT_SCHEMA)

    def all_pdf(self) -> "pd.DataFrame":
        return pd.concat(
            [self.train_pdf, self.dev_pdf, self.test_pdf], ignore_index=True
        )

    def all_triples(self) -> DataFrame:
        return self.spark.createDataFrame(self.all_pdf(), schema=SPLIT_SCHEMA)

    def entities(self) -> List[str]:
        a = self.all_pdf()
        return sorted(set(a["h"]) | set(a["t"]))

    def entity_count(self) -> int:
        return len(self.entities())


def default_specs(cfg: ScaledConfig, boost: float = 1.0) -> Dict[str, BenchmarkSpec]:
    """The three paper benchmarks scaled by ``cfg`` (and ``boost``)."""
    out = {}
    for name, multimodal in (
        ("OpenBG-IMG", True),
        ("OpenBG500", False),
        ("OpenBG500-L", False),
    ):
        t = {
            k: max(1, int(round(v * cfg.scale * boost)))
            for k, v in PAPER_BENCHMARKS[name].items()
        }
        out[name] = BenchmarkSpec(
            name=name,
            n_rel=cfg.benchmark_n_rel(name),
            ent_target=t["n_ent"],
            train_target=t["n_train"],
            n_dev=max(5, t["n_dev"]),
            n_test=max(5, t["n_test"]),
            multimodal=multimodal,
        )
    return out


def business_triples(kg: OpenBG, multimodal: bool) -> DataFrame:
    """Candidate pool: product-headed object/attribute triples.

    For the multimodal (IMG) pool, heads are restricted to products
    carrying an imageIs triple.
    """
    excluded = {S.RDFS_LABEL, S.LABEL_EN, S.RDFS_COMMENT, S.IMAGE_IS,
                S.SKOS_PREFLABEL, S.SKOS_ALTLABEL}
    pool = kg.triples.filter(
        F.col("h").startswith(S.PRODUCT_PREFIX)
        & F.col("rel_kind").isin([S.KIND_OBJECT, S.KIND_DATA])
        & ~F.col("r").isin(list(excluded))
    )
    if multimodal:
        spark = kg.triples.sparkSession
        img = spark.createDataFrame(
            kg.multimodal_products()[["product_id"]]
        ).withColumnRenamed("product_id", "h")
        pool = pool.join(img, on="h")
    return pool


def _hash_frac(col: str, seed: int):
    return F.pmod(F.xxhash64(col, F.lit(seed)), F.lit(_BUCKETS)) / _BUCKETS


def _hash_frac3(seed: int):
    """Uniform [0,1) key over the whole (h, r, t) triple.

    Mixing per-column hashes arithmetically is NOT uniform (few distinct
    tails → lumpy sums that can zero out small sampling rates); hashing
    all three columns jointly is.
    """
    return F.pmod(F.xxhash64("h", "r", "t", F.lit(seed)), F.lit(_BUCKETS)) / _BUCKETS


def refine_relations(
    pool: DataFrame, n_rel: int, within: Optional[List[str]] = None
) -> List[str]:
    """Stage 1: top-``n_rel`` relations by frequency (optionally within a
    parent relation set, for the R136 ⊆ R500 containment)."""
    df = pool
    if within is not None:
        df = df.filter(F.col("r").isin(within))
    freq = df.groupBy("r").agg(F.count("*").alias("n")).orderBy(
        F.desc("n"), "r"
    )
    return [row["r"] for row in freq.limit(n_rel).collect()]


def filter_head_entities(
    pool: DataFrame, relations: List[str], spec: BenchmarkSpec, seed: int
) -> DataFrame:
    """Stage 2 (Eq. 1): E^N = Sample(E_head, α_h) + Sample(E_tail, α_l)."""
    sub = pool.filter(F.col("r").isin(relations))
    freq = {r["r"]: r["n"] for r in sub.groupBy("r").agg(F.count("*").alias("n")).collect()}
    ranked = sorted(relations, key=lambda r: (-freq.get(r, 0), r))
    head_rels = ranked[: max(1, len(ranked) // 2)]

    heads_head = sub.filter(F.col("r").isin(head_rels)).select("h").distinct()
    heads_all = sub.select("h").distinct()
    heads_tail = heads_all.join(heads_head, on="h", how="left_anti")

    n_hh, n_ht = heads_head.count(), heads_tail.count()
    budget = spec.ent_target * spec.head_share
    # α_h > α_l with a fixed ratio; solve α_h·n_hh + (α_h/ρ)·n_ht = budget
    rho = spec.alpha_ratio
    alpha_h = min(1.0, budget / max(1.0, n_hh + n_ht / rho))
    alpha_l = alpha_h / rho

    sampled = heads_head.filter(_hash_frac("h", seed) < alpha_h).unionByName(
        heads_tail.filter(_hash_frac("h", seed + 1) < alpha_l)
    )
    return sampled


def sample_triples(
    pool: DataFrame,
    relations: List[str],
    heads: DataFrame,
    spec: BenchmarkSpec,
    seed: int,
) -> DataFrame:
    """Stage 3 (Eq. 2): T^N = Sample(T(E^N, R^N), α^N)."""
    t_er = pool.filter(F.col("r").isin(relations)).join(heads, on="h")
    n = t_er.count()
    want = spec.train_target + spec.n_dev + spec.n_test
    alpha = min(1.0, want / max(1, n))
    return t_er.filter(_hash_frac3(seed) < alpha)


def split_benchmark(
    sampled_pdf: pd.DataFrame, spec: BenchmarkSpec
) -> Dict[str, pd.DataFrame]:
    """Leakage-guarded train/dev/test split (driver-side).

    The input carries a deterministic ``_k`` rank key computed in Spark;
    the size-bounded sample is split here in pandas.  Eval triples whose
    head, tail, or relation never occurs in train are demoted to train
    (standard KGC protocol — no unseen-entity evaluation), so eval
    splits may come out slightly under target; measured sizes are what
    Table II reports.
    """
    df = sampled_pdf.sort_values(["_k", "h", "r", "t"]).reset_index(drop=True)
    n_eval = spec.n_dev + spec.n_test

    # Greedy scan in rank order: a row may go to eval only if all of its
    # h / t / r still occur ≥2 times among the not-yet-evaluated rows —
    # guaranteeing at least one training occurrence survives.
    from collections import Counter

    h_cnt = Counter(df["h"])
    t_cnt = Counter(df["t"])
    r_cnt = Counter(df["r"])
    eval_idx: List[int] = []
    for i, (h, r, t) in enumerate(df[["h", "r", "t"]].itertuples(index=False)):
        if len(eval_idx) >= n_eval:
            break
        if h_cnt[h] >= 2 and t_cnt[t] >= 2 and r_cnt[r] >= 2:
            eval_idx.append(i)
            h_cnt[h] -= 1
            t_cnt[t] -= 1
            r_cnt[r] -= 1
    eval_rows = df.iloc[eval_idx][["h", "r", "t"]]
    train = df.drop(index=eval_idx)[["h", "r", "t"]]
    dev = eval_rows.iloc[: spec.n_dev]
    test = eval_rows.iloc[spec.n_dev : spec.n_dev + spec.n_test]
    return {
        "train": train.reset_index(drop=True),
        "dev": dev.reset_index(drop=True),
        "test": test.reset_index(drop=True),
    }


def build_benchmark(
    kg: OpenBG,
    spec: BenchmarkSpec,
    r500: Optional[List[str]] = None,
    pool: Optional[DataFrame] = None,
) -> Benchmark:
    """Run all three stages + split for one benchmark spec.

    ``r500``: pass OpenBG500's refined relation list when building
    OpenBG-IMG so R_IMG ⊆ R500 (paper property).
    ``pool``: pre-built (cached) candidate pool — benchmarks over the
    same modality share it instead of rescanning the KG.  The caller
    keeps ownership of a pool it passes; one built here is released here.
    """
    seed = kg.cfg.derived_seed(f"bench-{spec.name}")
    spark = kg.triples.sparkSession
    own_pool = pool is None
    if own_pool:
        pool = business_triples(kg, spec.multimodal).coalesce(8).cache()
    relations = refine_relations(pool, spec.n_rel, within=r500)
    heads = filter_head_entities(pool, relations, spec, seed)
    sampled_pdf = (
        sample_triples(pool, relations, heads, spec, seed)
        .select("h", "r", "t")
        .withColumn("_k", _hash_frac3(seed + 13))
        .toPandas()
    )
    if own_pool:
        pool.unpersist()
    splits = split_benchmark(sampled_pdf, spec)

    if spec.multimodal:
        img_heads = set(kg.multimodal_products()["product_id"])
        a = pd.concat([splits["train"], splits["dev"], splits["test"]])
        ents = set(a["h"]) | set(a["t"])
        n_mm = len(ents & img_heads)
    else:
        n_mm = 0
    return Benchmark(
        spec=spec,
        train_pdf=splits["train"],
        dev_pdf=splits["dev"],
        test_pdf=splits["test"],
        relations=relations,
        multimodal_entities=n_mm,
        spark=spark,
    )


def build_all_benchmarks(kg: OpenBG, boost: float = 1.0) -> Dict[str, Benchmark]:
    """Build the three benchmarks with the R136 ⊆ R500 containment."""
    specs = default_specs(kg.cfg, boost=boost)
    pool = business_triples(kg, multimodal=False).coalesce(8).cache()
    pool_img = business_triples(kg, multimodal=True).coalesce(4).cache()
    bg500 = build_benchmark(kg, specs["OpenBG500"], pool=pool)
    img = build_benchmark(
        kg, specs["OpenBG-IMG"], r500=bg500.relations, pool=pool_img
    )
    bg500l = build_benchmark(kg, specs["OpenBG500-L"], pool=pool)
    pool.unpersist()
    pool_img.unpersist()
    return {"OpenBG-IMG": img, "OpenBG500": bg500, "OpenBG500-L": bg500l}
