"""Tests for the three-stage benchmark construction (Sec. III-A)."""
import pytest
import pyspark.sql.functions as F

from repro.benchmark import benchmark_stats, default_specs
from repro.benchmark.build import (
    build_all_benchmarks,
    build_benchmark,
    business_triples,
    refine_relations,
)
from repro.benchmark.stats import relation_distribution
from repro.core.config import TEST_CONFIG


def test_specs_scale_from_paper():
    specs = default_specs(TEST_CONFIG, boost=1.0)
    assert specs["OpenBG500"].n_rel == max(1, round(500 * TEST_CONFIG.rel_scale))
    assert specs["OpenBG-IMG"].multimodal
    assert specs["OpenBG500-L"].train_target > specs["OpenBG500"].train_target


def test_pool_excludes_labels_and_meta(kg):
    pool = business_triples(kg, multimodal=False)
    rels = {r["r"] for r in pool.select("r").distinct().collect()}
    assert "rdfs:label" not in rels and "rdf:type" not in rels
    assert all(not r.startswith("skos:") for r in rels)
    assert pool.filter(~F.col("h").startswith("prod:")).count() == 0


def test_multimodal_pool_heads_have_images(kg):
    pool = business_triples(kg, multimodal=True)
    img = set(kg.multimodal_products()["product_id"])
    heads = {r["h"] for r in pool.select("h").distinct().collect()}
    assert heads <= img


def test_refine_relations_by_frequency(kg):
    pool = business_triples(kg, multimodal=False)
    top5 = refine_relations(pool, 5)
    freq = {
        r["r"]: r["n"]
        for r in pool.groupBy("r").agg(F.count("*").alias("n")).collect()
    }
    assert len(top5) == 5
    floor = min(freq[r] for r in top5)
    assert all(freq[r] <= floor for r in freq if r not in top5)


def test_img_relations_subset_of_500(benches):
    """Paper property: R136 ⊆ R500."""
    assert set(benches["OpenBG-IMG"].relations) <= set(
        benches["OpenBG500"].relations
    )


def test_relation_counts_at_most_spec(benches):
    for name, b in benches.items():
        assert len(b.relations) <= b.spec.n_rel


def test_split_sizes_ordered(benches):
    """IMG < 500 < 500-L in train size, as in Table II."""
    s = {k: benchmark_stats(b) for k, b in benches.items()}
    assert s["OpenBG-IMG"]["n_train"] < s["OpenBG500"]["n_train"]
    assert s["OpenBG500"]["n_train"] <= s["OpenBG500-L"]["n_train"]
    assert s["OpenBG-IMG"]["n_ent"] < s["OpenBG500-L"]["n_ent"]


def test_splits_disjoint(benches):
    for b in benches.values():
        tr = b.train.select("h", "r", "t")
        for eval_split in (b.dev, b.test):
            assert tr.intersect(eval_split).count() == 0
        assert b.dev.intersect(b.test).count() == 0


def test_no_unseen_entities_in_eval(benches):
    """Leakage guard: every dev/test entity and relation occurs in train."""
    for b in benches.values():
        tr_e = set(
            r["e"]
            for r in b.train.select(F.col("h").alias("e"))
            .unionByName(b.train.select(F.col("t").alias("e")))
            .distinct()
            .collect()
        )
        tr_r = {r["r"] for r in b.train.select("r").distinct().collect()}
        for split in (b.dev, b.test):
            pdf = split.toPandas()
            assert pdf["h"].isin(tr_e).all()
            assert pdf["t"].isin(tr_e).all()
            assert pdf["r"].isin(tr_r).all()


def test_eval_sizes_close_to_spec(benches):
    for b in benches.values():
        st = benchmark_stats(b)
        assert st["n_dev"] <= b.spec.n_dev
        assert st["n_test"] <= b.spec.n_test
        assert st["n_dev"] >= 1 and st["n_test"] >= 1


def test_img_multimodal_entity_fraction(benches):
    """IMG benchmark has a substantial multimodal entity share (~53% in
    the paper; heads are image products by construction here)."""
    st = benchmark_stats(benches["OpenBG-IMG"])
    assert 0 < st["n_ent_multimodal"] <= st["n_ent"]
    assert st["n_ent_multimodal"] / st["n_ent"] > 0.1


def test_benchmark_relation_distribution_long_tail(benches):
    dist = relation_distribution(benches["OpenBG500"])
    assert dist["n"].iloc[0] > dist["n"].median() * 3


def test_benchmark_deterministic(kg, benches):
    b2 = build_benchmark(kg, benches["OpenBG500"].spec)
    assert b2.train.count() == benches["OpenBG500"].train.count()
    assert b2.relations == benches["OpenBG500"].relations


def test_benchmarks_release_their_pools(spark, kg):
    before = spark.sparkContext._jsc.getPersistentRDDs().size()
    for _ in range(3):
        build_all_benchmarks(kg, boost=3.0)
    assert spark.sparkContext._jsc.getPersistentRDDs().size() == before


def test_entity_budget_respected(benches):
    """Entity counts land within a sane factor of the spec target."""
    for b in benches.values():
        n_ent = b.entity_count()
        assert n_ent <= b.spec.ent_target * 40  # tails add entities
        assert n_ent > 0
