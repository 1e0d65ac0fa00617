"""The benchmark's two workloads and the metrics they report.

Each workload is one stage of the OpenBG pipeline, driven as a closed
loop with one client: a pass of the timed section starts only after the
previous pass has finished and been reset.  The program sees only a
``ScaledConfig(..., seed=seed)``; every input is derived from the seed.

- ``kg-build``   construction: ``build_world`` → cache + count → Table I.
- ``linkpred``   benchmark sampling → KGE dataset → TransE/DistMult
                 fits → Spark-distributed filtered ranking.  A traced
                 run then also runs the downstream stage, untraced and
                 then traced: foundation-model grid → the five task heads.

See ``perfbench/README.md`` for why each workload exists and which
layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import collections
import contextlib
import dataclasses
import importlib
import math
import pickle
import resource
import statistics
import time
import traceback
from typing import Dict, List

import numpy as np
import pandas as pd

import repro.benchmark.build as bench_build
import repro.construction.assemble as assemble
import repro.construction.stats as con_stats
import repro.corpus as corpus
import repro.kge.base as kge_base
import repro.ontology as ontology
import repro.pretrain.model as pretrain_model
from repro.construction.schema_mapping import (
    LINK_SCHEMA,
    build_matcher,
    link_surfaces,
    linking_quality,
)
from repro.construction.tagger import PerceptronTagger
from repro.core import schema as S
from repro.core.config import ScaledConfig
from repro.downstream import category_pred, ie_reviews, ner_titles, salience, summarization
from repro.downstream.classifier import SoftmaxClassifier
from repro.kge.bilinear import DistMult
from repro.kge.data import KGEDataset
from repro.kge.trans import TransE
from repro.pretrain.features import TokenEmbeddings

from perfbench.stats import summarize

# ``repro.kge`` re-exports a function named ``evaluate`` over its submodule
kge_evaluate = importlib.import_module("repro.kge.evaluate")

#: Repo floors for schema-mapping quality (tests/test_schema_mapping.py).
LINK_PRECISION_FLOOR = 0.95
LINK_RECALL_FLOOR = 0.90


class Workload:
    """One workload: inputs from the seed, a timed pass, checks, metrics.

    Subclasses set the sizes and implement ``prepare`` (build the timed
    section's inputs; repeated to measure set-up), ``iterate`` (one pass
    of the timed section), ``reset`` (restore the state a pass starts
    from, untimed) and ``check``.
    """

    name = ""
    scale = 1e-4
    rel_scale = 0.1
    setup_reps = 3
    #: untimed passes before the timed ones (JIT, Python workers, codegen)
    warmup_passes = 2

    def __init__(self, spark, seed: int, tracer):
        self.spark = spark
        self.seed = seed
        self.tracer = tracer
        self.cfg = ScaledConfig(scale=self.scale, rel_scale=self.rel_scale, seed=seed)
        self.attempted = 0
        self.phases: Dict[str, float] = collections.defaultdict(float)

    @contextlib.contextmanager
    def stage(self, name: str):
        """One stage call of the timed section: an op, a phase and a span
        (yields the span's counts)."""
        self.attempted += 1
        t0 = time.perf_counter()
        with self.tracer.span(name) as counts:
            yield counts
        self.phases[name] += time.perf_counter() - t0

    def prepare(self) -> None:
        pass

    def reset(self) -> None:
        self.spark.catalog.clearCache()

    def iterate(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> List[tuple]:
        raise NotImplementedError

    def wrappers(self) -> list:
        """Span wrappers installed around program functions when traced:
        (owner, attribute, span name, counts from (args, kwargs, result))."""
        return [
            (ontology, "build_core_ontology", "ontology.build", None),
            (corpus, "generate_catalog", "corpus.catalog",
             lambda a, k, out: {"products": out.n_products}),
            (assemble, "assemble_openbg", "assemble.eager", None),
        ]

    def probe(self) -> List[tuple]:
        """Traced-only measurements that are too costly for every run;
        returns their checks."""
        return []


# ---------------------------------------------------------------------------
# kg-build
# ---------------------------------------------------------------------------

def _relation_recount_sql() -> str:
    return (
        "SELECT CASE WHEN starts_with(r, 'inMarket:') THEN 'inMarket*' "
        "WHEN starts_with(r, 'attr:') THEN 'productAttributes' ELSE r END AS rel, "
        "COUNT(*) AS n FROM t GROUP BY 1"
    )


class KgBuild(Workload):
    name = "kg-build"
    setup_reps = 1  # the timed section's only input is the config
    # Its passes are short and Spark-bound; the JVM's JIT compiler kept
    # cutting the CPU time of a pass for its first ten or so (from 10 s
    # of CPU in the second pass to 4 s in the tenth, then flat).
    warmup_passes = 6

    def iterate(self) -> dict:
        with self.stage("kg.build"):
            kg = assemble.build_world(self.spark, self.cfg)
        with self.stage("assemble.materialize") as counts:
            n = kg.triples.cache().count()
            counts["triples"] = n
        with self.stage("stats.table1"):
            overall = con_stats.overall_stats(kg)
            relations = con_stats.relation_stats(kg)
            kinds = con_stats.kind_stats(kg)
            taxonomy = con_stats.taxonomy_stats(kg)["all"].tolist()
        self.kg = kg
        return {
            "signature": {"n": n, "overall": overall, "relations": relations,
                          "kinds": kinds, "taxonomy": taxonomy},
            "work": n,
        }

    def check(self, out: dict) -> List[tuple]:
        import duckdb

        sig = out["signature"]
        pdf = self.kg.triples.toPandas()
        con = duckdb.connect()
        try:
            con.register("t", pdf)
            rel = dict(con.execute(_relation_recount_sql()).fetchall())
            kinds = dict(con.execute(
                "SELECT rel_kind, COUNT(*) FROM t GROUP BY 1").fetchall())
            n_all, n_ent = con.execute(
                "SELECT COUNT(*), COUNT(DISTINCT h) FILTER (WHERE r = 'rdf:type') FROM t"
            ).fetchone()
        finally:
            con.close()
        checks = [
            ("table1.relations == duckdb", rel == sig["relations"], ""),
            ("table1.kinds == duckdb", kinds == sig["kinds"], ""),
            ("table1.triples == duckdb",
             n_all == sig["n"] == sig["overall"]["n_triples"], f"{n_all} vs {sig['n']}"),
            ("table1.entities == duckdb", n_ent == sig["overall"]["n_entities"], ""),
            ("rdf:type == entities",
             sig["relations"].get(S.RDF_TYPE) == sig["overall"]["n_entities"], ""),
        ]
        checks += self._linking_checks()
        return checks

    def _linking_checks(self) -> List[tuple]:
        """Link the catalogue's Brand and Place surfaces and score them
        against generator ground truth (traced as ``schema_mapping.link``)."""
        kg = self.kg
        forms = corpus.build_surface_forms(kg.onto)
        products = kg.catalog.products
        prod_sdf = self.spark.createDataFrame(
            products[["product_id", "brand_surface", "place_surface"]]
        )
        checks = []
        for which, col in (("Brand", "brand_surface"), ("Place", "place_surface")):
            matcher = build_matcher(forms, which)
            with self.tracer.span("schema_mapping.link") as counts:
                links = link_surfaces(self.spark, prod_sdf, matcher, col).toPandas()
                method = links["method"]
                has_surface = links["surface"].fillna("") != ""
                fuzzy = int((method == "fuzzy").sum())
                miss = int((has_surface & method.isna()).sum())
                counts.update(
                    surfaces=int(has_surface.sum()),
                    vocab=len(matcher.entries),
                    precise=int((method == "precise").sum()),
                    synonym=int((method == "synonym").sum()),
                    fuzzy=fuzzy,
                    miss=miss,
                    fuzzy_stage=fuzzy + miss,  # strings that reached the fuzzy stage
                )
            q = linking_quality(
                self.spark.createDataFrame(links, schema=LINK_SCHEMA), products, which
            )
            checks.append((
                f"linking.{which} above floors",
                q["precision"] >= LINK_PRECISION_FLOOR and q["recall"] >= LINK_RECALL_FLOOR,
                f"precision {q['precision']:.4f} recall {q['recall']:.4f}",
            ))
        return checks

    def workload_metrics(self, iters: List[dict]) -> Dict[str, tuple]:
        return {"kg_triples_per_s": ([i["work"] / i["wall_s"] for i in iters], "1/s")}


# ---------------------------------------------------------------------------
# linkpred
# ---------------------------------------------------------------------------

class LinkPred(Workload):
    name = "linkpred"
    boost = 3.0
    #: Table IV OpenBG500-L budget with a fixed epoch count.
    budget = dict(epochs=3, batch_size=1024, neg_k=2)
    dim = 32
    n_queries = 3000
    n_checked = 200

    def prepare(self) -> None:
        # release the previous repetition's cache and local checkpoint, so
        # every repetition starts from the same block-manager state
        self.spark.catalog.clearCache()
        for rdd in self.spark.sparkContext._jsc.getPersistentRDDs().values():
            rdd.unpersist(True)
        kg = assemble.build_world(self.spark, self.cfg)
        # cut the lineage so a reset can re-cache the KG without rebuilding it
        triples = kg.triples.localCheckpoint(eager=True)
        self.kg = dataclasses.replace(kg, triples=triples)
        self.reset()

    def reset(self) -> None:
        self.spark.catalog.clearCache()
        self.kg.triples.cache().count()

    def iterate(self) -> dict:
        with self.stage("benchmark.sample"):
            benches = bench_build.build_all_benchmarks(self.kg, boost=self.boost)
        with self.stage("kge.dataset"):
            data = KGEDataset.from_benchmark(benches["OpenBG500-L"])
        g = np.random.default_rng(self.cfg.derived_seed("perfbench-queries"))
        pick = g.choice(len(data.train), min(self.n_queries, len(data.train)), replace=False)
        queries = dataclasses.replace(data, test=data.train[np.sort(pick)])
        models, mrr = [], {}
        for cls in (TransE, DistMult):
            model = cls(data.n_ent, data.n_rel, dim=self.dim, seed=0)
            with self.stage("kge.fit"):
                model.fit(data, **self.budget)
            with self.stage("kge.rank"):
                res = kge_evaluate.evaluate_spark(self.spark, model, queries, split="test")
            models.append(model)
            mrr[cls.name] = res["mrr"]
        self.benches, self.queries, self.models = benches, queries, models
        sizes = {
            name: (len(b.train_pdf), len(b.dev_pdf), len(b.test_pdf), len(b.relations))
            for name, b in benches.items()
        }
        return {
            "signature": {"sizes": sizes, "mrr": mrr},
            "train_triples": len(data.train) * self.budget["epochs"] * len(models),
            "queries": len(queries.test) * len(models),
        }

    def wrappers(self) -> list:
        def split_counts(a, k, out):
            spec = a[1]
            return {
                "sampled_rows": len(a[0]),
                "eval_kept": len(out["dev"]) + len(out["test"]),
                "eval_target": spec.n_dev + spec.n_test,
            }

        return super().wrappers() + [
            (bench_build, "business_triples", "benchmark.pool", None),
            (bench_build, "refine_relations", "benchmark.refine", None),
            (bench_build, "filter_head_entities", "benchmark.head_filter", None),
            (bench_build, "sample_triples", "benchmark.tail_sample", None),
            (bench_build, "split_benchmark", "benchmark.split", split_counts),
            (kge_base, "negative_sample", "kge.negative_sample", None),
            (TransE, "train_step", "kge.TransE.train_step", None),
            (DistMult, "train_step", "kge.DistMult.train_step", None),
        ] + DOWNSTREAM_WRAPPERS

    def check(self, out: dict) -> List[tuple]:
        checks = []
        g = np.random.default_rng(self.cfg.derived_seed("perfbench-checked"))
        q = self.queries.test
        sub = dataclasses.replace(
            self.queries, test=q[np.sort(g.choice(len(q), min(self.n_checked, len(q)), replace=False))]
        )
        for model in self.models:
            with self.tracer.span("kge.rank_check") as counts:
                ref = kge_evaluate.metrics_from_ranks(
                    kge_evaluate.ranks_numpy(model, sub, split="test"))
                got = kge_evaluate.evaluate_spark(self.spark, model, sub, split="test")
                counts["ranks"] = len(sub.test)
            same = all(
                math.isclose(got[k], ref[k], rel_tol=1e-12, abs_tol=0.0) for k in ref
            )
            checks.append((f"evaluate_spark == ranks_numpy ({model.name})", same,
                           f"spark {got} numpy {ref}"))
        for name, b in self.benches.items():
            tr = b.train_pdf
            ents, rels = set(tr["h"]) | set(tr["t"]), set(tr["r"])
            ev = pd.concat([b.dev_pdf, b.test_pdf])
            ok = ev["h"].isin(ents).all() and ev["t"].isin(ents).all() and ev["r"].isin(rels).all()
            checks.append((f"{name} dev/test h, r, t occur in train", bool(ok), ""))
        checks.append((
            "R_IMG subset of R500",
            set(self.benches["OpenBG-IMG"].relations) <= set(self.benches["OpenBG500"].relations),
            "",
        ))
        return checks

    def probe(self) -> List[tuple]:
        by_hr, by_rt = self.queries.filtered_targets()
        filt = len(pickle.dumps(by_hr)) + len(pickle.dumps(by_rt))
        for model in self.models:
            with self.tracer.span("kge.broadcast") as counts:
                counts["mb"] = (len(pickle.dumps(model)) + filt) / 2**20
        # The downstream stage runs nowhere else: once untraced to warm it
        # up, then once traced.
        self.tracer.enabled = False
        checks = run_downstream(self)
        self.tracer.enabled = True
        return checks + run_downstream(self)

    def workload_metrics(self, iters: List[dict]) -> Dict[str, tuple]:
        return {
            "sample_s": ([i["phases"]["benchmark.sample"] for i in iters], "s"),
            "train_triples_per_s": (
                [i["train_triples"] / i["phases"]["kge.fit"] for i in iters], "1/s"),
            "rank_queries_per_s": (
                [i["queries"] / i["phases"]["kge.rank"] for i in iters], "1/s"),
        }


# ---------------------------------------------------------------------------
# downstream (in traced linkpred runs)
# ---------------------------------------------------------------------------

#: The two variants every task head is fine-tuned on.
VARIANTS = ("mPLUG-base", "mPLUG-base+KG")
#: example caps of the NER, summarization and IE heads (category uses all items)
DOWNSTREAM_CAPS = dict(ner=300, summarization=300, ie=300)

DOWNSTREAM_WRAPPERS = [
    (corpus, "generate_reviews", "corpus.reviews", None),
    (TokenEmbeddings, "train", "pretrain.embed_train",
     lambda a, k, out: {"key": f"{id(a[1])}:{k.get('dim')}:{k.get('seed')}"}),
    (pretrain_model.KGFeatures, "build", "pretrain.kg_features", None),
    (pretrain_model, "kmeans_clusters", "pretrain.kmeans", None),
    (PerceptronTagger, "fit", "downstream.tagger_fit", None),
    (SoftmaxClassifier, "fit", "downstream.classifier_fit", None),
]


def run_downstream(w: Workload) -> List[tuple]:
    """The KG-enhanced downstream stage on ``w.kg``: ``model_grid`` (9
    variants), then the five task heads with both ``VARIANTS``.  Stage
    calls count as ``w``'s ops; returns the stage's checks."""
    kg = w.kg
    reviews = corpus.generate_reviews(kg.onto, kg.catalog, w.cfg)
    ds = {
        "category": category_pred.build_dataset(kg),
        "ner": ner_titles.build_ner_dataset(kg)[: DOWNSTREAM_CAPS["ner"]],
        "summarization": summarization.build_dataset(kg).head(DOWNSTREAM_CAPS["summarization"]),
        "ie": reviews.head(DOWNSTREAM_CAPS["ie"]),
        "salience": salience.build_dataset(kg),
    }
    with w.stage("pretrain.grid"):
        grid = pretrain_model.model_grid(w.spark, kg, reviews)
    models = {n: grid[n] for n in VARIANTS}
    heads = {
        "category": lambda: category_pred.run_category_prediction(
            kg, models, dataset=ds["category"]),
        "ner": lambda: {k: v[2] for k, v in ner_titles.run_ner(
            kg, models, dataset=ds["ner"]).items()},
        "summarization": lambda: summarization.run_summarization(
            kg, models, dataset=ds["summarization"]),
        "ie": lambda: {k: v[2] for k, v in ie_reviews.run_ie(
            kg, models, ds["ie"]).items()},
        "salience": lambda: salience.run_salience(kg, models, dataset=ds["salience"]),
    }
    s = {}
    for task, head in heads.items():
        with w.stage(f"downstream.{task}") as counts:
            s[task] = head()
            counts["examples"] = len(ds[task]) * len(models)

    checks = []
    for task in ("category", "ner"):
        base, with_kg = s[task]["mPLUG-base"], s[task]["mPLUG-base+KG"]
        checks.append((f"{task}: +KG >= base", with_kg >= base,
                       f"{with_kg:.4f} vs {base:.4f}"))
    flat = [v for task in s.values() for v in task.values()]
    checks.append(("scores in [0, 1]", all(0.0 <= v <= 1.0 for v in flat), str(s)))
    # salience returns {} when its dataset is too small to split
    checks.append(("every task scored both variants",
                   all(set(t) == set(VARIANTS) or (task == "salience" and not t)
                       for task, t in s.items()), str(s)))
    return checks


WORKLOADS = {w.name: w for w in (KgBuild, LinkPred)}


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _time(name):
    """Total duration of the ``name`` spans of a pass."""
    return name, lambda ss: sum(s["dur_s"] for s in ss if s["name"] == name)


def _count(name, key=None, distinct=False):
    """Sum of ``counts[key]`` over the ``name`` spans of a pass; with no
    key, the number of such spans; with ``distinct``, of distinct values."""
    def f(ss):
        vals = [1 if key is None else s["counts"].get(key, 0)
                for s in ss if s["name"] == name]
        return len(set(vals)) if distinct else sum(vals)
    return name, f


def _ratio(num, den):
    """Quotient of two metrics of the same pass (0 when the denominator is)."""
    (name, f), (_, g) = num, den
    return name, lambda ss: f(ss) / g(ss) if g(ss) else 0.0


#: per-layer metric → (span that must occur in a pass, value from the pass's spans)
LAYER_METRICS: Dict[str, tuple] = {
    "ontology.build_s": _time("ontology.build"),
    "corpus.catalog_s": _time("corpus.catalog"),
    "corpus.reviews_s": _time("corpus.reviews"),
    "corpus.products": _count("corpus.catalog", "products"),
    "schema_mapping.link_s": _time("schema_mapping.link"),
    "schema_mapping.surfaces": _count("schema_mapping.link", "surfaces"),
    "schema_mapping.vocab": _count("schema_mapping.link", "vocab"),
    "schema_mapping.precise": _count("schema_mapping.link", "precise"),
    "schema_mapping.synonym": _count("schema_mapping.link", "synonym"),
    "schema_mapping.fuzzy": _count("schema_mapping.link", "fuzzy"),
    "schema_mapping.miss": _count("schema_mapping.link", "miss"),
    "schema_mapping.fuzzy_hit_ratio": _ratio(
        _count("schema_mapping.link", "fuzzy"),
        _count("schema_mapping.link", "fuzzy_stage"),
    ),
    "assemble.eager_s": _time("assemble.eager"),
    "assemble.materialize_s": _time("assemble.materialize"),
    "assemble.triples": _count("assemble.materialize", "triples"),
    "stats.table1_s": _time("stats.table1"),
    "benchmark.pool_s": _time("benchmark.pool"),
    "benchmark.refine_s": _time("benchmark.refine"),
    "benchmark.head_filter_s": _time("benchmark.head_filter"),
    "benchmark.tail_sample_s": _time("benchmark.tail_sample"),
    "benchmark.split_s": _time("benchmark.split"),
    "benchmark.sampled_rows": _count("benchmark.split", "sampled_rows"),
    "benchmark.eval_kept_ratio": _ratio(
        _count("benchmark.split", "eval_kept"),
        _count("benchmark.split", "eval_target"),
    ),
    "kge.dataset_s": _time("kge.dataset"),
    "kge.fit_s": _time("kge.fit"),
    "kge.negative_sample_s": _time("kge.negative_sample"),
    "kge.negative_sample_calls": _count("kge.negative_sample"),
    "kge.TransE.train_step_s": _time("kge.TransE.train_step"),
    "kge.DistMult.train_step_s": _time("kge.DistMult.train_step"),
    "kge.neg_share": _ratio(_time("kge.negative_sample"), _time("kge.fit")),
    "kge.rank_s": _time("kge.rank"),
    "kge.broadcast_mb": _count("kge.broadcast", "mb"),
    "kge.ranks_checked": _count("kge.rank_check", "ranks"),
    "pretrain.grid_s": _time("pretrain.grid"),
    "pretrain.embed_train_s": _time("pretrain.embed_train"),
    "pretrain.embed_train_calls": _count("pretrain.embed_train"),
    "pretrain.embed_distinct_ratio": _ratio(
        _count("pretrain.embed_train", "key", distinct=True),
        _count("pretrain.embed_train"),
    ),
    "pretrain.kg_features_s": _time("pretrain.kg_features"),
    "pretrain.kmeans_s": _time("pretrain.kmeans"),
    "downstream.category_s": _time("downstream.category"),
    "downstream.ner_s": _time("downstream.ner"),
    "downstream.summarization_s": _time("downstream.summarization"),
    "downstream.ie_s": _time("downstream.ie"),
    "downstream.salience_s": _time("downstream.salience"),
    "downstream.examples": ("downstream.category", lambda ss: sum(
        s["counts"].get("examples", 0) for s in ss if s["name"].startswith("downstream."))),
    "downstream.tagger_fit_s": _time("downstream.tagger_fit"),
    "downstream.classifier_fit_s": _time("downstream.classifier_fit"),
}

SPARK_METRICS = ("spark.jobs", "spark.tasks", "spark.executor_run_s",
                 "spark.executor_cpu_s", "spark.shuffle_write_mb",
                 "spark.shuffle_read_mb")


def layer_metrics(spans: List[dict], n_cores: int) -> Dict[str, float]:
    """Per-layer values: for each metric, the median over the passes in
    which its layer ran of that pass's value (0 if it never ran)."""
    by_pass: Dict[str, List[dict]] = collections.defaultdict(list)
    for s in spans:
        by_pass[s["pass"]].append(s)
    out: Dict[str, float] = {}
    for metric, (span_name, fn) in LAYER_METRICS.items():
        vals = []
        for ss in by_pass.values():
            if any(s["name"] == span_name for s in ss):
                vals.append(fn(ss))
        out[metric] = float(statistics.median(vals)) if vals else 0.0

    # Spark counters and core use over the timed passes' root spans
    roots = [s for s in spans if s["parent"] is None and s["name"] == "iteration"]
    for metric in SPARK_METRICS:
        field = metric.split(".", 1)[1]
        out[metric] = float(statistics.median(r["spark"][field] for r in roots))
    out["spark.core_busy_ratio"] = float(statistics.median(
        r["spark"]["executor_run_s"] / (r["dur_s"] * n_cores) for r in roots))
    return out


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------

def _same(a, b) -> bool:
    """Structural equality with a relative float tolerance of 1e-12."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
    return a == b


def run_workload(
    spark,
    tracer,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    spark_start_s: float = 0.0,
) -> dict:
    """Set up, warm up, measure for ``seconds``, check; return the result.

    Untraced runs install no wrappers.  Traced runs alternate traced and
    untraced passes (at least one of each), so tracing overhead is traced
    minus untraced pass time within one process.  The traced pass goes
    first, so warm-up left over after the warm-up pass counts against
    tracing, not for it.
    """
    w = WORKLOADS[name](spark, seed, tracer)
    failed = 0
    checks: List[tuple] = []
    iters: List[dict] = []
    traced_iters: List[dict] = []
    prep_s: List[float] = []
    warmup_s = 0.0

    def traced(pass_name: str, on: bool):
        """Context: tracing on (with wrappers) or off for one pass."""
        stack = contextlib.ExitStack()
        if on:
            stack.enter_context(tracer.patched(w.wrappers()))
            tracer.enabled, tracer.pass_name = True, pass_name
            stack.callback(setattr, tracer, "enabled", False)
            stack.enter_context(tracer.span(pass_name.split("-")[0]))
        return stack

    def one_pass(pass_name: str, on: bool) -> dict:
        w.reset()
        w.phases.clear()
        t0 = time.perf_counter()
        with traced(pass_name, on):
            out = w.iterate()
        out["wall_s"] = time.perf_counter() - t0
        out["phases"] = dict(w.phases)
        return out

    try:
        for rep in range(w.setup_reps):
            t0 = time.perf_counter()
            with traced(f"setup-{rep}", trace):
                w.prepare()
            prep_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        reference = one_pass("warmup", False)["signature"]
        for _ in range(w.warmup_passes - 1):
            checks.append(("warm-up pass output == first warm-up output",
                           _same(one_pass("warmup", False)["signature"], reference), ""))
        warmup_s = time.perf_counter() - t0

        t_start = time.perf_counter()
        k = 0
        while True:
            on = trace and k % 2 == 0
            out = one_pass(f"iteration-{k}", on)
            (traced_iters if on else iters).append(out)
            checks.append((f"pass {k} output == warm-up output",
                           _same(out["signature"], reference), ""))
            k += 1
            elapsed = time.perf_counter() - t_start
            need_more = trace and (not iters or not traced_iters)
            if not need_more and elapsed + out["wall_s"] > seconds:
                break

        with traced("probe", trace):
            checks += w.check(out)
            if trace:
                checks += w.probe()
    except Exception:  # one failed stage ends the run; it is counted, not hidden
        traceback.print_exc()
        failed += 1

    attempted = w.attempted + len(checks)
    for cname, ok, detail in checks:
        if not ok:
            failed += 1
            print(f"# CHECK FAILED: {cname} {detail}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "checks": [(c, bool(ok)) for c, ok, _ in checks],
    }
    if not iters:
        return result

    setup_s = spark_start_s + statistics.median(prep_s) + warmup_s
    result["end_to_end"] = {
        "setup_s": setup_s,
        "run_s": statistics.median(i["wall_s"] for i in iters),
        "py_peak_rss_mb": rss_mb,
    }
    wm = w.workload_metrics(iters)
    wm["run_s"] = ([i["wall_s"] for i in iters], "s")
    result["workload_metrics"] = {
        k: {**summarize(v), "unit": u} for k, (v, u) in wm.items()
    }
    result["report"] = {
        "spark_start_s": spark_start_s,
        "prep_s": prep_s,
        "warmup_s": warmup_s,
        "failed_ratio": f"{failed}/{attempted}",
    }
    if trace:
        spans = tracer.finish()
        n_cores = spark.sparkContext.defaultParallelism
        per_layer = layer_metrics(spans, n_cores)
        per_layer["trace.overhead_s"] = (
            statistics.median(i["wall_s"] for i in traced_iters)
            - statistics.median(i["wall_s"] for i in iters)
        )
        result["per_layer"] = per_layer
        result["spans"] = spans
    return result
