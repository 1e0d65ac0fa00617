"""Run every table harness and write EXPERIMENTS.md (paper vs measured).

One shared ExperimentContext keeps the two worlds (BENCH_CONFIG for
Tables I–II, EXP_CONFIG for Tables III–VII), the benchmarks, and the
model grid alive across tables.

Usage: python jobs/make_experiments_md.py [output_path]
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.session import get_spark  # noqa: E402

PREAMBLE = """# EXPERIMENTS — paper vs measured

Generated by `jobs/make_experiments_md.py`. Every table pairs the
paper's published numbers with ours, measured on the synthetic scaled
world (see DESIGN.md for the substitution table and the scaling model).

Scales: Tables I–II at `scale=1e-3` (KG volumes = paper × 1e-3,
relation-type counts = paper × 0.1); Tables III–VII on one shared world
at `scale=5e-3` with benchmark extraction boosted ×4 so the scaled-down
KGE datasets remain trainable. Absolute numbers are NOT expected to
match the paper (different substrate, ~1000× smaller data, tiny
models); the *shape* — which method wins, roughly by how much, where
the KG helps most — is the reproduction target. Shape notes follow
each table.
"""


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    spark = get_spark("experiments")
    from repro.tables import table1, table2, table3, table4, table5, table6, table7
    from repro.tables.context import ExperimentContext, df_to_markdown

    ctx = ExperimentContext(spark)
    sections = [PREAMBLE]

    def add(title, df, note=""):
        sections.append(f"\n## {title}\n\n" + df_to_markdown(df) + ("\n\n" + note if note else ""))
        print(f"[done] {title}", flush=True)

    t0 = time.time()
    res1 = table1.run(ctx)
    add("Table I — OpenBG statistics (overall)", table1.overall_rows(res1))
    add("Table I — taxonomies (per-level counts)", table1.taxonomy_rows(res1))
    add(
        "Table I — relation-instance counts",
        table1.relation_rows(res1),
        "Shape notes: inMarket* dominates (as in the paper); rdf:type ≡ "
        "#entities holds by construction; high-rate concept relations "
        "(relatedScene) undershoot their scaled target because scaled-down "
        "concept vocabularies saturate (documented in DESIGN.md).",
    )
    add("Table II — benchmark statistics", table2.run(ctx),
        "Shape notes: IMG < 500 < 500-L on every volume dimension, "
        "R_IMG ⊆ R500, long-tail relation distributions (Fig. 5).")
    add("Table III — link prediction on OpenBG-IMG", table3.run(ctx))
    add("Table IV — link prediction on OpenBG500 / 500-L", table4.run(ctx),
        "Cells the paper leaves '-' (compute budget) keep the same roster here.")
    add("Table V — downstream tasks (full resource)", table5.run(ctx))
    add("Table VI — low-resource category prediction", table6.run(ctx))
    add("Table VII — low-resource NER for titles", table7.run(ctx))
    sections.append(f"\n\n_Total runtime: {time.time() - t0:.0f}s_\n")

    with open(out_path, "w") as f:
        f.write("\n".join(sections))
    print(f"wrote {out_path}")
    spark.stop()


if __name__ == "__main__":
    main()
