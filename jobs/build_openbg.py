"""Build the full (scaled) OpenBG and print its Table-I statistics.

Usage: python jobs/build_openbg.py [scale] [rel_scale]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.session import get_spark  # noqa: E402


def main() -> None:
    from repro.construction import stats
    from repro.construction.assemble import build_world
    from repro.core.config import BENCH_CONFIG, ScaledConfig

    scale = float(sys.argv[1]) if len(sys.argv) > 1 else BENCH_CONFIG.scale
    rel_scale = float(sys.argv[2]) if len(sys.argv) > 2 else BENCH_CONFIG.rel_scale
    spark = get_spark("build-openbg")
    kg = build_world(spark, ScaledConfig(scale=scale, rel_scale=rel_scale))
    kg.triples.cache()
    print("overall:", stats.overall_stats(kg))
    print("relations:", stats.relation_stats(kg))
    print("kinds:", stats.kind_stats(kg))
    spark.stop()


if __name__ == "__main__":
    main()
