"""Reproduce one of Tables I–VII: paper vs measured, markdown to stdout.

Usage: python jobs/table.py N      (N = 1 … 7)
"""
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

NUMERALS = ("I", "II", "III", "IV", "V", "VI", "VII")
USAGE = "usage: python jobs/table.py N   (N = 1 … 7)"


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in {str(i) for i in range(1, 8)}:
        print(USAGE, file=sys.stderr)
        return 2
    n = int(argv[0])
    from repro.session import get_spark
    from repro.tables.context import ExperimentContext, df_to_markdown

    table = importlib.import_module(f"repro.tables.table{n}")
    spark = get_spark(f"table{n}")
    res = table.run(ExperimentContext(spark))
    if n == 1:
        parts = [
            (" — Overall", table.overall_rows(res)),
            (" — Taxonomies", table.taxonomy_rows(res)),
            (" — Relations", table.relation_rows(res)),
        ]
    else:
        parts = [("", res)]
    print("\n\n".join(
        f"## Table {NUMERALS[n - 1]}{title}\n{df_to_markdown(df)}" for title, df in parts
    ))
    spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
