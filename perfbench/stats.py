"""Summaries of repeated measurements, shared by ``run.py`` and ``report.py``."""
from __future__ import annotations

import statistics
from typing import List, Optional, Tuple


def tail_percentile(values: List[float]) -> Tuple[Optional[float], Optional[float]]:
    """The highest of p75/p90/p95/p99/p99.9 with at least ten samples
    beyond it, and its value; ``(None, None)`` with too few samples."""
    n = len(values)
    pct = next((p for p in (99.9, 99, 95, 90, 75) if n * (1 - p / 100) >= 10), None)
    if pct is None:
        return None, None
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return pct, cuts[int(pct * 10) - 1]


def summarize(values: List[float]) -> dict:
    """Median, tail percentile and sample count of one metric."""
    pct, pct_value = tail_percentile(values)
    return {"median": statistics.median(values), "pct": pct, "pct_value": pct_value,
            "n": len(values)}


def spread(values: List[float]) -> float:
    """Q3 − Q1 as a share of the median, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
