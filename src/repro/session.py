"""The one SparkSession bootstrap for tests and jobs.

Every output of the pipeline is a function of ``ScaledConfig`` alone, so
nothing set here may change a result: ``tests/test_session_invariance.py``
checks that the KG, the benchmark splits and a TransE ranking are
identical under ``local[1]`` with one shuffle partition and ``local[4]``
with 64.  Only the master (``SPARK_MASTER``, default ``local[*]``) and the
driver heap (:func:`driver_memory`) come from the environment; the rest
is fixed.

Broadcast joins are off so the shuffle-join path is the one exercised at
test scale; a query that wants a broadcast join asks for it explicitly.
"""
from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Optional

from pyspark.sql import SparkSession

#: The test-scale data is tiny, and more partitions are only task overhead.
SHUFFLE_PARTITIONS = 8

#: cgroup v2 and v1 memory limits, tried in order.
CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",
)


def driver_memory(
    override: Optional[str],
    cgroup_limits: Iterable[Optional[str]],
    phys_bytes: int,
) -> str:
    """The driver JVM heap, as a ``--driver-memory`` value.

    ``override`` (``SPARK_DRIVER_MEM``) wins.  Otherwise 75 % of the first
    bounded cgroup limit: one that parses as bytes and is at most physical
    memory, which rules out v2's ``max`` and v1's ~9.2e18 "unlimited"
    sentinel.  Otherwise half of physical memory, clamped to 2–8g and
    never above physical memory.
    """
    if override:
        return override
    gib = 1 << 30
    for raw in cgroup_limits:
        try:
            limit = int(raw)
        except (TypeError, ValueError):
            continue
        if 0 < limit <= phys_bytes:
            return f"{max(1, limit * 3 // 4 // gib)}g"
    phys = phys_bytes // gib
    return f"{max(1, min(phys, 8, max(2, phys // 2)))}g"


def _read(path: str) -> Optional[str]:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def get_spark(app: str) -> SparkSession:
    """The process's SparkSession, started on first call.

    Master and driver memory are read when the JVM launches, so they go
    into ``PYSPARK_SUBMIT_ARGS`` here.  ``src/`` is put on the Python
    workers' ``PYTHONPATH`` so they import the same ``repro`` as the
    driver, installed or not.
    """
    src = str(Path(__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH", "")
    if src not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, path) if p)
    mem = driver_memory(
        os.environ.get("SPARK_DRIVER_MEM"),
        [_read(p) for p in CGROUP_LIMITS],
        os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {mem} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
