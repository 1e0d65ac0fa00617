import sys

import pytest
from pyspark.sql import SparkSession

from repro.session import get_spark


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One SparkSession from :func:`repro.session.get_spark` for the whole
    test session."""
    s = get_spark("repro")
    # one line in the test log that shows which JVM the tests ran on
    conf = s.sparkContext.getConf()
    print(
        f"[conftest] master={s.sparkContext.master} "
        f"driver.memory={conf.get('spark.driver.memory', '?')} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
