"""Shared expensive fixtures: the assembled test-scale KG and benchmarks."""
import pytest

from repro.construction.assemble import build_world
from repro.core.config import TEST_CONFIG


@pytest.fixture(scope="session")
def kg(spark):
    """One assembled OpenBG at test scale, shared across the session."""
    kg = build_world(spark, TEST_CONFIG)
    kg.triples.cache().count()
    return kg


@pytest.fixture(scope="session")
def benches(kg):
    """The three constructed benchmarks (boosted ×3 for usable sizes)."""
    from repro.benchmark.build import build_all_benchmarks

    return build_all_benchmarks(kg, boost=3.0)


@pytest.fixture(scope="session")
def kg_mid(spark):
    """A mid-scale world (1e-3) — rich enough for downstream tasks."""
    from repro.core.config import BENCH_CONFIG

    kg = build_world(spark, BENCH_CONFIG)
    kg.triples.cache().count()
    return kg


@pytest.fixture(scope="session")
def reviews_mid(kg_mid):
    from repro.core.config import BENCH_CONFIG
    from repro.corpus import generate_reviews

    return generate_reviews(kg_mid.onto, kg_mid.catalog, BENCH_CONFIG)


@pytest.fixture(scope="session")
def grid_mid(spark, kg_mid, reviews_mid):
    """Foundation-model grid over the mid-scale world (subset of names
    is selected inside each test to keep runtimes sane)."""
    from repro.pretrain.model import model_grid

    return model_grid(spark, kg_mid, reviews_mid)
