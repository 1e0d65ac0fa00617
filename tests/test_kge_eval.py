"""Tests for filtered evaluation: reference vs Spark-distributed parity."""
import numpy as np
import pandas as pd
import pytest

from repro.kge.data import KGEDataset
from repro.kge.evaluate import evaluate, evaluate_spark, ranks_numpy
from repro.kge.trans import TransE


def _toy_dataset(seed=0):
    g = np.random.default_rng(seed)
    h = g.integers(0, 29, 600)
    r = g.integers(0, 3, 600)
    t = h + (r + 1) * 3
    df = pd.DataFrame(
        {"h": [f"e{i}" for i in h], "r": [f"r{i}" for i in r], "t": [f"e{i}" for i in t]}
    ).drop_duplicates()
    n = len(df)
    return KGEDataset.from_frames(
        df.iloc[: n - 20], df.iloc[n - 20 : n - 10], df.iloc[n - 10 :]
    )


@pytest.fixture(scope="module")
def trained():
    data = _toy_dataset()
    model = TransE(data.n_ent, data.n_rel, seed=3).fit(data, epochs=20)
    return model, data


def test_spark_eval_matches_reference(spark, trained):
    """The mapInPandas ranker must agree with the numpy reference exactly."""
    model, data = trained
    ref = evaluate(model, data)
    dist = evaluate_spark(spark, model, data)
    assert dist == ref


def test_filtered_better_or_equal_raw(trained):
    """Filtering known triples can only improve (lower) ranks."""
    model, data = trained
    ranks = ranks_numpy(model, data, directions=("tail", "head"))
    # rebuild unfiltered ranks by scoring directly
    raw = []
    for h, r, t in data.test:
        s = model.score_candidates(h, r, tails=True)
        raw.append(1 + int(np.sum(s > s[t])))
        s = model.score_candidates(t, r, tails=False)
        raw.append(1 + int(np.sum(s > s[h])))
    assert (ranks <= np.array(raw)).all()


def test_direction_control():
    """tail-only = default (paper protocol); both doubles the rank count."""
    df = __import__("pandas").DataFrame(
        {"h": ["a", "b", "c", "a"], "r": ["r"] * 4, "t": ["b", "c", "a", "c"]}
    )
    data = KGEDataset.from_frames(df.iloc[:2], df.iloc[2:3], df.iloc[3:])
    m = TransE(data.n_ent, data.n_rel, seed=0)
    tails = ranks_numpy(m, data)
    both = ranks_numpy(m, data, directions=("tail", "head"))
    assert len(both) == 2 * len(tails)


def test_perfect_model_gets_rank_one():
    """A model that scores the gold triple maximally ranks it first."""
    df = pd.DataFrame(
        {"h": ["a", "b", "c", "a"], "r": ["r", "r", "r", "q"], "t": ["b", "c", "a", "c"]}
    )
    data = KGEDataset.from_frames(df.iloc[:2], df.iloc[2:3], df.iloc[3:])

    class Oracle(TransE):
        def score_candidates(self, h, r, tails=True):
            s = np.full(self.n_ent, -10.0)
            for (hh, rr, tt) in data.known:
                if tails and hh == h and rr == r:
                    s[tt] = 10.0
                if not tails and tt == h and rr == r:
                    s[hh] = 10.0
            return s

    m = Oracle(data.n_ent, data.n_rel)
    res = evaluate(m, data)
    assert res["hits1"] == 1.0 and res["mr"] == 1.0


def test_dev_and_test_splits_evaluable(trained):
    model, data = trained
    for split in ("dev", "test"):
        res = evaluate(model, data, split=split)
        assert set(res) == {"hits1", "hits3", "hits10", "mr", "mrr"}
        assert res["hits1"] <= res["hits3"] <= res["hits10"]
        assert res["mr"] >= 1.0 and 0 <= res["mrr"] <= 1.0
