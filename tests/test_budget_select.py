"""budget_select: distributed sorted prefix-sum budget fill vs brute force.

The operator relies on iter_internal_ref_bundles() preserving the global
sort order of the range-partitioned blocks — these tests pin that against
a driver-side window-function reference at several parallelism levels.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from simplefeatures_ray.functions.relational import budget_select


def brute(ids, scores, costs, budget):
    order = np.lexsort((ids, -scores))
    run = np.cumsum(costs[order])
    picked = np.zeros(len(ids), dtype=bool)
    picked[order] = run <= budget
    return picked


def make(n, seed):
    rng = np.random.default_rng(seed)
    ids = np.arange(n, dtype=np.int64)
    scores = rng.integers(0, 50, n)  # heavy ties -> id tiebreak matters
    costs = rng.integers(1, 30, n)
    return ids, scores, costs


@pytest.mark.parametrize("parts", [1, 3, 8])
@pytest.mark.parametrize("budget", [0, 137, 10_000, 10**9])
def test_vs_brute(ray_session, parts, budget):
    ids, scores, costs = make(400, 11)
    tbl = pa.table({"doc_id": pa.array(ids), "score": pa.array(scores),
                    "cost": pa.array(costs)})
    out = budget_select(rd.from_arrow(tbl).repartition(parts),
                        score_col="score", cost_col="cost",
                        budget=budget).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    want = brute(ids, scores, costs, budget)
    assert (out["picked"].to_numpy() == want).all()
    # prefix semantics: picked rows' total cost is within budget and the
    # first unpicked row in rank order would overflow it
    assert int(out.loc[out.picked, "cost"].sum()) <= budget


def test_overflow_row_blocks_suffix(ray_session):
    # a huge-cost row ranked in the middle blocks everything after it
    tbl = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                    "score": pa.array([30, 20, 10], pa.int64()),
                    "cost": pa.array([5, 100, 1], pa.int64())})
    out = budget_select(rd.from_arrow(tbl).repartition(3),
                        score_col="score", cost_col="cost", budget=10) \
        .to_pandas().sort_values("doc_id")
    # prefix rule: doc 3's running sum includes doc 2's unpicked 100
    assert out["picked"].tolist() == [True, False, False]


def test_ascending_mode(ray_session):
    tbl = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                    "score": pa.array([9, 1, 5], pa.int64()),
                    "cost": pa.array([4, 4, 4], pa.int64())})
    out = budget_select(rd.from_arrow(tbl), score_col="score",
                        cost_col="cost", budget=8, descending=False) \
        .to_pandas().sort_values("doc_id")
    assert out["picked"].tolist() == [False, True, True]


def test_out_of_order_blocks_fail_loudly(ray_session, monkeypatch):
    """The per-block offsets are only right if iter_internal_ref_bundles
    yields the sorted blocks in rank order. If it ever does not,
    budget_select must raise rather than flag the wrong rows."""
    from types import SimpleNamespace

    ids, scores, costs = make(400, 11)
    tbl = pa.table({"doc_id": pa.array(ids), "score": pa.array(scores),
                    "cost": pa.array(costs)})
    orig = rd.Dataset.iter_internal_ref_bundles

    def reversed_blocks(self):
        refs = [r for b in orig(self) for r in b.block_refs]
        return [SimpleNamespace(block_refs=[r]) for r in reversed(refs)]

    monkeypatch.setattr(rd.Dataset, "iter_internal_ref_bundles", reversed_blocks)
    with pytest.raises(RuntimeError, match="out of rank order"):
        budget_select(rd.from_arrow(tbl).repartition(3), score_col="score",
                      cost_col="cost", budget=137).to_pandas()
