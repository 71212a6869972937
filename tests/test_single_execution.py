"""Pin the single-execution contract of the driver-side collect and the
bucketed joins.

Ray's Dataset.to_arrow_refs() executes the plan and then calls
schema(fetch_if_missing=True), which re-executes a non-materialized
lineage a second time (ray 2.49 dataset.py:5834-5840) — and a
ds.schema() probe on a side that sits downstream of an all-to-all
executes that whole upstream just for the column names. These tests
count StreamingExecutor.execute calls so a regression to either
double-execution pattern fails loudly instead of silently doubling the
cost of every aggregate/join.
"""
import contextlib

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd


@contextlib.contextmanager
def _count_execs():
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    calls = []
    orig = StreamingExecutor.execute

    def traced(self, dag, *a, **k):
        calls.append(str(dag))
        return orig(self, dag, *a, **k)

    StreamingExecutor.execute = traced
    try:
        yield calls
    finally:
        StreamingExecutor.execute = orig


def test_collect_table_executes_once(ray_session):
    from simplefeatures_ray.functions.relational import collect_table

    ds = rd.from_arrow(pa.table({"k": np.arange(100, dtype=np.int64)}))
    ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
    with _count_execs() as calls:
        out = collect_table(ds)
    assert out.num_rows == 100
    assert len(calls) == 1, f"collect_table ran {len(calls)} executions"


def test_collect_table_empty_keeps_schema(ray_session):
    from simplefeatures_ray.functions.relational import collect_table

    ds = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                 "v": pa.array(["a", "b"], pa.string())}))
    ds = ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    out = collect_table(ds)
    assert out.num_rows == 0
    assert out.schema.names == ["k", "v"]
    assert out.schema.types == [pa.int64(), pa.string()]


def test_bucketed_join_hints_skip_probe(ray_session):
    """A join whose right side is downstream of a shuffle must not
    execute either side for a schema probe: each side's lineage runs
    exactly ONCE."""
    from simplefeatures_ray.functions.agg import grouped_agg
    from simplefeatures_ray.functions.relational import bucketed_join

    def left_side(t: pa.Table) -> pa.Table:
        return t

    def right_side(t: pa.Table) -> pa.Table:
        return t

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2, 3], pa.int64()),
        "x": pa.array([10.0, 11.0, 12.0, 13.0])})
    ).map_batches(left_side, batch_format="pyarrow")
    right_src = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 4], pa.int64()),
        "v": pa.array([5, 6, 7, 8], pa.int64())}))
    # right side downstream of a SHUFFLE (the expensive-probe shape)
    right = grouped_agg(right_src, "k", {"v": ("v", "sum")},
                        combine="shuffle").map_batches(right_side,
                                                       batch_format="pyarrow")
    with _count_execs() as calls:
        j = bucketed_join(left, right, key="k", n_buckets=4)
        got = sorted(map(tuple, (r.values() for r in j.take_all())))
    # the hash_exchange consume of the materialized reduce refs is a
    # trivial InputDataBuffer-only plan; the guarded regression is an
    # UPSTREAM lineage (a side's maps) running twice
    heavy = [c for c in calls if "MapBatches" in c or "Sort" in c]
    assert sorted(heavy) == [
        "TaskPoolMapOperator[MapBatches(left_side)]",
        "TaskPoolMapOperator[MapBatches(right_side)]"], calls
    assert got == [(1, 10.0, 5), (1, 11.0, 5), (2, 12.0, 13)]


def test_bucketed_join_bucket_fn_group_complete(ray_session):
    """bucket_fn sees complete groups when the join key determines the
    group: a per-bucket aggregate equals the global aggregate."""
    from simplefeatures_ray.functions.relational import bucketed_join

    rng = np.random.default_rng(5)
    keys = rng.integers(0, 50, 500).astype(np.int64)
    vals = rng.random(500)
    left = rd.from_arrow(pa.table({"k": keys, "v": vals}))
    right = rd.from_arrow(pa.table({
        "k": np.arange(50, dtype=np.int64),
        "w": np.arange(50, dtype=np.int64) * 2}))

    def agg(t: pa.Table) -> pa.Table:
        g = t.group_by("k").aggregate([("v", "sum"), ("w", "max")])
        return g.rename_columns(["k", "v_sum", "w_max"])

    out = bucketed_join(left, right, key="k", n_buckets=8,
                        bucket_fn=agg)
    df = out.to_pandas().sort_values("k").reset_index(drop=True)
    import pandas as pd

    exp = (pd.DataFrame({"k": keys, "v": vals})
           .groupby("k")["v"].sum().reset_index(name="v_sum"))
    assert len(df) == len(exp)
    assert np.allclose(df["v_sum"].to_numpy(), exp["v_sum"].to_numpy())
    assert (df["w_max"].to_numpy() == df["k"].to_numpy() * 2).all()


def test_topk_explicit_ties_no_probe(ray_session):
    from simplefeatures_ray.functions.agg import grouped_agg
    from simplefeatures_ray.functions.relational import topk

    src = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 5, 6] * 10, pa.int64()),
        "v": pa.array(list(range(60)), pa.int64())}))
    agg = grouped_agg(src, "k", {"s": ("v", "sum")}, combine="shuffle")
    with _count_execs() as calls:
        top = topk(agg, "s", 2, descending=True, tie_cols=["k"])
        rows = top.take_all()
    assert len(calls) == 1, f"topk ran {len(calls)} executions"
    assert [r["k"] for r in rows] == [6, 5]


def test_flagship_job_two_executions(ray_session, tmp_path):
    """A flagship job (geotag_join_tiles + checkpointed_write) is two Ray
    Data executions: the upstream, which is the input's own operator
    chain with no engine map on top, drained once by the geotag-and-count
    wave of plain tasks, and the sink's map (assign -> Project), drained
    by the sink's exchange, which buckets the rows in its split tasks.
    No materialize() and no histogram execution."""
    from simplefeatures_ray.pipelines.geotag import geotag_join_tiles
    from simplefeatures_ray.sources.pages import pages_dataset
    from simplefeatures_ray.sources.polygons import make_polygons
    from simplefeatures_ray.state.checkpoint import checkpointed_write

    with _count_execs() as calls:
        out = geotag_join_tiles(pages_dataset(3000), make_polygons(64))
        manifest = checkpointed_write(out, str(tmp_path), partition_col="tile_id")
    assert manifest["total_rows"] > 0
    assert len(calls) == 2, calls
    assert "gen_pages_batch" in calls[0] and "geotag_block" not in calls[0], calls
    assert "assign_tiles_batch" in calls[1], calls
