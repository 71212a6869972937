"""Round-3 late additions: funnel analysis, outer joins, rollup,
posting lists, fuzzy pairs, case folding, CSV source — all through
real Ray Data pipelines against hand-computed expectations."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_funnel_counts(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.windows import funnel_counts

    # user 1: view(10) click(20) purchase(30)  -> reaches all 3
    # user 2: click(5) view(10) click(9)       -> view only (no click AFTER)
    # user 3: view(10) click(10) purchase(40)  -> click at SAME us excluded
    # user 4: purchase(1) view(2) click(3)     -> view, click (no purchase after)
    # user 5: click(1) purchase(2)             -> nothing (never viewed)
    rows = [
        (1, 10, "view"), (1, 20, "click"), (1, 30, "purchase"),
        (2, 5, "click"), (2, 10, "view"), (2, 9, "click"),
        (3, 10, "view"), (3, 10, "click"), (3, 40, "purchase"),
        (4, 1, "purchase"), (4, 2, "view"), (4, 3, "click"),
        (5, 1, "click"), (5, 2, "purchase"),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })
    out = funnel_counts(rd.from_arrow(t), "user_id", "ts", "event_type",
                        ["view", "click", "purchase"])
    df = (out.to_pandas() if hasattr(out, "to_pandas") else out) \
        if isinstance(out, (pa.Table, pd.DataFrame)) else out.to_pandas()
    if isinstance(df, pa.Table):
        df = df.to_pandas()
    df = df.sort_values("stage_idx").reset_index(drop=True)
    assert df["stage"].tolist() == ["view", "click", "purchase"]
    assert df["n_users"].tolist() == [4, 2, 1]
    assert df["n_users"].dtype == np.int64


def _null_key_blocks():
    """Three 1100-row blocks of int64 keys {1, 7, 3}; only the first and
    third hold NULL keys, so some batches carry nulls and some do not."""
    import ray.data as rd

    tables = []
    for b in range(3):
        keys = [[1, 7, 3][i % 3] for i in range(1100)]
        if b != 1:
            keys = [None if i % 10 == 0 else k for i, k in enumerate(keys)]
        tables.append(pa.table({
            "k": pa.array(keys, pa.int64()),
            "v": pa.array(np.arange(1100, dtype=np.int64) + 10_000 * b),
            "size": pa.array(np.ones(1100, dtype=np.int64)),
        }))
    ds = rd.from_arrow(tables[0])
    for t in tables[1:]:
        ds = ds.union(rd.from_arrow(t))
    return ds, pa.concat_tables(tables).to_pandas()


@pytest.mark.parametrize("op", ["dedup_exact", "grouped_topk",
                                "pack_sequences", "grouped_agg"])
def test_dedup_exact_null_keys_and_dtype(ray_session, op):
    """Null-bearing int64 keys through every hash-partitioned kernel:
    (1) the key stays int64 in every output block (no silent int64 ->
    float64 block-schema change), (2) a key value present in both
    null-bearing and null-free blocks is ONE group (partitioning and
    grouping agree across batches), (3) all null keys are one group
    (SQL GROUP BY / DISTINCT semantics)."""
    from simplefeatures_ray.functions.agg import grouped_agg
    from simplefeatures_ray.functions.packing import pack_sequences
    from simplefeatures_ray.functions.relational import dedup_exact, grouped_topk

    ds, df = _null_key_blocks()
    run = {
        "dedup_exact": lambda: dedup_exact(ds, "k", keep_col="v"),
        "grouped_topk": lambda: grouped_topk(ds, "k", "v", k=1),
        "pack_sequences": lambda: pack_sequences(ds, "k", "v", "size", budget=2),
        "grouped_agg": lambda: grouped_agg(ds, "k", {"n": (None, "count")},
                                           combine="shuffle"),
    }[op]()
    blocks = [b for b in run.iter_batches(batch_format="pyarrow") if b.num_rows]
    for b in blocks:
        assert b.schema.field("k").type == pa.int64()
    got = pa.concat_tables(blocks).to_pandas()
    groups = df.groupby("k", dropna=False)
    if op == "pack_sequences":
        # budget 2 over unit sizes: a group's rows in v order get seq ids
        # 0, 0, 1, 1, ... — a split group would restart at 0
        assert len(got) == len(df)
        for key, sub in got.groupby("k", dropna=False):
            seq = sub.sort_values("v")["seq_id"].tolist()
            assert seq == [i // 2 for i in range(len(seq))], key
        return
    assert len(got) == 4 and got["k"].isna().sum() == 1
    assert sorted(got["k"].dropna().astype(int)) == [1, 3, 7]
    want = {"dedup_exact": groups["v"].min(), "grouped_topk": groups["v"].max(),
            "grouped_agg": groups.size()}[op]
    col = "n" if op == "grouped_agg" else "v"
    for key, val in zip(got["k"], got[col]):
        assert int(val) == int(want[np.nan if pd.isna(key) else key]), key


def test_bucketed_join_null_keys_all_types(ray_session):
    """Null join keys (int AND string) must not crash the bucket stage;
    inner join drops them, left outer keeps them unmatched — exactly
    pyarrow's reference join semantics. Also covers the all-null block
    (empty dictionary) and salted paths."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.relational import bucketed_join

    for typ in (pa.int64(), pa.string()):
        def mk(vals):
            return pa.array(
                [None if v is None else (f"k{v}" if typ == pa.string()
                                         else v) for v in vals], typ)
        lt = pa.table({"k": mk([1, None, 2, None, 3]),
                       "a": pa.array([10, 11, 12, 13, 14], pa.int64())})
        rt = pa.table({"k": mk([1, 1, None, 3]),
                       "b": pa.array([7, 8, 9, 6], pa.int64())})
        for jt in ("inner", "left outer"):
            for salts in (1, 2):
                got = bucketed_join(
                    rd.from_arrow(lt).repartition(3), rd.from_arrow(rt),
                    key="k", n_buckets=4, join_type=jt,
                    n_salts=salts).to_pandas()
                want = lt.join(rt, keys="k", join_type=jt).to_pandas()
                cols = list(got.columns)
                gs = got.sort_values(cols, na_position="last"
                                     ).reset_index(drop=True)
                ws = want[cols].sort_values(cols, na_position="last"
                                            ).reset_index(drop=True)
                pd.testing.assert_frame_equal(
                    gs.astype(object), ws.astype(object), check_dtype=False)
        # all-null key block on one side
        lt2 = pa.table({"k": mk([None, None]),
                        "a": pa.array([1, 2], pa.int64())})
        out = bucketed_join(rd.from_arrow(lt2), rd.from_arrow(rt),
                            key="k", n_buckets=4, join_type="left outer")
        assert out.count() == 2


def test_topk_deterministic_under_ties(ray_session):
    """Equal scores at the k-boundary must yield the same rows at any
    parallelism (total order via tie columns)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.relational import topk

    t = pa.table({"id": pa.array(np.arange(100), pa.int64()),
                  "score": pa.array(np.repeat([5.0, 3.0], 50))})
    outs = []
    for parts in (1, 4, 13):
        out = topk(rd.from_arrow(t).repartition(parts), "score", 10
                   ).to_pandas()
        outs.append(list(zip(out["score"], out["id"])))
    assert outs[0] == outs[1] == outs[2]
    assert [i for _, i in outs[0]] == list(range(10))  # ids 0..9 at 5.0


def test_grouped_topk_deterministic_under_ties(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.relational import grouped_topk

    t = pa.table({"g": pa.array(np.repeat([1, 2], 30), pa.int64()),
                  "id": pa.array(np.arange(60), pa.int64()),
                  "score": pa.array(np.tile([9.0, 9.0, 1.0], 20))})
    outs = []
    for parts in (1, 3, 11):
        out = grouped_topk(rd.from_arrow(t).repartition(parts),
                           "g", "score", 5).to_pandas()
        outs.append(sorted(map(tuple, out[["g", "id", "score"]].to_numpy())))
    assert outs[0] == outs[1] == outs[2]


def test_exact_stratified_split_proportions(ray_session):
    """Realized split sizes are exact per group (to integer rounding),
    and the assignment is identical at any parallelism."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.relational import exact_stratified_split

    t = pa.table({"g": pa.array(np.repeat(["a", "b", "c"], [100, 37, 5])),
                  "k": pa.array(np.arange(142), pa.int64())})
    outs = []
    for parts in (1, 7):
        df = exact_stratified_split(
            rd.from_arrow(t).repartition(parts), "g", "k",
            {"train": 80, "val": 10, "test": 10}).to_pandas()
        outs.append(df.sort_values("k").reset_index(drop=True))
    assert outs[0].equals(outs[1])
    sizes = outs[0].groupby(["g", "split"]).size()
    assert sizes[("a", "train")] == 80 and sizes[("a", "val")] == 10
    # group b (37): ranks 0..29 train (30), 30..33 val (4), rest test (3)
    assert sizes[("b", "train")] == 30 and sizes[("b", "val")] == 4
    assert sizes[("b", "test")] == 3


def test_grouped_nunique_null_semantics(ray_session):
    """NULL values don't count as distinct (COUNT(DISTINCT) semantics);
    null KEYS form their own group; cross-block duplicates collapse."""
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.relational import grouped_nunique

    t1 = pa.table({"g": pa.array([1, None, 2], pa.int64()),
                   "v": pa.array([5, 5, None], pa.int64())})
    t2 = pa.table({"g": pa.array([1, None, 2], pa.int64()),
                   "v": pa.array([5, 6, None], pa.int64())})
    out = grouped_nunique(rd.from_arrow(t1).union(rd.from_arrow(t2)),
                          "g", "v")
    tb = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow") if b.num_rows])
    got = dict(zip(tb["g"].to_pylist(), tb["n_distinct"].to_pylist()))
    # g=2's only value is NULL -> group absent entirely
    assert got == {1: 1, None: 2}
    assert tb.schema.field("g").type == pa.int64()
