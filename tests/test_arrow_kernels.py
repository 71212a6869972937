"""The shuffle kernels are Arrow-only: no pandas bridge, no
groupby().map_groups, one key -> partition function."""
from __future__ import annotations

import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BANNED = re.compile(r"map_groups\(|_pdarrow|arrow_groups|hash_pandas_object"
                    r"|auto_concurrency")


def test_no_pandas_bridge_or_map_groups_in_engine():
    files = sorted((ROOT / "simplefeatures_ray").rglob("*.py"))
    files.append(ROOT / "__ray_entry__.py")
    hits = [f"{f.relative_to(ROOT)}:{i}: {line.strip()}"
            for f in files
            for i, line in enumerate(f.read_text().splitlines(), 1)
            if BANNED.search(line)]
    assert not hits, "\n".join(hits)


def test_key_partition_null_stable_and_multi_column():
    from simplefeatures_ray.functions.relational import key_partition

    with_nulls = pa.table({"a": pa.array([5, None, 9], pa.int64()),
                           "s": pa.array(["x", None, "y"])})
    no_nulls = pa.table({"a": pa.array([9, 5], pa.int64()),
                         "s": pa.array(["y", "x"])})
    for keys in (["a"], ["s"], ["a", "s"]):
        p1 = key_partition(with_nulls, keys, 16)
        p2 = key_partition(no_nulls, keys, 16)
        assert p1.dtype == np.int32 and ((p1 >= 0) & (p1 < 16)).all()
        assert p1[0] == p2[1] and p1[2] == p2[0]
    # a single integer key is its value mod n_parts; NULL goes to 0
    assert key_partition(with_nulls, ["a"], 4).tolist() == [1, 0, 1]


@pytest.mark.parametrize("case", ["heavy_hitters", "hll_distinct", "cms_counts",
                                  "quantiles_grouped", "quantiles", "ivf_topk"])
def test_zero_row_input_gives_the_duckdb_result(ray_session, case):
    """A typed input with no rows: each function returns what its DuckDB
    twin returns on the same table (names, types and rows), not a
    KeyError from a schema-less collected table."""
    import duckdb
    import ray.data as rd

    from simplefeatures_ray.functions.agg import exact_quantiles
    from simplefeatures_ray.functions.ann import ivf_topk
    from simplefeatures_ray.functions.relational import collect_table
    from simplefeatures_ray.functions.sketch import (
        cms_counts, cms_sql, heavy_hitters, hll_distinct, hll_sql)

    t = pa.table({"vec_id": pa.array([], pa.int64()), "g": pa.array([], pa.string()),
                  "x": pa.array([], pa.int64()),
                  "embedding": pa.array([], pa.list_(pa.float32()))})
    q = "quantile_disc(x, 0.5) AS q50, quantile_disc(x, 0.9) AS q90 FROM t"
    run, sql = {
        "heavy_hitters": (lambda ds: heavy_hitters(ds, "g", k=3, capacity=8),
                          "SELECT g AS value, COUNT(*) AS n FROM t WHERE g IS NOT NULL "
                          "GROUP BY g ORDER BY n DESC, value LIMIT 3"),
        "hll_distinct": (lambda ds: hll_distinct(ds, "g", "x"), hll_sql("t", "g", "x")),
        "cms_counts": (lambda ds: cms_counts(ds, "x", [1, 2]),
                       cms_sql("t", "x", "SELECT 1::BIGINT AS v UNION ALL SELECT 2::BIGINT")
                       + " ORDER BY x"),
        "quantiles_grouped": (lambda ds: exact_quantiles(ds, "x", [0.5, 0.9], "g"),
                              f"SELECT g, {q} GROUP BY g"),
        "quantiles": (lambda ds: exact_quantiles(ds, "x", [0.5, 0.9]), f"SELECT {q}"),
        "ivf_topk": (lambda ds: ivf_topk(ds, [0], np.ones((1, 4)), k=2, n_clusters=2,
                                         nprobe=1),
                     """WITH s AS (
                          SELECT 0::BIGINT AS query_id, vec_id,
                                 list_cosine_similarity(
                                   list_transform(embedding, v -> CAST(v AS DOUBLE)),
                                   [1.0, 1.0, 1.0, 1.0]) AS cosine FROM t),
                        r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY query_id
                                ORDER BY cosine DESC, vec_id) - 1 AS rank FROM s)
                        SELECT * FROM r WHERE rank < 2"""),
    }[case]
    got = collect_table(run(rd.from_arrow(t)))
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(sql).arrow()
    assert got.schema.names == want.schema.names
    assert got.schema.types == want.schema.types
    assert got.to_pylist() == want.to_pylist()


def test_zero_row_input_through_the_driver_combine(ray_session):
    """grouped_agg / rollup_agg with combine="driver" over a typed input
    with no rows return a typed 0-row table (Ray Data never runs the
    partial on an empty block, so nothing is collected), and
    bigram_lm_perplexity, which collects grouped counts, returns no rows."""
    import ray.data as rd

    from simplefeatures_ray.functions.agg import grouped_agg, rollup_agg
    from simplefeatures_ray.functions.scoring import bigram_lm_perplexity

    t = pa.table({"g": pa.array([], pa.string()), "v": pa.array([], pa.float64())})
    spec = {"s": ("v", "sum"), "m": ("v", "mean"), "n": (None, "count")}
    got = grouped_agg(rd.from_arrow(t), "g", spec)
    assert got.num_rows == 0
    assert got.schema == pa.schema([("g", pa.string()), ("s", pa.float64()),
                                    ("m", pa.float64()), ("n", pa.int64())])
    assert grouped_agg(rd.from_arrow(t), "g", spec, combine="shuffle").take_all() == []
    roll = rollup_agg(rd.from_arrow(t), ["g"], {"s": ("v", "sum")})
    assert roll.schema.names == ["g", "grouping_id", "s"]
    docs = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    assert bigram_lm_perplexity(rd.from_arrow(docs)).take_all() == []
