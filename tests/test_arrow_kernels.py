"""The shuffle kernels are Arrow-only: no pandas bridge, no
groupby().map_groups, one key -> partition function."""
from __future__ import annotations

import pathlib
import re

import numpy as np
import pyarrow as pa

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
