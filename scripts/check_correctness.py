"""Local twin of the driver's correctness gate: run every queries() entry
and its oracle_sql() side-by-side on one sf dir, compare row count,
schema (column names), and order-insensitive values.

Usage: python scripts/check_correctness.py [sf_dir] [query ...]
"""
from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1).copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object and len(df) and isinstance(df[c].iloc[0], (np.integer,)):
            df[c] = df[c].astype("int64")
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray

    ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    # empty shuffle partitions yield schema-less bundles; Ray warns once
    # per transition — cosmetic (see bench.py), keep the log readable
    import logging

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).setLevel(logging.ERROR)

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    n_pass = n_fail = n_rowsonly = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: ray side raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"rows-only {name}: {len(ray_df)} rows  ({dt:.1f}s)")
            n_rowsonly += 1
            continue
        try:
            ora_df = con.execute(oracles[name]).fetchdf()
        except Exception as e:
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        # dtype-kind check BEFORE normalize's casting: the driver hashes raw
        # values, so int64 vs float64 (e.g. DuckDB HUGEINT sums) hash-fails
        # even when numerically equal
        kinds_a = {c: ray_df[c].dtype.kind for c in ray_df.columns}
        kinds_b = {c: ora_df[c].dtype.kind for c in ora_df.columns}
        a = normalize(ray_df)
        b = normalize(ora_df)
        ok = True
        if list(a.columns) != list(b.columns):
            print(f"FAIL {name}: columns {list(a.columns)} vs {list(b.columns)}")
            ok = False
        elif len(a) != len(b):
            print(f"FAIL {name}: rows {len(a)} vs {len(b)}")
            ok = False
        else:
            neq = ~(a.eq(b) | (a.isna() & b.isna()))
            if neq.any().any():
                bad = neq.any(axis=1)
                print(f"FAIL {name}: {int(bad.sum())}/{len(a)} differing rows; first:")
                print(pd.concat([a[bad].head(3).add_suffix("_ray"),
                                 b[bad].head(3).add_suffix("_sql")], axis=1).to_string())
                ok = False
            else:
                # byte-level compare (catches -0.0 vs +0.0 and dtype drift)
                for c in a.columns:
                    ka, kb = kinds_a.get(c), kinds_b.get(c)
                    if {ka, kb} <= {"i", "u"} or ka == kb:
                        pass
                    else:
                        print(f"HASHFAIL {name}: column {c} dtype kind "
                              f"{ka} (ray) vs {kb} (oracle)")
                        ok = False
                    if a[c].dtype.kind in "fiu" and b[c].dtype.kind in "fiu":
                        if a[c].to_numpy().tobytes() != b[c].to_numpy().tobytes():
                            av, bv = a[c].to_numpy(), b[c].to_numpy()
                            byte_neq = np.where(
                                av.view(np.uint64) != bv.view(np.uint64))[0] \
                                if av.dtype == bv.dtype else np.array([0])
                            print(f"HASHFAIL {name}: column {c} byte-differs "
                                  f"at {len(byte_neq)} rows (e.g. row "
                                  f"{byte_neq[0] if len(byte_neq) else '?'}: "
                                  f"{av[byte_neq[0]]!r} vs {bv[byte_neq[0]]!r})"
                                  if len(byte_neq) else
                                  f"HASHFAIL {name}: column {c} byte-differs")
                            ok = False
        if ok:
            print(f"PASS {name}: {len(a)} rows  ({dt:.1f}s)")
            n_pass += 1
        else:
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail, {n_rowsonly} rows-only")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
