"""Arrow/numpy building blocks for the shuffle kernels.

Every per-partition and per-batch kernel in functions/ is Arrow-in /
Arrow-out: aggregation runs through `pa.Table.group_by(...,
use_threads=False)`, row selection through `sort_indices` + `take`, and
per-group scans through the group ids and ranks below. Arrow keeps a
null-bearing int64 column int64, so a key value groups and partitions
the same way in every block whether or not that block holds nulls.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def cents_half_away(v, scale: float = 100.0):
    """Quantize value*scale to integer 'cents' with round-HALF-AWAY-
    from-zero — the rounding rule of SQL ROUND (DuckDB/ANSI). np.rint /
    np.round are half-to-even, which flips any product that is exactly
    representable at .5 (e.g. 0.125*100 = 12.5 -> 12 vs SQL's 13), so
    every engine-side cents gate must share THIS rule with its oracle.
    """
    import numpy as np

    a = np.asarray(v, dtype=np.float64) * scale
    return np.copysign(np.floor(np.abs(a) + 0.5), a).astype(np.int64)


def dictionary_codes(col) -> tuple[np.ndarray, pa.Array]:
    """(int64 code per row, distinct values) of one Arrow column; NULL
    (and NaN) are values with a code of their own."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    d = pc.dictionary_encode(col, null_encoding="encode")
    return np.asarray(d.indices, dtype=np.int64), d.dictionary


def group_ids(t: pa.Table, keys) -> np.ndarray:
    """Dense int64 group id per row of `t` by the `keys` columns. NULL
    is a key value (all null keys form one group), as in SQL GROUP BY."""
    ids = np.zeros(t.num_rows, dtype=np.int64)
    for i, k in enumerate(keys):
        c, dic = dictionary_codes(t[k])
        # (prefix id, code) pairs -> dense ids again (< n_rows^2, no overflow)
        ids = c if i == 0 else np.unique(ids * len(dic) + c, return_inverse=True)[1]
    return ids


def grouped_order(t: pa.Table, keys, order=()):
    """Group the rows of `t` by `keys` and sort each group by `order`
    (pyarrow sort keys, e.g. [("ts", "ascending")]); stable, so rows
    tied on `order` keep their table order.

    Returns (idx, gid, rank): `idx` permutes the rows group by group,
    `gid[i]` is the (ascending, dense) group id of row idx[i] and
    `rank[i]` its 0-based position inside that group."""
    gid = group_ids(t, keys)
    cols = {"__g": pa.array(gid)}
    cols.update({f"__o{j}": t[c] for j, (c, _) in enumerate(order)})
    idx = np.asarray(pc.sort_indices(
        pa.table(cols), sort_keys=[("__g", "ascending")]
        + [(f"__o{j}", d) for j, (_, d) in enumerate(order)]), dtype=np.int64)
    g = gid[idx]
    return idx, g, ranks(g)


def run_starts(g: np.ndarray) -> np.ndarray:
    """Positions where a run of equal values of the sorted `g` begins."""
    if not len(g):
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate([[True], g[1:] != g[:-1]]))


def ranks(g: np.ndarray) -> np.ndarray:
    """0-based position of each element inside its run of equal values."""
    s = run_starts(g)
    return np.arange(len(g)) - np.repeat(s, np.diff(np.append(s, len(g))))


def nan_to_null(col):
    """Float NaN -> null, so Arrow aggregates skip it as pandas did."""
    if pa.types.is_floating(col.type):
        return pc.if_else(pc.is_nan(col), pa.scalar(None, col.type), col)
    return col


def drop_duplicates(t: pa.Table, keys=None) -> pa.Table:
    """The first row of `t` for every distinct value of the `keys`
    columns (default: all columns), in table order."""
    keys = list(t.column_names if keys is None else keys)
    gid = group_ids(t, keys)
    first = np.full(gid.max(initial=-1) + 1, t.num_rows, dtype=np.int64)
    np.minimum.at(first, gid, np.arange(t.num_rows))
    return t.take(np.sort(first))


def grouped_cumsum(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Inclusive cumulative sum of `v` restarting at every run of the
    sorted group ids `g`."""
    c = np.cumsum(v)
    s = run_starts(g)
    base = c[s] - v[s]
    return c - np.repeat(base, np.diff(np.append(s, len(g))))


def as_int64(col) -> np.ndarray:
    """An orderable column as int64: timestamps and dates as epoch
    microseconds, integers as themselves."""
    if pa.types.is_timestamp(col.type) or pa.types.is_date(col.type):
        col = pc.cast(col, pa.timestamp("us"))
    return np.asarray(pc.cast(col, pa.int64()), dtype=np.int64)


def aggregate(t: pa.Table, keys, aggs) -> pa.Table:
    """Group `t` by `keys`: one row per key group, in first-appearance
    order, holding the keys and one column per (out_name, src, op,
    options) of `aggs`. `src` is a column name or an array aligned with
    `t`; src None counts the group's rows. NULL is a key value.

    Arrow groups on the dense int64 group_ids, not on the key columns:
    pyarrow 16's multi-column grouper can split one all-NULL string key
    into several groups (seen on rollup partials)."""
    gid = group_ids(t, keys)
    cols = {"__g": pa.array(gid), "__i": pa.array(np.arange(t.num_rows))}
    ops = [("__i", "min")]
    for name, src, op, opts in aggs:
        if src is None:
            ops.append(([], "count_all"))
            continue
        cols[name] = src if isinstance(src, (pa.Array, pa.ChunkedArray)) else t[src]
        ops.append((name, op, opts) if opts is not None else (name, op))
    g = pa.table(cols).group_by("__g", use_threads=False).aggregate(ops)
    # the key column leads the output on this pyarrow and trails it on others
    c = g.columns[1:] if g.column_names[0] == "__g" else g.columns[:-1]
    out = {k: t[k].take(c[0]) for k in keys}
    out.update({a[0]: col for a, col in zip(aggs, c[1:])})
    return pa.table(out)
