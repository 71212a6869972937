"""Mergeable sketches as combiner aggregates (HyperLogLog, count-min).

At 100 TB, distinct-count and frequency queries cannot shuffle rows:
a sketch is a tiny, MERGEABLE partial state, so the exchange carries
|groups| x |registers| rows per block instead of the data. Both sketches
here are bit-deterministic: the hash is a sha256 hex prefix (the
engine's standard oracle-checkable hash, cf. relational.hash_split) and
every float step is either exact dyadic arithmetic or a single shared
rounding, so a DuckDB oracle recomputes the identical estimate.

HyperLogLog (Flajolet et al. 2007, classic 32-bit variant): register
j = top-p bits of h32, rho = leading-zero rank of the remaining
(32-p) bits. The register MAX is order-independent, and the harmonic
sum S = sum(2^-M_j) over m <= 1024 registers with M_j <= 33 spans < 53
mantissa bits, so S is EXACT in float64 under ANY summation order —
the one trick that makes the estimate reproducible across engines.

Count-min (Cormode & Muthukrishnan 2005): depth x width counter matrix,
one sha256-salted row hash per depth; integer sums are exact and
commutative, the estimate is the min over depth rows.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._arrow import aggregate, dictionary_codes


def _distinct(col) -> tuple[np.ndarray, list]:
    """(code per row, distinct values as Python objects; NULL is None)."""
    codes, dic = dictionary_codes(col)
    return codes, dic.to_pylist()


def _h32(col, salt: str) -> np.ndarray:
    """sha256-derived 32-bit hashes (first 8 hex chars) of the string
    form of each value. Hash unique values once per batch."""
    codes, uniq = _distinct(col)
    hu = np.fromiter(
        (int(hashlib.sha256(f"{salt}:{v}".encode()).hexdigest()[:8], 16)
         for v in uniq),
        dtype=np.int64, count=len(uniq))
    return hu[codes]


# --------------------------------------------------------------------------- #
# HyperLogLog
# --------------------------------------------------------------------------- #


def hll_distinct(ds, keys, value_col: str, p: int = 8, salt: str = "hll",
                 round_to: int = 4) -> pa.Table:
    """Approximate COUNT(DISTINCT value) per key group via HyperLogLog.

    Per-batch combiner: rows -> (keys, register j, max rho); the grouped
    MAX exchange carries at most |groups| x 2^p rows per block. Driver
    finalize: E = alpha * m^2 / S with the standard small-range
    correction E = m * ln(m / V) when E <= 2.5 m and V empty registers
    remain. Returns keys + hll_estimate (+ 0.0-canonicalized, rounded).
    """
    if not 4 <= p <= 10:
        raise ValueError("p in [4, 10] (m = 2^p registers)")
    m = 1 << p
    q = 32 - p  # rho bits
    keys = [keys] if isinstance(keys, str) else list(keys)

    def partial(t: pa.Table) -> pa.Table:
        h = _h32(t[value_col], salt)
        j = h >> q
        w = h & ((1 << q) - 1)
        # rho = leading-zero count of w within q bits, + 1; w == 0 -> q + 1
        rho = np.where(w > 0, q - np.floor(np.log2(np.maximum(w, 1))).astype(np.int64),
                       q + 1)
        return aggregate(t.append_column("__j", pa.array(j)), keys + ["__j"],
                         [("__rho", pa.array(rho), "max", None)])

    from .relational import collect_table, known_type

    regs = collect_table(ds.map_batches(partial, batch_format="pyarrow"))
    if not regs.num_rows:
        return pa.table({**{k: pa.nulls(0, known_type(ds, k)) for k in keys},
                         "hll_estimate": pa.array([], pa.float64())})
    regs = aggregate(regs, keys + ["__j"], [("M", "__rho", "max", None)])
    M = np.asarray(regs["M"], dtype=np.int64)
    # one row per key group, keys ascending
    g = aggregate(regs, keys, [("S", pa.array(np.ldexp(1.0, -M)), "sum", None),
                               ("n", None, "count_all", None)]
                  ).sort_by([(k, "ascending") for k in keys])
    alpha = 0.7213 / (1.0 + 1.079 / m)
    V = m - np.asarray(g["n"], dtype=np.int64)
    S = np.asarray(g["S"], dtype=np.float64) + V
    E = (alpha * float(m * m)) / S
    small = (E <= 2.5 * m) & (V > 0)
    E = np.where(small, m * np.log(m / np.maximum(V, 1).astype(np.float64)), E)
    return pa.table({**{k: g[k] for k in keys},
                     "hll_estimate": pa.array(np.round(E, round_to) + 0.0)})


def hll_sql(table_expr: str, keys, value_col: str, p: int = 8,
            salt: str = "hll", round_to: int = 4) -> str:
    """DuckDB twin of hll_distinct over `table_expr` (same hash, same
    register math, same correction branch, same rounding)."""
    m = 1 << p
    q = 32 - p
    keys = [keys] if isinstance(keys, str) else list(keys)
    ks = ", ".join(keys)
    alpha_expr = f"(0.7213 / (1.0 + 1.079 / {m}))"
    return f"""
        WITH vals AS (SELECT DISTINCT {ks}, {value_col} AS v FROM {table_expr}),
        h AS (SELECT {ks},
                ('0x' || substr(sha256('{salt}:' || CAST(v AS VARCHAR)), 1, 8))::UBIGINT AS h
              FROM vals),
        r AS (SELECT {ks}, CAST(h // {1 << q} AS BIGINT) AS j,
                     CAST(h % {1 << q} AS BIGINT) AS w FROM h),
        reg AS (SELECT {ks}, j,
                  MAX(CASE WHEN w = 0 THEN {q + 1}
                      ELSE {q} - CAST(floor(log2(w)) AS BIGINT) END) AS M
                FROM r GROUP BY ALL),
        s AS (SELECT {ks}, SUM(power(2.0, -M)) + ({m} - COUNT(*)) AS S,
                     {m} - COUNT(*) AS V
              FROM reg GROUP BY ALL)
        SELECT {ks},
               ROUND(CASE WHEN ({alpha_expr} * {float(m * m)!r}) / S <= {2.5 * m!r}
                           AND V > 0
                     THEN {m} * ln({m} / CAST(V AS DOUBLE))
                     ELSE ({alpha_expr} * {float(m * m)!r}) / S END,
                     {round_to}) + 0.0 AS hll_estimate
        FROM s
    """


# --------------------------------------------------------------------------- #
# count-min
# --------------------------------------------------------------------------- #


def cms_counts(ds, value_col: str, query_values, depth: int = 4,
               width: int = 2048, salt: str = "cms") -> pa.Table:
    """Count-min frequency estimates for `query_values` over the stream.

    Per-batch combiner: a depth x width int64 counter matrix built with
    np.add.at over factorized values, emitted as (d, cell, n) rows; the
    driver sums <= depth x width rows per block into one matrix. The
    estimate for a key is min over depth of its cells — always >= the
    true count (one-sided error bounded by 2N/width per row).
    """
    depth_salts = [f"{salt}{d}" for d in range(depth)]

    def partial(t: pa.Table) -> pa.Table:
        codes, uniq = _distinct(t[value_col])
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        ds_, cells, ns = [], [], []
        for d, dsalt in enumerate(depth_salts):
            hu = np.fromiter(
                (int(hashlib.sha256(f"{dsalt}:{v}".encode()).hexdigest()[:8], 16)
                 for v in uniq),
                dtype=np.int64, count=len(uniq)) % width
            # several uniques may share a cell: aggregate
            agg = np.zeros(width, dtype=np.int64)
            np.add.at(agg, hu, cnt)
            nz = np.nonzero(agg)[0]
            ds_.append(np.full(len(nz), d, dtype=np.int64))
            cells.append(nz.astype(np.int64))
            ns.append(agg[nz])
        return pa.table({"__d": np.concatenate(ds_),
                         "__cell": np.concatenate(cells),
                         "__n": np.concatenate(ns)})

    from .relational import collect_table

    part = collect_table(ds.map_batches(partial, batch_format="pyarrow"))
    mat = np.zeros((depth, width), dtype=np.int64)
    if part.num_rows:  # no rows: every counter stays 0
        np.add.at(mat, (np.asarray(part["__d"]), np.asarray(part["__cell"])),
                  np.asarray(part["__n"]))

    qv = list(query_values)
    ests = []
    for v in qv:
        cells = [int(hashlib.sha256(f"{s}:{v}".encode()).hexdigest()[:8], 16) % width
                 for s in depth_salts]
        ests.append(int(min(mat[d, c] for d, c in zip(range(depth), cells))))
    return pa.table({value_col: pa.array(qv),
                     "cms_estimate": pa.array(ests, pa.int64())})


def cms_sql(table_expr: str, value_col: str, query_values_sql: str,
            depth: int = 4, width: int = 2048, salt: str = "cms") -> str:
    """DuckDB twin of cms_counts. `query_values_sql` is a relation
    `(SELECT ... AS v)` of the queried keys."""
    per_d = []
    for d in range(depth):
        cell = (f"('0x' || substr(sha256('{salt}{d}:' || CAST({{col}} AS VARCHAR)), "
                f"1, 8))::UBIGINT % {width}")
        per_d.append(f"""
          (SELECT q.v, COALESCE(SUM(c.n), 0) AS est
           FROM ({query_values_sql}) q
           LEFT JOIN (SELECT {cell.format(col=value_col)} AS cell,
                             COUNT(*) AS n
                      FROM {table_expr} GROUP BY 1) c
             ON c.cell = {cell.format(col='q.v')}
           GROUP BY q.v)""")
    unions = " UNION ALL ".join(per_d)
    return f"""
        SELECT v AS {value_col}, CAST(MIN(est) AS BIGINT) AS cms_estimate
        FROM ({unions}) GROUP BY v
    """


# --------------------------------------------------------------------------- #
# Bloom filter (broadcast membership prefilter)
# --------------------------------------------------------------------------- #


def bloom_build(values, n_bits: int = 4096, k: int = 3,
                salt: str = "bloom") -> np.ndarray:
    """Bit array (uint8, length n_bits) with k sha256-salted positions
    lit per value. Broadcast this instead of the key set itself when the
    blocklist is large: 100M keys -> a few hundred MB of bits instead of
    gigabytes of strings, at a bounded false-positive rate
    (~(1 - e^{-kn/m})^k)."""
    bits = np.zeros(n_bits, dtype=np.uint8)
    for v in values:
        for d in range(k):
            bits[int(hashlib.sha256(f"{salt}{d}:{v}".encode()).hexdigest()[:8],
                     16) % n_bits] = 1
    return bits


def bloom_anti_filter(ds, key_col: str, bits: np.ndarray, k: int = 3,
                      salt: str = "bloom"):
    """Keep rows whose key is definitely NOT in the filter (any of its k
    bits unset). One-sided: a false positive drops a clean row (rate set
    by n_bits/k), never the reverse — the right trade for a blocklist
    prefilter feeding an exact verification stage. Pure streaming
    map_batches over a ray.put bitset; per-batch hashing touches each
    DISTINCT key once (dictionary encode)."""
    import ray

    n_bits = len(bits)
    bits_ref = ray.put(bits)
    depth_salts = [f"{salt}{d}" for d in range(k)]

    def kernel(t: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)
        codes, uniq = _distinct(t[key_col])
        hit = np.ones(len(uniq), dtype=bool)
        for dsalt in depth_salts:
            pos = np.fromiter(
                (int(hashlib.sha256(f"{dsalt}:{v}".encode()).hexdigest()[:8],
                     16) % n_bits for v in uniq),
                dtype=np.int64, count=len(uniq))
            hit &= b[pos].astype(bool)
        return t.filter(pa.array(~hit[codes]))

    return ds.map_batches(kernel, batch_format="pyarrow")


def bloom_anti_sql(table_expr: str, key_col: str, block_values_sql: str,
                   n_bits: int = 4096, k: int = 3, salt: str = "bloom") -> str:
    """DuckDB twin of bloom_build + bloom_anti_filter: the lit-bit set is
    rebuilt from `block_values_sql` (a relation `(SELECT ... AS v)`), and
    a row survives iff at least one of its k positions is unlit —
    INCLUDING the filter's deterministic false positives."""
    def pos(col, d):
        return (f"('0x' || substr(sha256('{salt}{d}:' || CAST({col} AS VARCHAR)), "
                f"1, 8))::UBIGINT % {n_bits}")

    lit = " UNION ".join(
        f"SELECT {pos('v', d)} AS p FROM ({block_values_sql})"
        for d in range(k))
    survive = " OR ".join(
        f"{pos(f't.{key_col}', d)} NOT IN (SELECT p FROM lit)"
        for d in range(k))
    return f"""
        WITH lit AS ({lit})
        SELECT t.* FROM {table_expr} t
        WHERE {survive}
    """


def _value_counts(t: pa.Table, col: str) -> pa.Table:
    """(value, n): how often each non-null value of `t[col]` occurs,
    values as strings."""
    v = pc.cast(t[col], pa.string())
    return aggregate(pa.table({"value": v}).filter(pc.is_valid(v)), ["value"],
                     [("n", None, "count_all", None)])


def _most_frequent(t: pa.Table, limit: int) -> pa.Table:
    """The `limit` rows of a (value, n) table with the largest n, ties
    broken by value ascending."""
    return t.sort_by([("n", "descending"), ("value", "ascending")]).slice(0, limit)


def heavy_hitters(ds, value_col: str, k: int = 20, capacity: int = 512):
    """Top-k heavy hitters with EXACT final counts, at streaming scale:

      phase 1 (sketch): per-block Misra-Gries / SpaceSaving summaries of
        `capacity` counters (one grouped count per block, truncated to
        capacity with the standard undercount decrement) merged on the
        driver — counter merge volume is O(blocks x capacity), never
        row count. Any value with true frequency > n/capacity is
        GUARANTEED present in the merged summary (Misra-Gries
        invariant survives summary merging).
      phase 2 (verify): the merged candidate set (<= capacity values)
        broadcasts into one exact recount pass, so the reported counts
        are EXACT and SQL-checkable — the same candidates-then-verify
        shape as MinHash's verified twin.

    Returns a pyarrow Table (value, n) of the top k by exact count,
    ties broken by value ascending. The guarantee is meaningful when
    capacity >> k (default 512 >> 20): any item in the true top k with
    count > n/capacity cannot be missed.
    """
    import ray

    from .relational import collect_table

    def summary(t: pa.Table) -> pa.Table:
        s = _value_counts(t, value_col)
        if s.num_rows > capacity:
            # SpaceSaving-style truncation: keep top `capacity`, charge
            # every kept counter with the largest evicted count (an
            # OVERestimate per counter; the guarantee needs only that
            # kept >= true - error, preserved under merge)
            s = _most_frequent(s, capacity + 1)
            evicted_max = s["n"][capacity]
            s = s.slice(0, capacity)
            s = s.set_column(1, "n", pc.add(s["n"], evicted_max))
        return s

    partials = collect_table(ds.map_batches(summary, batch_format="pyarrow"))
    if not partials.num_rows:
        return pa.table({"value": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    merged = aggregate(partials, ["value"], [("n", "n", "sum", None)])
    cand_ref = ray.put(_most_frequent(merged, capacity)["value"].combine_chunks())

    def recount(t: pa.Table) -> pa.Table:
        c = _value_counts(t, value_col)
        return c.filter(pc.is_in(c["value"], value_set=ray.get(cand_ref)))

    exact = collect_table(ds.map_batches(recount, batch_format="pyarrow"))
    return _most_frequent(
        aggregate(exact, ["value"], [("n", "n", "sum", None)]), k)
