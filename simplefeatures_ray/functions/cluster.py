"""Distributed Lloyd k-means over an embedding column — deterministic
and oracle-checkable.

Scale shape: each iteration is one streaming map_batches pass — the
centroid matrix is broadcast (ray.put once, shared-memory read per
batch), the per-batch kernel computes assignments with one vectorized
(n, k, d) distance evaluation and emits per-cluster PARTIAL sums (k rows
per block, the combiner pattern) — no row shuffle anywhere; the driver
merges k x d floats per iteration. 100 TB cost: iters full scans, zero
exchanges.

Determinism across engines (the reason a DuckDB oracle can replay the
whole iteration history): distances are ROUNDED (default 4 dp) before
the argmin with ties broken by lowest cluster id, and centroid means are
ROUNDED (default 6 dp) after every update, so the one-ulp float-sum
ordering differences between numpy and any SQL engine are absorbed at
each step instead of compounding. Init = the k lowest-id vectors
(rank-labeled 0..k-1).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._arrow import grouped_order, run_starts
from .ann import _batch_matrix


def _assign(X: np.ndarray, C: np.ndarray, round_dist: int) -> np.ndarray:
    # (n, k) squared euclidean, rounded; argmin takes the LOWEST cluster
    # index on ties (matches the oracle's ORDER BY dist, cluster LIMIT 1)
    dist = np.round(((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=-1),
                    round_dist)
    return np.argmin(dist, axis=1)


def _partial_sums(batch: pa.Table, *, c_ref, vec_col, round_dist) -> pa.Table:
    import ray

    C = ray.get(c_ref) if not isinstance(c_ref, np.ndarray) else c_ref
    X = _batch_matrix(batch, vec_col).astype(np.float64)
    a = _assign(X, C, round_dist)
    k, d = C.shape
    S = np.zeros((k, d), dtype=np.float64)
    np.add.at(S, a, X)
    cnt = np.bincount(a, minlength=k).astype(np.int64)
    nz = np.nonzero(cnt)[0]
    return pa.table({
        "cluster": pa.array(nz.astype(np.int64)),
        "n": pa.array(cnt[nz]),
        "sums": pa.array([S[i].tobytes() for i in nz], pa.binary()),
    })


def kmeans(ds, id_col: str = "vec_id", vec_col: str = "embedding",
           k: int = 8, iters: int = 3, round_dist: int = 4,
           round_centroid: int = 6):
    """Returns (assignments Dataset with columns [id_col, cluster_id],
    final centroid matrix (k, d) float64).

    Empty clusters keep their previous centroid (mirrored in the SQL
    twin via a LEFT JOIN COALESCE)."""
    import ray

    from .relational import collect_table, topk

    # Lloyd is iterative: pin the (id, vec) projection in the object
    # store once instead of re-reading + re-decoding the parquet on
    # every pass (init + iters + final assign = iters + 2 executions).
    # Bounded by the embedding corpus bytes; Ray spills to disk when it
    # exceeds the store — still cheaper than N full re-reads. Skip the
    # copy when the caller (semdedup) already pinned the projection.
    from ray.data.dataset import MaterializedDataset

    if not (isinstance(ds, MaterializedDataset)
            and set(ds.schema().names) == {id_col, vec_col}):
        ds = ds.select_columns([id_col, vec_col]).materialize()

    init = collect_table(topk(ds, id_col, k, descending=False))
    order = np.argsort(np.asarray(init[id_col]), kind="stable")
    C = np.round(_batch_matrix(init, vec_col).astype(np.float64)[order],
                 round_centroid)
    if len(C) < k:
        raise ValueError(f"need >= {k} vectors, got {len(C)}")

    for _ in range(iters):
        ref = ray.put(C)
        part = ds.map_batches(
            _partial_sums,
            fn_kwargs={"c_ref": ref, "vec_col": vec_col,
                       "round_dist": round_dist},
            batch_format="pyarrow",
        )
        merged = collect_table(part)
        if merged.num_rows:
            # partial rows grouped by cluster in table order, each run
            # summed by one np.sum (whose float order is not a left fold)
            idx, g, _ = grouped_order(merged, ["cluster"])
            merged = merged.take(idx)
            sums = np.frombuffer(b"".join(merged["sums"].to_pylist()),
                                 dtype=np.float64).reshape(len(idx), -1)
            n = np.asarray(merged["n"], dtype=np.int64)
            cl = np.asarray(merged["cluster"])
            s = run_starts(g)
            for a, b in zip(s, np.append(s[1:], len(g))):
                C[cl[a]] = np.round(sums[a:b].sum(axis=0) / n[a:b].sum(),
                                    round_centroid)

    ref = ray.put(C)

    def final_assign(batch: pa.Table) -> pa.Table:
        import ray as _ray

        Cf = _ray.get(ref)
        X = _batch_matrix(batch, vec_col).astype(np.float64)
        a = _assign(X, Cf, round_dist)
        return pa.table({id_col: batch[id_col],
                         "cluster_id": pa.array(a.astype(np.int64))})

    return ds.map_batches(final_assign, batch_format="pyarrow"), C


def kmeans_sql(table: str = "embeddings", id_col: str = "vec_id",
               vec_col: str = "embedding", dim: int = 64, k: int = 8,
               iters: int = 3, round_dist: int = 4,
               round_centroid: int = 6) -> str:
    """DuckDB twin of kmeans(): unrolls every Lloyd iteration as CTEs
    replaying the identical rounded arithmetic (1-based list indexing
    for the unnest; rank-labeled init; dist/centroid rounding; tie-break
    by cluster id; empty clusters keep the prior centroid)."""
    ctes = _kmeans_ctes(table, id_col, vec_col, dim, k, iters,
                        round_dist, round_centroid)
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid AS {id_col}, CAST(cluster AS BIGINT) AS cluster_id "
        f"FROM a{iters}"
    )


def _kmeans_ctes(table: str, id_col: str, vec_col: str, dim: int, k: int,
                 iters: int, round_dist: int, round_centroid: int) -> list:
    """The Lloyd CTE chain shared by kmeans_sql and semdedup_sql:
    `long` = (vid, d, val) raw doubles, `a{iters}` = final assignments,
    `c{iters}` = final centroids long-format (cluster, d, val)."""
    ctes = [
        f"long AS (SELECT {id_col} AS vid, r AS d, "
        f"CAST({vec_col}[r + 1] AS DOUBLE) AS val "
        f"FROM {table}, range({dim}) t(r))",
        f"ini AS (SELECT vid, ROW_NUMBER() OVER (ORDER BY vid) - 1 AS cluster "
        f"FROM (SELECT DISTINCT vid FROM long ORDER BY vid LIMIT {k}))",
        f"c0 AS (SELECT i.cluster, l.d, ROUND(l.val, {round_centroid}) AS val "
        f"FROM long l JOIN ini i USING (vid))",
    ]
    for t in range(iters + 1):
        ctes.append(
            f"d{t} AS (SELECT l.vid, c.cluster, "
            f"ROUND(SUM((l.val - c.val) * (l.val - c.val)), {round_dist}) AS dist "
            f"FROM long l JOIN c{t} c USING (d) GROUP BY 1, 2)")
        ctes.append(
            f"a{t} AS (SELECT vid, cluster FROM ("
            f"SELECT vid, cluster, ROW_NUMBER() OVER "
            f"(PARTITION BY vid ORDER BY dist, cluster) AS rn FROM d{t}) "
            f"WHERE rn = 1)")
        if t < iters:
            ctes.append(
                f"m{t} AS (SELECT a.cluster, l.d, "
                f"ROUND(SUM(l.val) / COUNT(*), {round_centroid}) AS val "
                f"FROM long l JOIN a{t} a USING (vid) GROUP BY 1, 2)")
            ctes.append(
                f"c{t + 1} AS (SELECT c.cluster, c.d, "
                f"COALESCE(m.val, c.val) AS val FROM c{t} c "
                f"LEFT JOIN m{t} m ON m.cluster = c.cluster AND m.d = c.d)")
    return ctes


def semdedup(ds, *, threshold: float, k: int = 8, iters: int = 3,
             id_col: str = "vec_id", vec_col: str = "embedding",
             round_dist: int = 4, round_centroid: int = 6,
             round_cc: int = 6, block_rows: int = 2048):
    """SemDeDup semantic deduplication (Abbas et al. 2023, "SemDeDup:
    Data-efficient learning at web-scale through semantic deduplication",
    arXiv:2303.09540 — public method): k-means the embedding space, then
    WITHIN each cluster mark a document as a semantic duplicate iff some
    other document with higher keep-priority sits at cosine similarity
    >= threshold. Keep-priority is the paper's keep-farthest-from-
    centroid policy: the kept representative of a duplicate group is the
    one with the LOWEST cosine similarity to its cluster centroid —
    so removed(i) iff exists j in the same cluster with sim(i,j) >=
    threshold and (cc_j, id_j) < (cc_i, id_i) lexicographically. Like
    the paper's triangular-matrix formulation, j ranges over ALL
    higher-priority docs (removed ones included), which keeps the flag a
    pure pairwise predicate — exactly replayable by a SQL self-join.

    Output: (id_col, cluster_id, cc, removed) — cc is the
    cosine-to-centroid rounded to `round_cc` dp (the comparison key, so
    rounding is part of the semantics, same cross-engine determinism
    device as kmeans' rounded distances).

    Scale shape: one kmeans (broadcast centroids, zero row shuffles) +
    ONE pass computing (cluster, cc) per row + ONE co-partition exchange
    on cluster_id. The within-cluster O(n_c^2) similarity sweep is
    inherent to SemDeDup; the paper's mitigation — k large enough that
    clusters stay small (they use 50k clusters for LAION) — applies
    unchanged here: size k so corpus/k rows x dim floats fit a worker
    (the sweep itself is blocked at `block_rows` rows per matmul, so
    only the (n_c, dim) cluster matrix must fit, never an (n_c, n_c)
    similarity matrix)."""
    import ray

    from ..stages.exchange import hash_exchange
    from .ann import _normalize

    slim = ds.select_columns([id_col, vec_col]).materialize()
    _, C = kmeans(slim, id_col, vec_col, k, iters, round_dist,
                  round_centroid)
    cref = ray.put(C)
    nc = np.sqrt((C * C).sum(axis=1))
    nc[nc == 0] = 1.0
    ncref = ray.put(nc)

    def prep(t: pa.Table) -> pa.Table:
        ids = pa.array(np.asarray(t[id_col], dtype=np.int64), pa.int64())
        if not len(t):
            return pa.table({id_col: ids,
                             "cluster_id": pa.array([], pa.int64()),
                             "cc": pa.array([], pa.float64()),
                             vec_col: t[vec_col]})
        Cl, ncl = ray.get(cref), ray.get(ncref)
        X = _batch_matrix(t, vec_col).astype(np.float64)
        a = _assign(X, Cl, round_dist)
        nv = np.sqrt((X * X).sum(axis=1))
        nv[nv == 0] = 1.0
        cc = np.round((X * Cl[a]).sum(axis=1) / (nv * ncl[a]),
                      round_cc) + 0.0
        return pa.table({id_col: ids,
                         "cluster_id": pa.array(a.astype(np.int64)),
                         "cc": pa.array(cc),
                         vec_col: t[vec_col]})

    out_schema = pa.schema([(id_col, pa.int64()),
                            ("cluster_id", pa.int64()),
                            ("cc", pa.float64()),
                            ("removed", pa.bool_())])

    def dedup_part(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return out_schema.empty_table()
        ids = np.asarray(t[id_col], dtype=np.int64)
        cl = np.asarray(t["cluster_id"], dtype=np.int64)
        cc = np.asarray(t["cc"], dtype=np.float64)
        Xn = _normalize(_batch_matrix(t, vec_col).astype(np.float64))
        removed = np.zeros(n, dtype=bool)
        for c in np.unique(cl):
            sel = np.nonzero(cl == c)[0]
            # keep-priority order: cc ASC (farthest from centroid keeps),
            # then id ASC — removed(i) iff any EARLIER j has sim >= t
            order = sel[np.lexsort((ids[sel], cc[sel]))]
            Xs = Xn[order]
            m = len(order)
            rm = np.zeros(m, dtype=bool)
            cols = np.arange(m)
            for i0 in range(0, m, block_rows):
                i1 = min(i0 + block_rows, m)
                S = Xs[i0:i1] @ Xs.T                      # (block, n_c)
                earlier = cols[None, :] < np.arange(i0, i1)[:, None]
                rm[i0:i1] = ((S >= threshold) & earlier).any(axis=1)
            removed[order] = rm
        return pa.table({id_col: pa.array(ids), "cluster_id": pa.array(cl),
                         "cc": pa.array(cc), "removed": pa.array(removed)})

    prepped = slim.map_batches(prep, batch_format="pyarrow")
    return hash_exchange(prepped, k, dedup_part, lambda t: t["cluster_id"],
                         empty_out=out_schema.empty_table())


def semdedup_sql(table: str = "embeddings", id_col: str = "vec_id",
                 vec_col: str = "embedding", dim: int = 64, k: int = 8,
                 iters: int = 3, round_dist: int = 4,
                 round_centroid: int = 6, round_cc: int = 6,
                 threshold: float = 0.4) -> str:
    """DuckDB twin of semdedup(): the shared Lloyd CTE chain, then
    cosine-to-centroid from the final centroids (raw vector norms x
    rounded centroid norms, ROUND to round_cc), then removed(i) as the
    EXISTS self-join over same-cluster pairs with
    list_cosine_similarity >= threshold and lexicographically smaller
    (cc, id) — an independent replay of the keep-farthest-from-centroid
    policy."""
    ctes = _kmeans_ctes(table, id_col, vec_col, dim, k, iters,
                        round_dist, round_centroid)
    ctes.append("vn AS (SELECT vid, SQRT(SUM(val * val)) AS nv "
                "FROM long GROUP BY vid)")
    ctes.append(f"cn AS (SELECT cluster, SQRT(SUM(val * val)) AS ncn "
                f"FROM c{iters} GROUP BY cluster)")
    ctes.append(
        f"ccx AS (SELECT l.vid, a.cluster, "
        f"ROUND(SUM(l.val * c.val) / (MAX(v.nv) * MAX(n.ncn)), {round_cc})"
        f" + 0.0 AS cc "
        f"FROM long l JOIN a{iters} a USING (vid) "
        f"JOIN c{iters} c ON c.cluster = a.cluster AND c.d = l.d "
        f"JOIN vn v ON v.vid = l.vid "
        f"JOIN cn n ON n.cluster = a.cluster "
        f"GROUP BY l.vid, a.cluster)")
    ctes.append(
        f"rmv AS (SELECT DISTINCT i.vid "
        f"FROM ccx i JOIN ccx j ON i.cluster = j.cluster "
        f"AND i.vid <> j.vid "
        f"JOIN {table} ei ON ei.{id_col} = i.vid "
        f"JOIN {table} ej ON ej.{id_col} = j.vid "
        f"WHERE list_cosine_similarity("
        f"list_transform(ei.{vec_col}, x -> CAST(x AS DOUBLE)), "
        f"list_transform(ej.{vec_col}, x -> CAST(x AS DOUBLE))) "
        f">= {threshold!r} "
        f"AND (j.cc < i.cc OR (j.cc = i.cc AND j.vid < i.vid)))")
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT c.vid AS {id_col}, CAST(c.cluster AS BIGINT) AS "
        f"cluster_id, c.cc, (r.vid IS NOT NULL) AS removed "
        f"FROM ccx c LEFT JOIN rmv r ON r.vid = c.vid"
    )
