"""Approximate / exact nearest-neighbor search over embedding columns.

- brute_force_topk: the baseline — broadcast query matrix (ray.put once),
  per-batch numpy matmul, per-batch partial top-k (combiner), final merge
  on the tiny candidate set. Scales linearly with corpus size and is
  embarrassingly parallel; the shuffle carries only n_queries*k rows per
  block.
- ivf_topk: the scale path — k-means-lite (seeded, few iters) coarse
  quantizer built on a sample, vectors bucketed by nearest centroid
  (groupby shuffle once), queries probe only nprobe buckets.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._arrow import drop_duplicates, grouped_order, ranks


def _batch_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch[col].combine_chunks()
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if isinstance(arr, pa.ExtensionArray):
        # Ray tensor-extension columns (from_pandas/from_numpy datasets)
        # have no .values; go through the extension's numpy conversion
        return np.asarray(arr.to_numpy(zero_copy_only=False),
                          dtype=np.float32).reshape(n, -1)
    flat = np.asarray(arr.values, dtype=np.float32)
    return flat.reshape(n, -1)


def merge_topk(partial, k: int, id_col: str, n_parts: int):
    """Final per-query top-k of the per-batch candidate rows (query_id,
    id, cosine): one hash exchange on query_id % n_parts, then a
    vectorized (cosine desc, id asc) rank per query inside each
    partition. Adds rank (0 = best)."""
    from ..stages.exchange import hash_exchange

    def merge(t: pa.Table) -> pa.Table:
        idx, _, rank = grouped_order(
            t, ["query_id"], [("cosine", "descending"), (id_col, "ascending")])
        keep = rank < k
        return t.take(idx[keep]).append_column("rank", pa.array(rank[keep]))

    return hash_exchange(partial, n_parts, merge, ["query_id"])


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class BruteForceTopK:
    """Per-batch cosine top-k against the broadcast query matrix."""

    def __init__(self, queries_ref, k: int, id_col: str = "vec_id", vec_col: str = "embedding"):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, tuple) else queries_ref
        self.query_ids, qm = q
        self.qm = _normalize(np.asarray(qm, dtype=np.float32))
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch, self.vec_col))
        ids = np.asarray(batch[self.id_col])
        sims = self.qm @ m.T  # (nq, nb)
        k = min(self.k, sims.shape[1])
        part = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]
        out_q, out_id, out_sim = [], [], []
        for qi in range(sims.shape[0]):
            cand = part[qi]
            out_q.append(np.full(k, self.query_ids[qi]))
            out_id.append(ids[cand])
            out_sim.append(sims[qi, cand])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                self.id_col: pa.array(np.concatenate(out_id)),
                "cosine": pa.array(np.concatenate(out_sim).astype(np.float64)),
            }
        )


def brute_force_topk(ds, query_ids, query_matrix, k: int, *, id_col="vec_id",
                     vec_col="embedding"):
    """Dataset of (id, embedding) -> exact cosine top-k rows per query:
    (query_id, id, cosine, rank), rank 0 = best; ties by lowest id."""
    import ray

    from ..stages.worker_cache import get_cached

    qref = ray.put((np.asarray(query_ids), np.asarray(query_matrix, dtype=np.float32)))

    def build(q):
        return BruteForceTopK(q, k, id_col, vec_col)

    build.__cache_token__ = f"bftopk-{k}-{id_col}-{vec_col}"

    def partial_fn(batch: pa.Table) -> pa.Table:
        return get_cached(qref, build=build)(batch)

    # task-based with per-worker cached state: no actor-pool spin-up
    partial = ds.map_batches(partial_fn, batch_format="pyarrow")
    return merge_topk(partial, k, id_col, max(1, min(len(query_ids), 64)))


def kmeans_lite(sample: np.ndarray, n_clusters: int, iters: int = 8, seed: int = 7):
    """Seeded deterministic k-means (numpy), for the IVF coarse quantizer."""
    rng = np.random.default_rng(seed)
    sample = _normalize(np.asarray(sample, dtype=np.float32))
    idx = rng.choice(len(sample), size=min(n_clusters, len(sample)), replace=False)
    cents = sample[np.sort(idx)].copy()
    for _ in range(iters):
        sims = sample @ cents.T
        assign = sims.argmax(axis=1)
        for c in range(len(cents)):
            m = assign == c
            if m.any():
                v = sample[m].mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


class IVFAssign:
    def __init__(self, cents_ref, vec_col: str = "embedding"):
        import ray

        self.cents = ray.get(cents_ref)
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch, self.vec_col))
        assign = (m @ self.cents.T).argmax(axis=1).astype(np.int32)
        return batch.append_column("ivf_bucket", pa.array(assign, pa.int32()))


def ivf_topk(ds, query_ids, query_matrix, k: int, *, n_clusters=16, nprobe=4,
             sample_rows=2048, id_col="vec_id", vec_col="embedding"):
    """IVF ANN: bucket by nearest centroid; probe nprobe buckets per query.

    The centroid model is built from a deterministic sample (ds.limit),
    broadcast once; the only shuffle is the per-bucket groupby of the
    (much smaller) probed candidate set.
    """
    import ray

    from .relational import collect_table

    sample_tbl = collect_table(ds.limit(sample_rows))
    if not sample_tbl.num_rows:  # no rows, no neighbours: typed like merge_topk's output
        import ray.data as rd

        return rd.from_arrow(pa.schema([
            ("query_id", pa.int64()), (id_col, pa.int64()),
            ("cosine", pa.float64()), ("rank", pa.int64())]).empty_table())
    cents = kmeans_lite(_batch_matrix(sample_tbl, vec_col), n_clusters)
    cents_ref = ray.put(cents)
    qm = _normalize(np.asarray(query_matrix, dtype=np.float32))
    probes = (qm @ cents.T).argsort(axis=1)[:, ::-1][:, :nprobe]  # (nq, nprobe)

    def build_assign(c):
        a = IVFAssign.__new__(IVFAssign)
        a.cents = c
        a.vec_col = vec_col
        return a

    build_assign.__cache_token__ = f"ivfassign-{vec_col}"

    def assign_fn(batch: pa.Table) -> pa.Table:
        from ..stages.worker_cache import get_cached

        return get_cached(cents_ref, build=build_assign)(batch)

    assigned = ds.map_batches(assign_fn, batch_format="pyarrow")
    # keep only buckets any query probes (vectorized filter)
    wanted = np.unique(probes)

    def filt(t: pa.Table) -> pa.Table:
        b = np.asarray(t["ivf_bucket"])
        return t.filter(pa.array(np.isin(b, wanted)))

    pruned = assigned.map_batches(filt, batch_format="pyarrow")

    # per-query search within probed buckets: reuse brute force on pruned set
    qsel_ref = ray.put((np.asarray(query_ids), qm, probes))

    class ProbedTopK:
        def __init__(self):
            self.query_ids, self.qm, self.probes = ray.get(qsel_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = _normalize(_batch_matrix(batch, vec_col))
            ids = np.asarray(batch[id_col])
            buckets = np.asarray(batch["ivf_bucket"])
            out_q, out_id, out_sim = [], [], []
            for qi in range(len(self.qm)):
                mask = np.isin(buckets, self.probes[qi])
                if not mask.any():
                    continue
                sims = m[mask] @ self.qm[qi]
                kk = min(k, len(sims))
                cand = np.argpartition(-sims, kth=kk - 1)[:kk]
                out_q.append(np.full(kk, self.query_ids[qi]))
                out_id.append(ids[mask][cand])
                out_sim.append(sims[cand])
            if not out_q:
                return pa.table(
                    {"query_id": pa.array([], pa.int64()), id_col: pa.array([], pa.int64()),
                     "cosine": pa.array([], pa.float64())}
                )
            return pa.table(
                {
                    "query_id": pa.array(np.concatenate(out_q)),
                    id_col: pa.array(np.concatenate(out_id)),
                    "cosine": pa.array(np.concatenate(out_sim).astype(np.float64)),
                }
            )

    def probed_fn(batch: pa.Table) -> pa.Table:
        from ..stages.worker_cache import get_cached

        return get_cached(qsel_ref, build=lambda _: ProbedTopK())(batch)

    partial = pruned.map_batches(probed_fn, batch_format="pyarrow")
    return merge_topk(partial, k, id_col, max(1, min(len(query_ids), 64)))


# --------------------------------------------------------------------------- #
# embedding near-duplicate detection
# --------------------------------------------------------------------------- #


def embedding_near_dup_pairs(ds, threshold: float, *, id_col="vec_id",
                             vec_col="embedding"):
    """EXACT embedding-cosine near-dup pairs (id_a < id_b, cosine >= t).

    Block x block, no driver materialization: the (id, vec) projection is
    materialized into OBJECT-STORE blocks (spillable, never on the
    driver); each batch task streams over the block refs, fetching one
    block at a time zero-copy and multiplying against it, so per-task
    memory is O(batch + one block) while total work stays the exact
    O(N^2) sweep. For corpora where even that is too much, use
    embedding_near_dup_lsh (bucketed, approximate).
    """
    import ray

    slim = ds.select_columns([id_col, vec_col]).materialize()
    refs = list(slim.to_arrow_refs())

    def fn(batch: pa.Table) -> pa.Table:
        mb = _normalize(_batch_matrix(batch, vec_col).astype(np.float64))
        ids_b = np.asarray(batch[id_col])
        out_a, out_b, out_c = [], [], []
        for r in refs:
            blk = ray.get(r)  # zero-copy from plasma
            if not len(blk):
                continue
            ids = np.asarray(blk[id_col])
            m = _normalize(
                np.asarray(blk[vec_col].combine_chunks().values,
                           dtype=np.float64).reshape(len(ids), -1))
            sims = mb @ m.T
            ii, jj = np.nonzero(sims >= threshold)
            ia, ib = ids_b[ii], ids[jj]
            keep = ia < ib  # dedupe + drop self-pairs
            out_a.append(ia[keep])
            out_b.append(ib[keep])
            out_c.append(np.round(sims[ii, jj][keep], 6))
        cat = (lambda xs, dt: np.concatenate(xs).astype(dt)
               if xs else np.array([], dt))
        return pa.table({
            "id_a": pa.array(cat(out_a, np.int64), pa.int64()),
            "id_b": pa.array(cat(out_b, np.int64), pa.int64()),
            "cosine": pa.array(cat(out_c, np.float64), pa.float64()),
        })

    return slim.map_batches(fn, batch_format="pyarrow")


class _HyperplaneSig:
    """Random-hyperplane LSH bucket keys (seeded, deterministic).

    n_tables independent hash tables of n_bits each (OR-amplification).
    Emissions are KEY-ONLY rows (lsh_table, lsh_bucket, id) — the
    embeddings themselves never ride the bucket shuffle. Each row also
    lands in its n_bits 1-bit-flip neighbor buckets (multiprobe), so a
    pair is a candidate iff some table has their signatures within
    hamming distance 2 — the recall of many extra tables at the shuffle
    cost of key rows only."""

    def __init__(self, dim, n_bits=6, n_tables=8, seed=99,
                 id_col="vec_id", vec_col="embedding"):
        rng = np.random.default_rng(seed)
        self.planes = rng.normal(size=(n_tables, n_bits, dim)).astype(np.float32)
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch, self.vec_col))
        n_tables, n_bits, _ = self.planes.shape
        n = len(m)
        ids = np.asarray(batch[self.id_col], dtype=np.int64)
        out_t, out_b, out_i = [], [], []
        for ti in range(n_tables):
            bits = (m @ self.planes[ti].T) > 0
            sig = np.zeros(n, dtype=np.int64)
            for b in range(n_bits):
                sig |= bits[:, b].astype(np.int64) << b
            for s in [sig] + [sig ^ (1 << b) for b in range(n_bits)]:
                out_t.append(np.full(n, ti, np.int32))
                out_b.append(s)
                out_i.append(ids)
        return pa.table({
            "lsh_table": pa.array(np.concatenate(out_t), pa.int32()),
            "lsh_bucket": pa.array(np.concatenate(out_b), pa.int64()),
            self.id_col: pa.array(np.concatenate(out_i), pa.int64()),
        })


def embedding_near_dup_lsh(ds, threshold: float, *, id_col="vec_id",
                           vec_col="embedding", n_bits=6, n_tables=8):
    """Approximate near-dup pairs (id_a < id_b, exact cosine >= t).

    Pipeline: key-only LSH bucket emission -> coarse-partitioned
    candidate-pair generation -> distinct pairs -> vectors joined back
    (bucketed hash join x2) -> exact row-wise cosine verify.

    Honest parameterization (measured on the synthetic embedding tables,
    seed 99, threshold 0.4):
      - shuffle volume: n_tables*(n_bits+1) = 56 key rows (~20 B each)
        per vector ~= 2x the corpus bytes for 64-dim embeddings; the
        vector column is never replicated through the shuffle (the
        round-2 design shipped n_tables=128 full copies of every vector).
      - recall vs the exact O(N^2) sweep: 1.0 at sf0.001/0.01/0.1 with
        8 tables x 6 bits + 1-bit multiprobe (hamming<=2 collision).
      - candidate volume: threshold 0.4 is a ~66 degree angle — far wider
        than realistic near-dup thresholds — and at that width ANY LSH
        degenerates toward brute force (~40% of all pairs become
        candidates here). At realistic thresholds (>=0.8) buckets are
        small and the same shape is genuinely sublinear; the gate keeps
        0.4 because the synthetic tables contain no higher-cosine pairs.
    """
    first = ds.take(1)
    if not first:  # no rows, no pairs: an empty table typed like verify's output
        import ray.data as rd

        return rd.from_arrow(pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                                        ("cosine", pa.float64())]).empty_table())
    dim = len(first[0][vec_col])
    # size the partition fan-out to the corpus: fixed 256-way coarse
    # partitions + 32 join buckets drown a small input in task overhead
    # (at web scale the fan-outs sit at those caps). Floor of 16: fewer
    # buckets UNDER-parallelize the per-bucket tasks (measured: 4 buckets
    # ran 4x slower than 16 on the same input). count() is O(1) metadata
    # for the parquet-rooted gated inputs.
    n_rows = ds.count()
    n_parts = min(256, max(16, n_rows // 64))
    join_buckets = min(32, max(16, n_rows // 256))

    def sig_fn(batch: pa.Table) -> pa.Table:
        from ..stages.worker_cache import get_cached

        kern = get_cached(
            f"hyperplane-{dim}-{n_bits}-{n_tables}-{vec_col}",
            build=lambda _: _HyperplaneSig(dim, n_bits, n_tables, id_col=id_col,
                                           vec_col=vec_col))
        return kern(batch)

    sigs = ds.map_batches(sig_fn, batch_format="pyarrow")

    def lsh_part(t: pa.Table) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = (np.asarray(t["lsh_bucket"], dtype=np.uint64)
                 * np.uint64(0x9E3779B97F4A7C15)
                 + np.asarray(t["lsh_table"], dtype=np.uint64))
        return h % np.uint64(n_parts)

    def bucket_pairs(t: pa.Table) -> pa.Table:
        # vectorized per coarse partition (functions.dedup helper): one
        # call per partition, no per-bucket Python loop
        from .dedup import bucketed_pairs_vectorized

        key = (np.asarray(t["lsh_table"], dtype=np.uint64) << np.uint64(48)) \
            ^ np.asarray(t["lsh_bucket"], dtype=np.uint64)
        ia, ib = bucketed_pairs_vectorized(key, np.asarray(t[id_col], dtype=np.int64))
        return drop_duplicates(pa.table({"id_a": ia, "id_b": ib}))

    from ..stages.exchange import hash_exchange

    cand = hash_exchange(sigs, n_parts, bucket_pairs, lsh_part)
    from .dedup import dedup_pairs

    # pin the candidate set: both downstream hash joins probe/consume
    # it, and a lazy re-execution would repeat the banding shuffles
    pairs = dedup_pairs(cand).materialize()

    # exact verify: join each side's vector back (Ray-native hash joins —
    # the candidate set and the corpus both stream; nothing on the driver)
    def rename(to_id, to_vec):
        def f(t: pa.Table) -> pa.Table:
            # ship vectors as raw float32 blobs: list / tensor-extension
            # columns don't survive Ray's pandas bucket-join block
            # conversions (sliced ArrowTensorArray -> numpy breaks), while
            # binary payloads pass through untouched
            raw = np.ascontiguousarray(_batch_matrix(t, vec_col),
                                       dtype=np.float32)
            fsb = pa.FixedSizeBinaryArray.from_buffers(
                pa.binary(raw.shape[1] * 4), len(t),
                [None, pa.py_buffer(raw.tobytes())])
            return pa.table({to_id: t[id_col], to_vec: fsb})
        return f

    from .relational import bucketed_join

    # task-based bucketed hash joins (the Ray-native Join operator
    # spins up num_partitions aggregator ACTORS per join — two chained
    # joins paid ~20s of pool spin-up at 32 CPUs); candidate pairs and
    # corpus both stream, nothing lands on the driver
    emb = ds.select_columns([id_col, vec_col])
    emb_a = emb.map_batches(rename("id_a", "__vec_a"), batch_format="pyarrow")
    emb_b = emb.map_batches(rename("id_b", "__vec_b"), batch_format="pyarrow")
    j = bucketed_join(pairs, emb_a, key="id_a", n_buckets=join_buckets)
    j = bucketed_join(j, emb_b, key="id_b", n_buckets=join_buckets)

    def verify(t: pa.Table) -> pa.Table:
        def decode(col):
            flat = np.frombuffer(b"".join(col.to_pylist()), dtype=np.float32)
            return flat.reshape(t.num_rows, dim).astype(np.float64)

        va = _normalize(decode(t["__vec_a"]))
        vb = _normalize(decode(t["__vec_b"]))
        cos = np.einsum("ij,ij->i", va, vb)
        keep = cos >= threshold
        return pa.table({
            "id_a": pa.array(np.asarray(t["id_a"], dtype=np.int64)[keep]),
            "id_b": pa.array(np.asarray(t["id_b"], dtype=np.int64)[keep]),
            "cosine": pa.array(np.round(cos[keep], 6), pa.float64())})

    return j.map_batches(verify, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# product quantization (PQ): the memory-reduction scale path — vectors
# compress to m uint8 codes (e.g. 128 floats -> 8 bytes, 64x), queries
# scan codes with per-subspace ADC lookup tables. Jegou et al. 2011
# ("Product Quantization for Nearest Neighbor Search"), public method.
# --------------------------------------------------------------------------- #


def pq_train(sample: np.ndarray, m: int = 8, ks: int = 16, iters: int = 8,
             seed: int = 11) -> np.ndarray:
    """Train PQ codebooks on a (bounded) sample: the vector splits into
    m subspaces, each with its own seeded-deterministic k-means of ks
    centroids. Returns (m, ks, dim/m) float32 codebooks."""
    sample = np.asarray(sample, dtype=np.float32)
    n, dim = sample.shape
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m {m}")
    sub = dim // m
    books = np.zeros((m, ks, sub), dtype=np.float32)
    for j in range(m):
        block = np.ascontiguousarray(sample[:, j * sub:(j + 1) * sub])
        rng = np.random.default_rng(seed + j)
        idx = rng.choice(n, size=min(ks, n), replace=False)
        cents = block[np.sort(idx)].copy()
        for _ in range(iters):
            d = ((block[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = d.argmin(axis=1)
            for c in range(len(cents)):
                msk = assign == c
                if msk.any():
                    cents[c] = block[msk].mean(axis=0)
        books[j, : len(cents)] = cents
    return books


def pq_train_exact(sample: np.ndarray, m: int = 8, ks: int = 16,
                   iters: int = 2, round_centroid: int = 6,
                   round_dist: int = 4) -> np.ndarray:
    """Oracle-parity PQ trainer (the SQL-replayable twin of pq_train,
    mirroring cluster.kmeans's conventions): float64, rank init (first
    ks sample rows — pass the sample sorted by id), centroids and
    assignment distances rounded so a DuckDB CTE chain replays the
    identical arithmetic; empty clusters keep the prior centroid;
    ties go to the lowest centroid id (argmin)."""
    sample = np.asarray(sample, dtype=np.float64)
    n, dim = sample.shape
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m {m}")
    sub = dim // m
    kk = min(ks, n)
    books = np.zeros((m, kk, sub), dtype=np.float64)
    for j in range(m):
        block = sample[:, j * sub:(j + 1) * sub]
        cents = np.round(block[:kk].copy(), round_centroid)
        for _ in range(iters):
            d = np.round(((block[:, None, :] - cents[None, :, :]) ** 2)
                         .sum(axis=2), round_dist)
            assign = d.argmin(axis=1)
            for c in range(kk):
                msk = assign == c
                if msk.any():
                    cents[c] = np.round(block[msk].sum(axis=0) / msk.sum(),
                                        round_centroid)
        books[j] = cents
    return books


def _pq_encode_matrix(mtx: np.ndarray, books: np.ndarray,
                      round_dist: int | None = None) -> np.ndarray:
    """(n, dim) -> (n, m) uint8 codes (nearest sub-centroid; with
    round_dist the assignment distance is rounded — the SQL-replayable
    convention; argmin ties go to the lowest centroid id either way)."""
    m, ks, sub = books.shape
    n = len(mtx)
    codes = np.zeros((n, m), dtype=np.uint8)
    for j in range(m):
        block = mtx[:, j * sub:(j + 1) * sub]
        d = ((block[:, None, :] - books[j][None, :, :]) ** 2).sum(axis=2)
        if round_dist is not None:
            d = np.round(d, round_dist)
        codes[:, j] = d.argmin(axis=1).astype(np.uint8)
    return codes


def pq_encode(ds, books: np.ndarray, *, id_col="vec_id",
              vec_col="embedding", round_dist: int | None = None):
    """Dataset of (id, embedding) -> (id, pq_code fixed_size_list<uint8>).
    Codebooks broadcast once (ray.put), one vectorized nearest-centroid
    assignment per subspace per batch. round_dist switches to the
    float64 SQL-replayable arithmetic (pq_train_exact books)."""
    import ray

    dtype = np.float32 if round_dist is None else np.float64
    books_ref = ray.put(np.asarray(books, dtype=dtype))
    m = books.shape[0]

    def kernel(t: pa.Table) -> pa.Table:
        bk = ray.get(books_ref)
        mtx = _batch_matrix(t, vec_col).astype(dtype)
        codes = _pq_encode_matrix(mtx, bk, round_dist)
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(codes.reshape(-1), pa.uint8()), m)
        return pa.table({id_col: t[id_col], "pq_code": arr})

    return ds.map_batches(kernel, batch_format="pyarrow")


def pq_topk(codes_ds, query_ids, query_matrix, books: np.ndarray, k: int,
            *, id_col="vec_id", code_col="pq_code",
            quantize: int | None = None):
    """ADC top-k over PQ codes: per query, an (m, ks) lookup table of
    squared distances to every sub-centroid; a code's approximate
    distance is m LUT gathers + a sum — the corpus is scanned as uint8,
    never as floats. Per-block partial top-k -> tiny final merge (the
    same combiner shape as brute_force_topk). Returns
    (query_id, id, adc_dist, rank) with the (dist, id) total order."""
    import ray

    from .relational import collect_table

    dtype = np.float32 if quantize is None else np.float64
    books = np.asarray(books, dtype=dtype)
    m, ks, sub = books.shape
    qm = np.asarray(query_matrix, dtype=dtype)
    # (nq, m, ks) ADC tables
    luts = np.zeros((len(qm), m, ks), dtype=dtype)
    for j in range(m):
        qb = qm[:, j * sub:(j + 1) * sub]
        luts[:, j, :] = (
            (qb[:, None, :] - books[j][None, :, :]) ** 2).sum(axis=2)
    if quantize is not None:
        # integer micro-units: each per-subspace entry rounds to
        # `quantize` decimals, and the ADC total is then an exact int64
        # sum — immune to float summation order (the per-part-rounded
        # values sit ON the decimal grid, so rounding the float TOTAL
        # would be a coin flip between engines)
        luts = np.rint(np.round(luts, quantize)
                       * (10.0 ** quantize)).astype(np.int64)
    lut_ref = ray.put(luts)
    qids = np.asarray(query_ids)

    def partial(t: pa.Table) -> pa.Table:
        lt = ray.get(lut_ref)
        arr = t[code_col].combine_chunks()
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        codes = np.asarray(arr.values, dtype=np.uint8).reshape(-1, m)
        ids = np.asarray(t[id_col], dtype=np.int64)
        n = len(codes)
        kk = min(k, n)
        out_q, out_i, out_d = [], [], []
        for qi in range(len(lt)):
            # ADC: sum of m per-subspace gathers
            d = lt[qi, 0, codes[:, 0]].astype(
                np.int64 if quantize is not None else np.float64)
            for j in range(1, m):
                d += lt[qi, j, codes[:, j]]
            if quantize is not None:
                # integer distances tie often: the block-local cut must
                # follow the (dist, id) TOTAL order or the survivor set
                # depends on partitioning
                part = np.lexsort((ids, d))[:kk]
            else:
                part = np.argpartition(d, kth=kk - 1)[:kk]
            out_q.append(np.full(kk, qids[qi], dtype=np.int64))
            out_i.append(ids[part])
            out_d.append(d[part])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            id_col: pa.array(np.concatenate(out_i)),
            "adc_dist": pa.array(np.concatenate(out_d)),
        })

    parts = collect_table(codes_ds.map_batches(partial,
                                               batch_format="pyarrow"))
    t = parts.sort_by([("query_id", "ascending"), ("adc_dist", "ascending"),
                       (id_col, "ascending")])
    rank = ranks(np.asarray(t["query_id"]))
    keep = rank < k
    return t.filter(keep).append_column("rank", pa.array(rank[keep]))


def pq_sql(table: str = "embeddings", id_col: str = "vec_id",
           vec_col: str = "embedding", dim: int = 64, m: int = 8,
           ks: int = 16, iters: int = 2, k: int = 5,
           sample_n: int = 256, query_ids=(0, 1, 2),
           round_centroid: int = 6, round_dist: int = 4) -> str:
    """DuckDB twin of pq_train_exact + pq_encode + pq_topk(quantize):
    unrolls the per-subspace Lloyd iterations as CTEs replaying the
    identical rounded arithmetic (subspace j = dim r // sub; rank init
    from the first ks sample rows; rounded assignment distances and
    centroids; COALESCE keeps empty clusters), then encodes the full
    corpus against the final centroids and ranks queries by the exact
    INTEGER micro-unit ADC total."""
    sub = dim // m
    qin = ", ".join(str(int(q)) for q in query_ids)
    rc, rd = round_centroid, round_dist
    ctes = [
        f"long AS (SELECT {id_col} AS vid, r AS d, r // {sub} AS j, "
        f"CAST({vec_col}[r + 1] AS DOUBLE) AS val "
        f"FROM {table}, range({dim}) t(r))",
        f"samp AS (SELECT * FROM long WHERE vid < {sample_n})",
        f"ini AS (SELECT vid, ROW_NUMBER() OVER (ORDER BY vid) - 1 AS cl "
        f"FROM (SELECT DISTINCT vid FROM samp ORDER BY vid LIMIT {ks}))",
        f"c0 AS (SELECT i.cl, s.j, s.d, ROUND(s.val, {rc}) AS val "
        f"FROM samp s JOIN ini i USING (vid))",
    ]
    for t in range(iters):
        ctes.append(
            f"d{t} AS (SELECT s.vid, s.j, c.cl, "
            f"ROUND(SUM((s.val - c.val) * (s.val - c.val)), {rd}) AS dist "
            f"FROM samp s JOIN c{t} c ON c.j = s.j AND c.d = s.d "
            f"GROUP BY 1, 2, 3)")
        ctes.append(
            f"a{t} AS (SELECT vid, j, cl FROM ("
            f"SELECT vid, j, cl, ROW_NUMBER() OVER "
            f"(PARTITION BY vid, j ORDER BY dist, cl) AS rn FROM d{t}) "
            f"WHERE rn = 1)")
        ctes.append(
            f"m{t} AS (SELECT a.cl, s.j, s.d, "
            f"ROUND(SUM(s.val) / COUNT(*), {rc}) AS val "
            f"FROM samp s JOIN a{t} a ON a.vid = s.vid AND a.j = s.j "
            f"GROUP BY 1, 2, 3)")
        ctes.append(
            f"c{t + 1} AS (SELECT c.cl, c.j, c.d, "
            f"COALESCE(m.val, c.val) AS val FROM c{t} c "
            f"LEFT JOIN m{t} m ON m.cl = c.cl AND m.j = c.j AND m.d = c.d)")
    fin = f"c{iters}"
    ctes += [
        f"ed AS (SELECT l.vid, l.j, c.cl, "
        f"ROUND(SUM((l.val - c.val) * (l.val - c.val)), {rd}) AS dist "
        f"FROM long l JOIN {fin} c ON c.j = l.j AND c.d = l.d "
        f"GROUP BY 1, 2, 3)",
        "code AS (SELECT vid, j, cl FROM ("
        "SELECT vid, j, cl, ROW_NUMBER() OVER "
        "(PARTITION BY vid, j ORDER BY dist, cl) AS rn FROM ed) "
        "WHERE rn = 1)",
        f"q AS (SELECT vid AS qid, j, d, val FROM long WHERE vid IN ({qin}))",
        f"lut AS (SELECT q.qid, c.j, c.cl, CAST(ROUND("
        f"ROUND(SUM((q.val - c.val) * (q.val - c.val)), {rd}) "
        f"* {10 ** rd}, 0) AS BIGINT) AS dist "
        f"FROM q JOIN {fin} c ON c.j = q.j AND c.d = q.d "
        f"GROUP BY 1, 2, 3)",
        "adc AS (SELECT l.qid, co.vid, SUM(l.dist) AS adc_dist "
        "FROM code co JOIN lut l ON l.j = co.j AND l.cl = co.cl "
        "GROUP BY 1, 2)",
        "ranked AS (SELECT qid, vid, adc_dist, ROW_NUMBER() OVER "
        "(PARTITION BY qid ORDER BY adc_dist, vid) - 1 AS rank FROM adc)",
    ]
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT qid AS query_id, vid AS {id_col}, "
        f"CAST(adc_dist AS BIGINT) AS adc_dist, rank "
        f"FROM ranked WHERE rank < {k}"
    )
