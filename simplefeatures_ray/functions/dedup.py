"""Deduplication suite for web-scale corpora.

- exact_dedup: hash-partition + per-group first (relational.dedup_exact).
- MinHash + LSH: shingle -> minhash signature -> band buckets -> groupby
  bucket -> candidate pairs -> Jaccard verify. The only shuffle is the
  band-bucket groupby, whose rows are (bucket, doc_id, sig) — small.
- SimHash: 64-bit hyperplane sketch; near-dups = hamming distance <= t,
  found via 4-table banding of the 64 bits (pigeonhole).
- ngram Jaccard verify + embedding-cosine near-dup.

All signatures are computed vectorized per batch; everything is
deterministic (fixed hash seeds; no PYTHONHASHSEED dependence).
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._arrow import aggregate, dictionary_codes, drop_duplicates, group_ids

_WORD = re.compile(r"[\w']+", re.U)

_MERSENNE = (1 << 61) - 1


def _shingles(text: str, n: int = 3) -> set:
    words = [w.lower() for w in _WORD.findall(text or "")]
    if len(words) < n:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


import hashlib


def _hash64(s: str) -> int:
    # blake2b/8 — stable across processes, C speed (a pure-python FNV
    # loop here dominated minhash wall time)
    return int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "little")


_POLY_B = np.uint64(0x100000001B3)  # FNV prime


def _splitmix64_u64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _word_hash_py(w: str) -> int:
    """Per-row twin of the batch word hash: splitmix64 of the first 8
    bytes of the lowercased word (little-endian) xor its byte length."""
    b = w.encode()
    key = int.from_bytes(b[:8].ljust(8, b"\0"), "little") ^ len(b)
    return int(_splitmix64_u64(np.array([key], dtype=np.uint64))[0])


def _shingle_hash_py(words, i, n) -> int:
    h = np.uint64(_word_hash_py(words[i]))
    with np.errstate(over="ignore"):
        for j in range(i + 1, min(i + n, len(words))):
            h = h * _POLY_B + np.uint64(_word_hash_py(words[j]))
    return int(h)


def _mersenne_fold(x: np.ndarray) -> np.ndarray:
    """x % (2^61 - 1) for uint64 x via shift-add folding (no idiv)."""
    m = np.uint64(_MERSENNE)
    y = (x >> np.uint64(61)) + (x & m)
    y = np.where(y >= m, y - m, y)
    return np.where(y >= m, y - m, y)


class MinHashSignature:
    """Adds a minhash signature column (fixed_size_list<uint64>).

    Shingle hash: each word maps to splitmix64(first-8-lowercased-bytes
    xor length); an n-gram shingle combines its word hashes with an
    FNV-prime polynomial. The whole batch vectorizes: word runs come
    from the byte-class engine (functions/_bytetext.py), shingles from
    shifted word-hash arrays, per-row signature minima from
    np.minimum.reduceat. num_perm universal-hash permutations
    (a*x+b) % (2^61-1) over the deduped shingle hashes; a/b derive from
    a seeded RNG created once per actor. Non-ASCII rows fall back to an
    identical per-row path (ASCII word hashes agree between both)."""

    def __init__(self, num_perm: int = 64, ngram: int = 3, text_col: str = "text"):
        rng = np.random.default_rng(1234)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.num_perm = num_perm
        self.ngram = ngram
        self.text_col = text_col

    def signature(self, text: str) -> np.ndarray:
        """Per-row reference path (used for non-ASCII rows and tests)."""
        words = [w.lower() for w in _WORD.findall(text or "")]
        if not words:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        n = self.ngram
        upper = max(1, len(words) - n + 1)
        hv = np.unique(np.array(
            [_shingle_hash_py(words, i, n) for i in range(upper)], dtype=np.uint64))
        return self._perm_min(hv)

    def _perm_min(self, hv: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            prod = _mersenne_fold(self.a[:, None] * hv[None, :] + self.b[:, None])
        return prod.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from . import _bytetext as bt

        b = bt.BatchText(batch[self.text_col])
        starts, lengths, row_ids = b.runs(
            bt.word_mask(b.buf) | bt.apo_mask(b.buf))
        with np.errstate(over="ignore"):
            wh = _splitmix64_u64(
                bt.word_keys(b.low8, starts, lengths)
                ^ lengths.astype(np.uint64))
        n = self.ngram
        nw = len(wh)
        maxu = np.iinfo(np.uint64).max
        # regular shingles: all n words within one row
        sh = wh.copy()
        valid = np.ones(nw, dtype=bool)
        with np.errstate(over="ignore"):
            for j in range(1, n):
                nxt = np.concatenate([wh[j:], np.zeros(j, np.uint64)])
                sh = sh * _POLY_B + nxt
                rr = np.concatenate([row_ids[j:], np.full(j, -1)])
                valid &= rr == row_ids
        # short rows (0 < word count < n): one shingle of all their words
        wc = np.bincount(row_ids, minlength=b.n)
        short_rows = np.nonzero((wc > 0) & (wc < n))[0]
        if len(short_rows):
            first_widx = np.searchsorted(row_ids, short_rows)
            for r, wi in zip(short_rows, first_widx):
                h = wh[wi]
                with np.errstate(over="ignore"):
                    for j in range(1, wc[r]):
                        h = h * _POLY_B + wh[wi + j]
                sh[wi] = h
                valid[wi] = True
        sh = np.where(valid, sh, maxu)
        # per-row sort + dedupe (python set semantics on shingles)
        order = np.lexsort((sh, row_ids))
        sh_s = sh[order]
        row_s = row_ids[order]
        keep = np.ones(len(sh_s), dtype=bool)
        if len(sh_s) > 1:
            keep[1:] = (sh_s[1:] != sh_s[:-1]) | (row_s[1:] != row_s[:-1])
        keep &= sh_s != maxu
        sh_u = sh_s[keep]
        row_u = row_s[keep]
        sigs = np.full((b.n, self.num_perm), maxu, dtype=np.uint64)
        if len(sh_u):
            seg = np.concatenate(([0], 1 + np.nonzero(row_u[1:] != row_u[:-1])[0]))
            seg_rows = row_u[seg]
            with np.errstate(over="ignore"):
                for p in range(self.num_perm):
                    v = _mersenne_fold(self.a[p] * sh_u + self.b[p])
                    sigs[seg_rows, p] = np.minimum.reduceat(v, seg)
        for i in b.nonascii_rows:
            sigs[i] = self.signature(b.row_text(int(i)))
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1), pa.uint64()), self.num_perm
        )
        return batch.append_column("minhash", arr)


def lsh_band_rows(batch: pa.Table, num_perm: int, bands: int, id_col: str = "doc_id"):
    """Explode each signature into `bands` (band_key, id) rows. band_key is
    a hash of (band_idx, band slice) so one groupby clusters candidates."""
    sig = np.asarray(batch["minhash"].combine_chunks().flatten(), dtype=np.uint64).reshape(
        -1, num_perm
    )
    r = num_perm // bands
    ids = np.asarray(batch[id_col])
    out_keys, out_ids = [], []
    for b in range(bands):
        chunk = sig[:, b * r : (b + 1) * r]
        with np.errstate(over="ignore"):
            key = np.full(len(chunk), np.uint64((b + 1) * 0x9E3779B97F4A7C15 % (1 << 64)), dtype=np.uint64)
            for j in range(r):
                key = key * np.uint64(0x100000001B3) + chunk[:, j]
        out_keys.append(key)
        out_ids.append(ids)
    return pa.table(
        {
            "band_key": pa.array(np.concatenate(out_keys), pa.uint64()),
            id_col: pa.array(np.concatenate(out_ids)),
        }
    )


def minhash_lsh_pairs(ds, *, num_perm=64, bands=16, ngram=3, id_col="doc_id",
                      text_col="text"):
    """Dataset with (id, text) -> Dataset of candidate duplicate pairs
    (id_a < id_b), deduplicated. Pipeline: signature (actor pool) ->
    band explode -> groupby(band_key) -> pairs within group."""
    def sig_fn(batch: pa.Table) -> pa.Table:
        from ..stages.worker_cache import get_cached

        kern = get_cached(
            f"minhash-{num_perm}-{ngram}-{text_col}",
            build=lambda _: MinHashSignature(num_perm, ngram, text_col))
        return kern(batch)

    sigs = ds.map_batches(sig_fn, batch_format="pyarrow") \
             .select_columns([id_col, "minhash"])
    bandrows = sigs.map_batches(
        lambda t: lsh_band_rows(t, num_perm, bands, id_col), batch_format="pyarrow"
    )

    # Ray map_groups pays per-group overhead; with mostly-singleton band
    # buckets that dominates. Shuffle on a COARSE partition of the band
    # key (same co-location guarantee), then do the fine-grained grouping
    # vectorized inside each partition.
    def pairs_in_part(t: pa.Table) -> pa.Table:
        ia, ib = bucketed_pairs_vectorized(
            np.asarray(t["band_key"], dtype=np.uint64),
            np.asarray(t[id_col], dtype=np.int64))
        return drop_duplicates(pa.table({"id_a": ia, "id_b": ib}))

    from ..stages.exchange import hash_exchange

    pairs = hash_exchange(bandrows, 256, pairs_in_part, _band_part)
    return dedup_pairs(pairs)


def _band_part(t: pa.Table) -> np.ndarray:
    """The coarse partition of an LSH band row: band_key mod 256."""
    return np.asarray(t["band_key"], dtype=np.uint64) % np.uint64(256)


def bucketed_pairs_vectorized(keys: np.ndarray, ids: np.ndarray,
                              values: np.ndarray | None = None):
    """All (id_a < id_b) pairs within equal bucket keys, fully
    vectorized — NO per-bucket Python loop: rows are lex-sorted by
    (key, id), (key, id) duplicates dropped, then buckets are grouped
    by SIZE so each distinct bucket size costs one (n_buckets, size)
    gather plus one triu emission. The loop count is the number of
    DISTINCT SIZES (tiny), not the number of buckets (huge).

    Returns (id_a, id_b) or (id_a, id_b, value_a, value_b) arrays;
    pairs surfacing from several buckets in the same partition are NOT
    deduped here — callers drop the duplicates once.
    """
    order = np.lexsort((ids, keys))
    k, i = keys[order], ids[order]
    v = values[order] if values is not None else None
    dup = np.zeros(len(i), dtype=bool)
    if len(i) > 1:
        dup[1:] = (k[1:] == k[:-1]) & (i[1:] == i[:-1])
    keep = ~dup
    k, i = k[keep], i[keep]
    if v is not None:
        v = v[keep]
    empty = (np.array([], np.int64),) * (4 if values is not None else 2)
    if len(i) < 2:
        return empty
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    sizes = np.diff(np.concatenate((starts, [len(k)])))
    out_a, out_b, out_va, out_vb = [], [], [], []
    for s in np.unique(sizes):
        if s < 2:
            continue
        sel = starts[sizes == s]
        idx = sel[:, None] + np.arange(int(s))[None, :]
        mat = i[idx]
        ii, jj = np.triu_indices(int(s), k=1)
        out_a.append(mat[:, ii].ravel())  # ids sorted in-bucket: a < b
        out_b.append(mat[:, jj].ravel())
        if v is not None:
            vm = v[idx]
            out_va.append(vm[:, ii].ravel())
            out_vb.append(vm[:, jj].ravel())
    if not out_a:
        return empty
    res = (np.concatenate(out_a), np.concatenate(out_b))
    if values is not None:
        res += (np.concatenate(out_va), np.concatenate(out_vb))
    return res


def dedup_pairs(pairs_ds):
    """Distinct (id_a, id_b) rows: coarse-partition shuffle + vectorized
    duplicate drop per partition (a pair surfaces from several bands)."""

    def pair_part(t: pa.Table) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = (np.asarray(t["id_a"], dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                 + np.asarray(t["id_b"], dtype=np.uint64))
        return h % np.uint64(64)

    from ..stages.exchange import hash_exchange

    return hash_exchange(pairs_ds, 64, lambda t: drop_duplicates(t, ["id_a", "id_b"]),
                         pair_part)


def jaccard(text_a: str, text_b: str, ngram: int = 3) -> float:
    sa = _shingles(text_a, ngram)
    sb = _shingles(text_b, ngram)
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _sha_word_hash(w: str) -> int:
    """64-bit word hash = big-endian first 8 bytes of sha256 — chosen so
    a SQL oracle can recompute it: ('0x'||substr(sha256(w),1,16))::UBIGINT."""
    return int.from_bytes(hashlib.sha256(w.encode()).digest()[:8], "big")


class SimHash:
    """64-bit SimHash over word-unigram hashes, vectorized per BATCH.

    Word hash is sha256-derived (see _sha_word_hash) so a SQL oracle can
    recompute it. The batch path tokenizes with one Arrow split kernel,
    dictionary-encodes the flattened words, sha256-hashes only the
    batch's DISTINCT words (per-actor cache across batches), and
    accumulates the per-row bit votes with np.add.at — no Python work
    proportional to token count. Non-ASCII rows fall back to the
    per-row reference path (`simhash`), whose Python `\\w` tokenization
    the Arrow RE2 split only matches for ASCII text."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self._cache: dict = {}

    def _wh(self, w: str) -> int:
        h = self._cache.get(w)
        if h is None:
            h = self._cache[w] = _sha_word_hash(w)
        return h

    def simhash(self, text: str) -> int:
        """Per-row reference path (non-ASCII rows and tests)."""
        words = [w.lower() for w in _WORD.findall(text or "")]
        if not words:
            return 0
        hv = np.fromiter((self._wh(w) for w in words), dtype=np.uint64, count=len(words))
        bits = ((hv[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
            np.int32
        )
        votes = (2 * bits - 1).sum(axis=0)
        out = np.uint64(0)
        for i in range(64):
            if votes[i] > 0:
                out |= np.uint64(1) << np.uint64(i)
        return int(out)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from . import _bytetext as bt

        col = batch[self.text_col]
        n = len(batch)
        words = pc.split_pattern_regex(
            pc.fill_null(pc.cast(col, pa.large_string()), ""),
            pattern=r"[^\w']+")
        flat = pc.utf8_lower(pc.list_flatten(words))
        parents = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        d = pc.dictionary_encode(flat).combine_chunks()
        if isinstance(d, pa.ChunkedArray):
            d = d.chunk(0) if d.num_chunks else pa.array([], pa.string()).dictionary_encode()
        vocab = d.dictionary.to_pylist()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        hv_vocab = np.fromiter((self._wh(w) for w in vocab),
                               dtype=np.uint64, count=len(vocab))
        keep_vocab = np.fromiter((w != "" for w in vocab),
                                 dtype=bool, count=len(vocab))
        votes = np.zeros((n, 64), dtype=np.int64)
        if len(codes):
            keep = keep_vocab[codes]
            hv = hv_vocab[codes[keep]]
            rows = parents[keep]
            bits = ((hv[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                    & np.uint64(1)).astype(np.int64)
            np.add.at(votes, rows, 2 * bits - 1)
        sig = np.zeros(n, dtype=np.uint64)
        pos = votes > 0
        for i in range(64):
            sig |= pos[:, i].astype(np.uint64) << np.uint64(i)
        # rows the RE2/ASCII tokenization can't reproduce: per-row twin
        b = bt.BatchText(col)
        for i in b.nonascii_rows:
            sig[i] = self.simhash(b.row_text(int(i)))
        return batch.append_column("simhash", pa.array(sig, pa.uint64()))


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.bitwise_xor(a, b)
    # popcount via unpackbits on the byte view
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


def simhash_near_dup_pairs(ds, *, max_hamming=3, id_col="doc_id", text_col="text",
                           n_bands=4):
    """Near-dup pairs by SimHash banding (n_bands tables of 64/n_bands
    bits — pigeonhole: any pair within hamming <= n_bands-1 shares at
    least one exact band, so recall is COMPLETE when
    max_hamming < n_bands; larger max_hamming trades recall for fewer
    bands)."""
    band_bits = 64 // n_bands
    band_mask = np.uint64((1 << band_bits) - 1)
    def sim_fn(batch: pa.Table) -> pa.Table:
        from ..stages.worker_cache import get_cached

        kern = get_cached(f"simhash-{text_col}",
                          build=lambda _: SimHash(text_col))
        return kern(batch)

    sh = ds.map_batches(sim_fn, batch_format="pyarrow") \
           .select_columns([id_col, "simhash"])

    def explode(t: pa.Table) -> pa.Table:
        sim = np.asarray(t["simhash"], dtype=np.uint64)
        ids = np.asarray(t[id_col])
        keys, out_ids, sims = [], [], []
        for b in range(n_bands):
            band = (sim >> np.uint64(band_bits * b)) & band_mask
            keys.append(band | (np.uint64(b) << np.uint64(band_bits)))
            out_ids.append(ids)
            sims.append(sim)
        return pa.table(
            {
                "band_key": pa.array(np.concatenate(keys), pa.uint64()),
                id_col: pa.array(np.concatenate(out_ids)),
                "simhash": pa.array(np.concatenate(sims), pa.uint64()),
            }
        )

    rows = sh.map_batches(explode, batch_format="pyarrow")

    def pairs(t: pa.Table) -> pa.Table:
        ia, ib, sa, sb = bucketed_pairs_vectorized(
            np.asarray(t["band_key"], dtype=np.uint64),
            np.asarray(t[id_col], dtype=np.int64),
            np.asarray(t["simhash"], dtype=np.uint64))
        hd = hamming64(sa, sb)
        keep = hd <= max_hamming
        return drop_duplicates(pa.table({
            "id_a": pa.array(ia[keep], pa.int64()),
            "id_b": pa.array(ib[keep], pa.int64()),
            "hamming": pa.array(hd[keep].astype(np.int64))}), ["id_a", "id_b"])

    from ..stages.exchange import hash_exchange

    cand = hash_exchange(rows, 256, pairs, _band_part)
    return dedup_pairs(cand)


def _cc_label_join(t: pa.Table, *, lab_ref) -> pa.Table:
    """Per-batch broadcast join for CC rounds: plain task function, the
    small label table fetched zero-copy from the object store."""
    import ray

    return t.join(ray.get(lab_ref), keys="node")


def connected_components(pairs_ds, a_col: str = "id_a", b_col: str = "id_b",
                         id_out: str = "doc_id", label_out: str = "cluster_id",
                         max_rounds: int = 50):
    """Connected components over a near-dup PAIR list — the clustering
    step after MinHash/SimHash pair generation: every member of a dup
    cluster maps to the cluster's minimum doc id, so "keep one doc per
    cluster" downstream is a plain filter on (doc_id == cluster_id).

    Min-label propagation (the label-propagation baseline of Kiveris et
    al., "Connected Components in MapReduce and Beyond"):

        label_0(v)    = min(v, incident neighbours)       # edge-local
        label_t+1(v)  = min(label_t(v), min_{u~v} label_t(u))

    The LABEL table (one row per node appearing in a pair — a small
    fraction of the corpus for realistic near-dup rates) is the engine's
    usual broadcast small side. Each round is ONE streaming pass over the
    distributed edge list (per-batch label join + combiner mins), a
    driver-side merge, and FULL path compression (label <- label[label]
    to fixpoint — pure numpy over the label array). Compression collapses
    pointer chains entirely, so even path graphs converge in ~2 edge
    rounds. No all-to-all shuffle at any point.

    The edge list is materialized once; only label state crosses rounds
    (bounds lineage depth across iterations).

    Returns a Dataset with one row per node appearing in >= 1 pair:
    (id_out: int64, label_out: int64 = min doc id of its component).
    Nodes in no pair are trivially their own singleton cluster and are
    not emitted.
    """
    import ray

    from .agg import grouped_agg

    empty = pa.table({id_out: pa.array([], pa.int64()),
                      label_out: pa.array([], pa.int64())})

    def to_edges(t: pa.Table) -> pa.Table:
        a = np.asarray(t[a_col].to_numpy(), dtype=np.int64)
        b = np.asarray(t[b_col].to_numpy(), dtype=np.int64)
        return pa.table({"node": np.concatenate([a, b]),
                         "dst": np.concatenate([b, a])})

    edges = pairs_ds.map_batches(to_edges, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return ray.data.from_arrow(empty)

    def init_label(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"],
                         "label": pc.min_element_wise(t["node"], t["dst"])})

    def to_dst(t: pa.Table) -> pa.Table:
        return pa.table({"node": pc.cast(t["dst"], pa.int64()),
                         "label": pc.cast(t["label"], pa.int64())})

    init = grouped_agg(
        edges.map_batches(init_label, batch_format="pyarrow"),
        "node", {"label": ("label", "min")}, combine="driver")
    node = np.asarray(init["node"].to_numpy(), dtype=np.int64)
    order = np.argsort(node)
    node = node[order]
    label = np.asarray(init["label"].to_numpy(), dtype=np.int64)[order]

    def compress(lab: np.ndarray) -> np.ndarray:
        # label values are always node ids present in `node`, so the
        # searchsorted lookup is total; label(u) <= u keeps it monotone
        while True:
            nxt = lab[np.searchsorted(node, lab)]
            if np.array_equal(nxt, lab):
                return lab
            lab = nxt

    label = compress(label)
    for _ in range(max_rounds):
        lab_tbl = pa.table({"node": node, "label": label})
        # task-based broadcast join (zero-copy ray.get of the small
        # label table per batch) — broadcast_join's ACTOR pool costs
        # a pool spin-up per ROUND, which dominated iterative CC
        lab_ref = ray.put(lab_tbl)
        msgs = edges.map_batches(
            _cc_label_join, fn_kwargs={"lab_ref": lab_ref},
            batch_format="pyarrow")
        part = grouped_agg(
            msgs.map_batches(to_dst, batch_format="pyarrow"),
            "node", {"label": ("label", "min")}, combine="driver")
        idx = np.searchsorted(
            node, np.asarray(part["node"].to_numpy(), dtype=np.int64))
        new = label.copy()
        np.minimum.at(new, idx,
                      np.asarray(part["label"].to_numpy(), dtype=np.int64))
        new = compress(new)
        if np.array_equal(new, label):
            break
        label = new
    return ray.data.from_arrow(pa.table({id_out: node, label_out: label}))


def _gram_part(n_parts: int):
    """`by` of a gram-keyed row: its gram hash `gh` mod n_parts."""
    return lambda t: np.asarray(t["gh"], dtype=np.uint64) % np.uint64(n_parts)


def exact_ngram_dup_pairs(ds, *, ngram: int = 8, min_shared: int = 2,
                          max_df: int = 16, id_col: str = "doc_id",
                          text_col: str = "text", n_parts: int = 256):
    """EXACT substring-level duplicate pairs (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"): all
    document pairs sharing >= min_shared exact word n-grams, with the
    shared-gram count.

    Scale shape: documents explode to DISTINCT (gram-hash, doc) rows
    (one sha256-derived 64-bit key per gram — the string itself never
    shuffles); rows co-locate on a coarse hash partition of the gram key,
    so the per-partition document-frequency bound IS the global one
    (all copies of a gram share its partition). Grams with df > max_df
    are dropped before pairing — the stop-gram guard that keeps the
    quadratic per-gram pair fan-out bounded (a gram in D docs yields
    D*(D-1)/2 pairs); pairing itself is the vectorized size-grouped
    kernel (bucketed_pairs_vectorized, no per-gram loop). Per-partition
    PARTIAL pair counts then combine through one grouped-sum shuffle
    bounded by distinct surviving pairs.

    Returns Dataset (id_a, id_b, n_shared), id_a < id_b.
    """
    import hashlib

    from .agg import grouped_agg
    from .text import _ngram_table

    def gram_rows(t: pa.Table) -> pa.Table:
        g = drop_duplicates(_ngram_table(t, id_col, text_col, ngram))
        codes, dic = dictionary_codes(g["g"])
        hu = np.fromiter(
            (int(hashlib.sha256(s.encode()).hexdigest()[:16], 16)
             for s in dic.to_pylist()),
            dtype=np.uint64, count=len(dic))
        gh = hu[codes]
        return pa.table({"gh": pa.array(gh), id_col: pc.cast(g[id_col], pa.int64())})

    rows = ds.map_batches(gram_rows, batch_format="pyarrow")

    def pairs_in_part(t: pa.Table) -> pa.Table:
        # global df bound: every copy of a gram is in this partition
        gid = group_ids(t, ["gh"])
        cnt = np.bincount(gid, minlength=1)[gid]
        keep = (cnt >= 2) & (cnt <= max_df)
        ia, ib = bucketed_pairs_vectorized(
            np.asarray(t["gh"], dtype=np.uint64)[keep],
            np.asarray(t[id_col], dtype=np.int64)[keep])
        return aggregate(pa.table({"id_a": ia, "id_b": ib}), ["id_a", "id_b"],
                         [("n", None, None, None)])

    from ..stages.exchange import hash_exchange

    partial = hash_exchange(rows, n_parts, pairs_in_part, _gram_part(n_parts))
    counts = grouped_agg(partial, ["id_a", "id_b"],
                         {"n_shared": ("n", "sum")}, combine="shuffle")

    def final_filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.greater_equal(t["n_shared"], min_shared))
        return t.set_column(t.schema.get_field_index("n_shared"), "n_shared",
                            pc.cast(t["n_shared"], pa.int64()))

    return counts.map_batches(final_filter, batch_format="pyarrow")


def exact_substring_removal(ds, *, window: int = 50,
                            id_col: str = "doc_id",
                            text_col: str = "text",
                            n_parts: int = 256,
                            n_doc_buckets: int = 32):
    """EXACT duplicated-substring REMOVAL (Lee et al. 2022 "ExactSubstr"):
    cut from every document each maximal token span covered by a
    ``window``-token substring that occurs >= 2 times corpus-wide
    (counting multiplicity — a phrase repeated within one document
    dedups too, exactly like the suffix-array formulation).

    Tokenizer contract: literal single-space split (DuckDB
    ``string_split(text, ' ')`` semantics — empty tokens preserved), so
    every window gram IS a byte-exact substring of the original text and
    the cleaned text is the kept tokens re-joined with single spaces.
    Callers with punctuated text normalize upstream.

    Scale shape (three bounded exchanges, never all-pairs, no driver
    collect, no broadcast of a vocabulary-scale set):
      1. docs explode to (doc, pos, gram-hash) rows — one row per token
         position (the same token-scale explosion as
         exact_ngram_dup_pairs); gram keys are sha256-derived 64-bit
         ints hashed once per DISTINCT gram per batch; the gram STRING
         never shuffles. Rows co-partition on the gram key
         (stages.exchange.hash_exchange), so the per-partition
         occurrence count IS the global one; only positions of
         duplicated windows survive — typically a tiny fraction.
      2. surviving (doc, pos) int rows co-partition by document into
         one sorted position-list row per affected document.
      3. relational.bucketed_join LEFT OUTER folds the cut into the
         join's own co-partition (bucket_fn): interval union via a
         +1/-1 delta array over the flattened token stream, kept tokens
         re-joined with Arrow binary_join — no per-row Python in the
         cut. Join fan-out is 1:<=1 (position lists pre-aggregated), so
         document text is never replicated.

    Per-batch gram materialization is window * text bytes (Arrow
    element-wise join of the window's token columns); size
    batch_size down for window=50 payloads.

    Limit: grams are equal when their 64-bit sha256 prefixes are, not
    their strings (as in exact_ngram_dup_pairs). A collision between two
    distinct grams would cut a span that is not duplicated; over n
    distinct grams its odds are about n^2 / 2^65.

    Returns Dataset (id_col, n_tokens, n_removed, clean_text).
    """
    import hashlib

    import pyarrow.compute as pc

    from ..stages.exchange import hash_exchange
    from .relational import bucketed_join

    def window_rows(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col], dtype=np.int64)
        toks = pc.split_pattern(
            pc.fill_null(t[text_col], ""), pattern=" ")
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        offs = flat.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = np.diff(offs)
        n_win = np.maximum(n_tok - window + 1, 0)
        total = int(n_win.sum())
        if total == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "pos": pa.array([], pa.int32()),
                "gh": pa.array([], pa.uint64()),
            })
        doc_of = np.repeat(np.arange(len(t), dtype=np.int64), n_win)
        starts = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(n_win) - n_win, n_win)  # 0-based window pos in doc
        vals = flat.values
        first = offs[doc_of] + starts  # flat index of window's first token
        gram = pc.binary_join_element_wise(
            *[vals.take(pa.array(first + j)) for j in range(window)], " ")
        codes, dic = dictionary_codes(gram)
        hu = np.fromiter(
            (int(hashlib.sha256(s.encode()).hexdigest()[:16], 16)
             for s in dic.to_pylist()),
            dtype=np.uint64, count=len(dic))
        gh = hu[codes]
        return pa.table({
            id_col: pa.array(ids[doc_of]),
            "pos": pa.array(starts.astype(np.int32)),
            "gh": pa.array(gh),
        })

    rows = ds.map_batches(window_rows, batch_format="pyarrow")

    def dup_positions(t: pa.Table) -> pa.Table:
        gh = np.asarray(t["gh"], dtype=np.uint64)
        _, inv, cnt = np.unique(gh, return_inverse=True, return_counts=True)
        keep = cnt[inv] >= 2
        ids = np.asarray(t[id_col], dtype=np.int64)[keep]
        return pa.table({
            id_col: pa.array(ids),
            "pos": pa.array(np.asarray(t["pos"], dtype=np.int32)[keep]),
        })

    empty_rows = pa.table({
        id_col: pa.array([], pa.int64()), "pos": pa.array([], pa.int32()),
        "gh": pa.array([], pa.uint64())})
    dup = hash_exchange(rows, n_parts, dup_positions, _gram_part(n_parts),
                        empty_out=dup_positions(empty_rows))

    def pos_lists(t: pa.Table) -> pa.Table:
        # positions pack to little-endian int32 bytes per doc: acero's
        # hash join (bucketed_join's per-bucket kernel) rejects list
        # payload columns, binary passes through untouched
        ids = np.asarray(t[id_col], dtype=np.int64)
        pos = np.asarray(t["pos"], dtype=np.int32)
        order = np.lexsort((pos, ids))
        ids, pos = ids[order], pos[order]
        uid, start = np.unique(ids, return_index=True)
        bounds = np.append(start, len(ids))
        blobs = [pos[bounds[i]:bounds[i + 1]].astype("<i4").tobytes()
                 for i in range(len(uid))]
        return pa.table({id_col: pa.array(uid),
                         "dup_pos": pa.array(blobs, pa.binary())})

    empty_dup = pa.table({
        id_col: pa.array([], pa.int64()), "pos": pa.array([], pa.int32())})
    lists_ds = hash_exchange(
        dup, n_doc_buckets, pos_lists,
        lambda t: np.asarray(t[id_col], dtype=np.int64) % n_doc_buckets,
        empty_out=pos_lists(empty_dup))

    def cut(t: pa.Table) -> pa.Table:
        out_schema = pa.schema([
            (id_col, pa.int64()), ("n_tokens", pa.int64()),
            ("n_removed", pa.int64()), ("clean_text", pa.string())])
        if t.num_rows == 0:
            return out_schema.empty_table()
        toks = pc.split_pattern(pc.fill_null(t[text_col], ""), pattern=" ")
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        offs = flat.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = np.diff(offs)
        total = int(offs[-1])
        delta = np.zeros(total + 1, dtype=np.int64)
        dp = t["dup_pos"].combine_chunks()
        # rows with no duplicated window carry a null blob
        valid = ~np.asarray(dp.is_null())
        if valid.any():
            row_idx = np.nonzero(valid)[0]
            blobs = dp.take(pa.array(row_idx)).to_pylist()
            counts = np.fromiter((len(b) // 4 for b in blobs),
                                 dtype=np.int64, count=len(blobs))
            pos = (np.frombuffer(b"".join(blobs), dtype="<i4")
                   .astype(np.int64))
            doc_of = np.repeat(row_idx, counts)
            lo = offs[doc_of] + pos
            np.add.at(delta, lo, 1)
            np.add.at(delta, lo + window, -1)
        removed = np.cumsum(delta[:-1]) > 0
        kept_idx = np.nonzero(~removed)[0]
        kept_per_doc = np.add.reduceat(
            (~removed).astype(np.int64), offs[:-1]) if total else n_tok
        kept_per_doc = np.where(n_tok == 0, 0, kept_per_doc)
        new_offs = np.append(0, np.cumsum(kept_per_doc)).astype(np.int64)
        kept_vals = flat.values.take(pa.array(kept_idx))
        lists = pa.ListArray.from_arrays(pa.array(new_offs), kept_vals)
        clean = pc.binary_join(lists, " ")
        return pa.table({
            id_col: t[id_col],
            "n_tokens": pa.array(n_tok.astype(np.int64)),
            "n_removed": pa.array((n_tok - kept_per_doc).astype(np.int64)),
            "clean_text": clean,
        })

    lists_schema = pa.schema([(id_col, pa.int64()),
                              ("dup_pos", pa.binary())])
    return bucketed_join(ds, lists_ds, key=id_col,
                         join_type="left outer",
                         n_buckets=n_doc_buckets,
                         right_schema=lists_schema, bucket_fn=cut)
