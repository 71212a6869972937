"""Model scoring as a streaming batch transform.

The lightest rung of the model-inference ladder in a training-data
pipeline: a fixed-weight linear / logistic scorer over numeric feature
columns (fastText-style quality classifiers, importance-resampling
weights, contamination priors all take this shape once featurized).
Pure map_batches — no state, no shuffle; heavier models follow the same
contract but live in an actor pool (see stages/multimodal.py for the
actor-pool pattern with per-actor setup in __init__).

Determinism contract: z is accumulated in float64 in a fixed column
order, probabilities use 1/(1+exp(-z)), and the driver oracle recomputes
the identical expression in SQL — so scores match the DuckDB twin
bit-for-bit (modulo the shared ROUND at the gate boundary).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def logistic_score(ds, weights: dict[str, float], bias: float = 0.0,
                   out_col: str = "score", keep_col: str | None = "keep",
                   threshold: float = 0.5, log1p_cols: tuple[str, ...] = ()):
    """Add sigmoid(bias + sum_i w_i * x_i) per row.

    weights: feature column -> coefficient, applied in dict order.
    log1p_cols: columns fed as log(1 + x) (long-tailed counts). Uses
    np.log(x + 1.0) — NOT log1p — so SQL ln(1 + x) reproduces the same
    double rounding.
    keep_col: optional boolean column `score >= threshold`.
    """

    def kernel(t: pa.Table) -> pa.Table:
        z = np.full(len(t), float(bias), dtype=np.float64)
        for col, w in weights.items():
            x = np.asarray(t[col], dtype=np.float64)
            if col in log1p_cols:
                x = np.log(x + 1.0)
            z += float(w) * x
        p = 1.0 / (1.0 + np.exp(-z))
        t = t.append_column(out_col, pa.array(p, pa.float64()))
        if keep_col:
            t = t.append_column(keep_col, pa.array(p >= threshold, pa.bool_()))
        return t

    return ds.map_batches(kernel, batch_format="pyarrow")


# Fixed demo weights for the gated docs classifier: reward stopword
# density and length, punish punctuation soup (Gopher/C4-style signals).
QUALITY_WEIGHTS = {
    "n_chars": 0.55,       # via log(1+x)
    "punct_ratio": -40.0,
    "stop_ratio": 18.0,
}
QUALITY_BIAS = -3.2


# --------------------------------------------------------------------------- #
# bigram language-model perplexity (CCNet-style corpus filter)
# --------------------------------------------------------------------------- #


def _bigram_arrow(batch: pa.Table, id_col: str, text_col: str):
    """Per-batch (doc, prev, cur) bigram rows + (doc, term) unigram rows
    as pa.Tables, with the corpus-standard tokenization (text._word_table:
    RE2 word runs, lowercased) — order-preserving so bigrams are
    consecutive; the terms never materialize as Python objects."""
    words = pc.split_pattern_regex(batch[text_col], pattern=r"[^\w']+")
    flat = pc.utf8_lower(pc.list_flatten(words))
    parents = pc.list_parent_indices(words)
    ids = pc.take(batch[id_col], parents)
    t0 = pa.table({"doc": ids, "term": flat,
                   "parent": parents}).filter(pc.not_equal(flat, ""))
    uni = t0.select(["doc", "term"])
    n = len(t0)
    if n < 2:
        empty = pa.table({"doc": pa.array([], t0.schema.field("doc").type),
                          "prev": pa.array([], pa.string()),
                          "cur": pa.array([], pa.string())})
        return empty, uni
    par = np.asarray(t0["parent"])
    same = pa.array(par[:-1] == par[1:])
    term = t0["term"].combine_chunks()
    bi = pa.table({"doc": t0["doc"].slice(0, n - 1),
                   "prev": term.slice(0, n - 1),
                   "cur": term.slice(1)}).filter(same)
    return bi, uni


def bigram_lm_perplexity(ds, id_col: str = "doc_id", text_col: str = "text",
                         alpha: float = 0.5, round_to: int = 4,
                         min_count: int = 1):
    """Per-document perplexity under an add-alpha-smoothed bigram LM
    trained on the corpus itself (the CCNet / Wenzek et al. 2020 quality
    signal: high-perplexity documents are boilerplate/noise candidates).

    Two passes, both streaming:
      1. LM stats — per-batch PARTIAL unigram/bigram counts (combiner),
         summed through one coarse grouped shuffle each; shuffle volume
         is bounded by distinct vocabulary/bigram types per block, never
         token count.
      2. Scoring — the count tables are broadcast (ray.put once) and each
         batch scores its documents with two vectorized merges. At
         100 TB, prune the broadcast with min_count > 1 (rare types fall
         back to count 0, the same smoothed formula applies) — the
         estimate stays well-defined because alpha > 0.

    p(w|v) = (c(v,w) + alpha) / (c(v) + alpha * V), V = |vocab|;
    ppl(doc) = exp(-mean ln p over its bigrams), ROUNDed (default 4 dp —
    the only order-dependent float step is the per-doc log sum, absorbed
    by the shared rounding). Documents with < 2 tokens are dropped (no
    bigrams), mirroring the SQL twin's natural GROUP BY semantics.

    Returns a Dataset (id_col, ppl, n_bigrams).
    """
    import ray

    from ._arrow import aggregate
    from .agg import grouped_agg
    from .relational import collect_table

    # ONE pass + ONE shuffle for both count tables: each batch tokenizes
    # once and emits its bigram partials (kind=0) unioned with its
    # unigram partials (kind=1, cur='' — tokenization drops empty terms,
    # so '' can never collide with a real token)
    def counts_partial(t: pa.Table) -> pa.Table:
        bi, uni = _bigram_arrow(t, id_col, text_col)
        gb = aggregate(bi, ["prev", "cur"], [("count_all", None, None, None)])
        gu = aggregate(uni, ["term"], [("count_all", None, None, None)])
        return pa.table({
            "kind": pa.array(
                np.concatenate([np.zeros(len(gb), np.int64),
                                np.ones(len(gu), np.int64)])),
            "prev": pa.concat_arrays(
                [pc.cast(gb["prev"], pa.string()).combine_chunks(),
                 pc.cast(gu["term"], pa.string()).combine_chunks()]),
            "cur": pa.concat_arrays(
                [pc.cast(gb["cur"], pa.string()).combine_chunks(),
                 pa.array([""] * len(gu), pa.string())]),
            "n": pa.concat_arrays(
                [pc.cast(gb["count_all"], pa.int64()).combine_chunks(),
                 pc.cast(gu["count_all"], pa.int64()).combine_chunks()]),
        })

    counts = collect_table(grouped_agg(
        ds.map_batches(counts_partial, batch_format="pyarrow"),
        ["kind", "prev", "cur"], {"n": ("n", "sum")},
        combine="shuffle"))
    if not counts.num_columns:  # no rows: Ray never called counts_partial
        counts = counts_partial(pa.table({id_col: [], text_col: pa.array([], pa.string())}))
    bi_counts = counts.filter(pc.equal(counts["kind"], 0)).select(["prev", "cur", "n"])
    uni_counts = counts.filter(pc.equal(counts["kind"], 1)).select(["prev", "n"])

    vocab_size = uni_counts.num_rows
    if min_count > 1:
        bi_counts = bi_counts.filter(pc.greater_equal(bi_counts["n"], min_count))
        uni_counts = uni_counts.filter(pc.greater_equal(uni_counts["n"], min_count))

    bi_ref = ray.put(bi_counts)
    uni_ref = ray.put(uni_counts.rename_columns(["prev", "cn"]))
    a = float(alpha)
    aV = a * float(vocab_size)

    def score(t: pa.Table) -> pa.Table:
        bi_c = ray.get(bi_ref)
        uni_c = ray.get(uni_ref)
        bi, _ = _bigram_arrow(t, id_col, text_col)
        if not len(bi):
            return pa.table({id_col: pa.array([], pa.int64()),
                             "ppl": pa.array([], pa.float64()),
                             "n_bigrams": pa.array([], pa.int64())})
        # acero hash joins (no per-row Python); the row-index sort
        # restores the original bigram order, so each doc sums its
        # log-probs in bigram order (deterministic at any parallelism;
        # a doc's bigrams never split across batches)
        bi = bi.append_column("__i", pa.array(np.arange(len(bi))))
        j = bi.join(bi_c, keys=["prev", "cur"], join_type="left outer")
        j = j.join(uni_c, keys="prev", join_type="left outer")
        j = j.sort_by("__i")
        cb = np.asarray(pc.fill_null(pc.cast(j["n"], pa.float64()), 0.0))
        cu = np.asarray(pc.fill_null(pc.cast(j["cn"], pa.float64()), 0.0))
        lp = np.log((cb + a) / (cu + aV))
        docs = np.asarray(j["doc"], dtype=np.int64)
        order = np.argsort(docs, kind="mergesort")
        ds_ = docs[order]
        lp_s = lp[order]
        seg = np.concatenate(([0], 1 + np.nonzero(ds_[1:] != ds_[:-1])[0]))
        s = np.add.reduceat(lp_s, seg)
        nb = np.diff(np.concatenate([seg, [len(ds_)]]))
        ppl = np.round(np.exp(-s / nb.astype(np.float64)), round_to) + 0.0
        return pa.table({id_col: pa.array(ds_[seg], pa.int64()),
                         "ppl": pa.array(ppl, pa.float64()),
                         "n_bigrams": pa.array(nb.astype(np.int64))})

    return ds.map_batches(score, batch_format="pyarrow")


def bigram_lm_sql(table: str = "documents", id_col: str = "doc_id",
                  text_col: str = "text", alpha: float = 0.5,
                  round_to: int = 4) -> str:
    """DuckDB twin of bigram_lm_perplexity (min_count=1): identical
    tokenization, identical smoothed probability, shared final ROUND."""
    return rf"""
        WITH w AS (
          SELECT {id_col} AS doc,
                 list_transform(regexp_extract_all({text_col}, '[\w'']+'),
                                x -> lower(x)) AS ws
          FROM {table}),
        uni AS (
          SELECT unnest(ws) AS term, doc FROM w),
        cu AS (SELECT term, COUNT(*)::BIGINT AS n FROM uni GROUP BY term),
        v AS (SELECT COUNT(*)::DOUBLE AS v FROM cu),
        bi AS (
          SELECT doc, unnest(list_transform(range(1, len(ws)),
                             i -> struct_pack(p := ws[i], c := ws[i + 1]))) AS pc
          FROM w),
        dbi AS (SELECT doc, pc.p AS prev, pc.c AS cur FROM bi),
        cb AS (SELECT prev, cur, COUNT(*)::BIGINT AS n
               FROM dbi GROUP BY prev, cur),
        scored AS (
          SELECT d.doc,
                 SUM(ln((cb.n + {alpha!r}) / (cu.n + {alpha!r} * v.v))) AS lp,
                 COUNT(*)::BIGINT AS nb
          FROM dbi d
          JOIN cb ON cb.prev = d.prev AND cb.cur = d.cur
          JOIN cu ON cu.term = d.prev, v
          GROUP BY d.doc)
        SELECT doc AS {id_col},
               ROUND(exp(-lp / nb), {round_to}) + 0.0 AS ppl,
               nb AS n_bigrams
        FROM scored
    """


def _word_buckets(batch: pa.Table, text_col: str, n_buckets: int, cache: dict):
    """(row_index_in_batch, bucket) int64 arrays for every word instance:
    the DuckDB-twin tokenization (text.py _word_table), sha256-derived
    word hash modulo n_buckets, hashed once per DISTINCT word per batch
    (cache persists across batches on the worker)."""
    from .dedup import _sha_word_hash

    words = pc.split_pattern_regex(
        pc.fill_null(pc.cast(batch[text_col], pa.large_string()), ""),
        pattern=r"[^\w']+")
    flat = pc.utf8_lower(pc.list_flatten(words))
    parents = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    d = pc.dictionary_encode(flat).combine_chunks()
    if isinstance(d, pa.ChunkedArray):
        d = d.chunk(0) if d.num_chunks else \
            pa.array([], pa.string()).dictionary_encode()
    vocab = d.dictionary.to_pylist()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    bk = np.empty(len(vocab), dtype=np.int64)
    keep_v = np.empty(len(vocab), dtype=bool)
    for i, w in enumerate(vocab):
        h = cache.get(w)
        if h is None:
            h = cache[w] = _sha_word_hash(w) % n_buckets
        bk[i] = h
        keep_v[i] = w != ""
    if not len(codes):
        return (np.zeros(0, np.int64), np.zeros(0, np.int64))
    keep = keep_v[codes]
    return parents[keep], bk[codes[keep]]


def dsir_importance(corpus_ds, target_ds, *, n_buckets: int = 64,
                    k: int = 50, id_col: str = "doc_id",
                    text_col: str = "text", scale: int = 1_000_000):
    """DSIR-style data selection (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling" — public method): hashed
    unigram features; per-document importance weight = sum over word
    instances of log(p_target[bucket] / p_source[bucket]) with
    Laplace-smoothed bucket unigram distributions; the k top-weight
    documents are the selected subset.

    Exactness design: the per-bucket log-ratios quantize to integer
    MICRO-NATS (ROUND(ln(pt/ps) * scale), half away from zero = SQL
    ROUND), so each document's weight is an integer dot product
    n_doc,bucket . w_bucket — bit-identical across engines, summation
    orders, and parallelism (a float log-ratio sum would ulp-diverge
    between numpy and a SQL oracle). Selection rank is the total order
    (weight DESC, doc_id ASC).

    Scale shape: two streaming passes over the corpus (histogram, then
    weights) — per-block partials are n_buckets ints, merged driver-side
    (blocks x n_buckets, independent of corpus size); the quantized
    ratio table (n_buckets ints) broadcasts into pass 2; the only
    collect is the k-row top-k. No shuffle anywhere."""
    from ..stages.worker_cache import get_cached
    from .relational import collect_table, topk

    def hist_kernel(t: pa.Table) -> pa.Table:
        cache = get_cached(f"dsir-wh-{n_buckets}", build=lambda _: {})
        _, bk = _word_buckets(t, text_col, n_buckets, cache)
        return pa.table({"bucket": pa.array(np.arange(n_buckets), pa.int64()),
                         "n": pa.array(np.bincount(bk, minlength=n_buckets)
                                       .astype(np.int64))})

    def hist(ds) -> np.ndarray:
        parts = collect_table(
            ds.map_batches(hist_kernel, batch_format="pyarrow"))
        out = np.zeros(n_buckets, dtype=np.int64)
        np.add.at(out, np.asarray(parts["bucket"], dtype=np.int64),
                  np.asarray(parts["n"], dtype=np.int64))
        return out

    cs = hist(corpus_ds)
    ct = hist(target_ds)
    sn, tn = int(cs.sum()), int(ct.sum())
    ratio = np.log(((ct + 1.0) / (tn + n_buckets))
                   / ((cs + 1.0) / (sn + n_buckets))) * float(scale)
    wq = np.copysign(np.floor(np.abs(ratio) + 0.5), ratio).astype(np.int64)

    def weight_kernel(t: pa.Table) -> pa.Table:
        cache = get_cached(f"dsir-wh-{n_buckets}", build=lambda _: {})
        rows, bk = _word_buckets(t, text_col, n_buckets, cache)
        w = np.zeros(len(t), dtype=np.int64)
        np.add.at(w, rows, wq[bk])
        return pa.table({id_col: t[id_col], "dsir_w": pa.array(w)})

    # materialize: `weights` is consumed twice (top-k scan + returned
    # flagged pipeline); without the cache pass 2 and the upstream corpus
    # read would re-execute per consumer (ADVICE r4). The cached table is
    # (id, int64) per doc — tiny relative to the corpus — and lives in
    # the distributed object store, so this is cluster-safe.
    weights = corpus_ds.map_batches(
        weight_kernel, batch_format="pyarrow").materialize()
    top = collect_table(topk(weights, "dsir_w", k, descending=True,
                             tie_cols=[id_col]))
    picked = set(np.asarray(top[id_col], dtype=np.int64).tolist())

    def flag(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col], dtype=np.int64)
        return t.append_column(
            "picked", pa.array(np.fromiter((int(i) in picked for i in ids),
                                           dtype=bool, count=len(ids))))

    return weights.map_batches(flag, batch_format="pyarrow")


def nb_train_score(ds, *, label_col: str, id_col: str = "doc_id",
                   text_col: str = "text", n_buckets: int = 256,
                   scale: int = 1_000_000, score_ds=None):
    """TRAIN a binary multinomial Naive Bayes text classifier on a
    labeled corpus and score documents with it — the fastText-style
    quality-filter training step (train on curated-vs-crawl labels,
    filter the crawl by the trained model) that logistic_score only
    APPLIES fixed weights for.

    Features are hashed unigrams (_word_buckets: the DuckDB-twin
    tokenizer, sha256 bucket hash). Training is ONE streaming pass: each
    block contributes a (2 x n_buckets + 2)-int partial (per-label
    bucket counts + per-label doc counts), merged driver-side — volume
    blocks x buckets, independent of corpus size. Per-bucket
    log-likelihood ratios and the class-prior log-odds quantize to
    integer MICRO-NATS (ROUND(ln(.) * scale), half away from zero = SQL
    ROUND) exactly like dsir_importance, so every document's score is an
    integer dot product — bit-identical across engines, summation orders
    and parallelism. Scoring is a second streaming pass with the
    (n_buckets+1)-int model broadcast; no shuffle anywhere.

    score_ds: dataset to score (defaults to the training corpus — e.g.
    train on a labeled sample, score the full crawl).

    Returns Dataset (id_col, nb_score int64, predicted bool) with
    predicted = nb_score > 0.
    """
    from ..stages.worker_cache import get_cached
    from .relational import collect_table

    def hist_kernel(t: pa.Table) -> pa.Table:
        cache = get_cached(f"nb-wh-{n_buckets}", build=lambda _: {})
        rows, bk = _word_buckets(t, text_col, n_buckets, cache)
        lab = np.asarray(t[label_col]).astype(bool)
        cnt = np.bincount(lab[rows].astype(np.int64) * n_buckets + bk,
                          minlength=2 * n_buckets).astype(np.int64)
        cnt = np.concatenate([cnt, [int((~lab).sum()), int(lab.sum())]])
        return pa.table({
            "cell": pa.array(np.arange(2 * n_buckets + 2), pa.int64()),
            "n": pa.array(cnt)})

    parts = collect_table(ds.map_batches(hist_kernel, batch_format="pyarrow"))
    tot = np.zeros(2 * n_buckets + 2, dtype=np.int64)
    np.add.at(tot, np.asarray(parts["cell"], dtype=np.int64),
              np.asarray(parts["n"], dtype=np.int64))
    n_neg, n_pos = tot[:n_buckets], tot[n_buckets:2 * n_buckets]
    dn, dp = int(tot[-2]), int(tot[-1])
    if dn == 0 or dp == 0:
        raise ValueError(f"nb_train_score needs both classes; got "
                         f"{dp} positive / {dn} negative docs")
    Np, Nn = float(n_pos.sum()), float(n_neg.sum())
    llr = np.log(((n_pos + 1.0) / (Np + n_buckets))
                 / ((n_neg + 1.0) / (Nn + n_buckets))) * float(scale)
    wq = np.copysign(np.floor(np.abs(llr) + 0.5), llr).astype(np.int64)
    pr = np.log(dp / dn) * float(scale)
    prior = int(np.copysign(np.floor(abs(pr) + 0.5), pr))

    def score_kernel(t: pa.Table) -> pa.Table:
        cache = get_cached(f"nb-wh-{n_buckets}", build=lambda _: {})
        rows, bk = _word_buckets(t, text_col, n_buckets, cache)
        s = np.full(len(t), prior, dtype=np.int64)
        np.add.at(s, rows, wq[bk])
        return pa.table({id_col: t[id_col],
                         "nb_score": pa.array(s),
                         "predicted": pa.array(s > 0)})

    target = ds if score_ds is None else score_ds
    return target.map_batches(score_kernel, batch_format="pyarrow")
