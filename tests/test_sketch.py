"""HyperLogLog / count-min sketch operators (functions/sketch.py)."""
import numpy as np
import pyarrow as pa
import pytest


def _events(n=20000, n_users=3000, seed=3):
    rng = np.random.default_rng(seed)
    return pa.table({
        "grp": pa.array(rng.integers(0, 3, n)),
        "uid": pa.array(rng.integers(0, n_users, n)),
    })


def test_hll_accuracy_and_determinism(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.sketch import hll_distinct

    t = _events()
    est1 = hll_distinct(rd.from_arrow(t).repartition(7), "grp", "uid",
                        p=10).to_pandas().sort_values("grp")
    est2 = hll_distinct(rd.from_arrow(t).repartition(2), "grp", "uid",
                        p=10).to_pandas().sort_values("grp")
    # merge is order-independent -> identical at any parallelism
    assert est1["hll_estimate"].tolist() == est2["hll_estimate"].tolist()
    exact = (t.to_pandas().groupby("grp")["uid"].nunique()
             .sort_index().to_numpy())
    rel = np.abs(est1["hll_estimate"].to_numpy() - exact) / exact
    # standard error ~ 1.04/sqrt(1024) ~ 3.3%; allow 4 sigma
    assert (rel < 0.13).all(), (est1["hll_estimate"].tolist(), exact)


def test_hll_small_range_correction(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.sketch import hll_distinct

    t = pa.table({"g": pa.array([0] * 50), "v": pa.array(list(range(25)) * 2)})
    est = hll_distinct(rd.from_arrow(t), "g", "v", p=8).to_pandas()
    # 25 distinct << 2.5 m -> linear-counting branch, near-exact
    assert abs(est["hll_estimate"][0] - 25) < 3


def test_hll_matches_duckdb_twin(ray_session):
    import duckdb
    import ray.data as rd

    from simplefeatures_ray.functions.sketch import hll_distinct, hll_sql

    t = _events(5000, 800, seed=11)
    eng = hll_distinct(rd.from_arrow(t).repartition(5), "grp", "uid",
                       p=9).to_pandas().sort_values("grp").reset_index(drop=True)
    con = duckdb.connect()
    con.register("ev", t.to_pandas())
    sql = hll_sql("ev", "grp", "uid", p=9)
    ora = con.execute(sql).fetchdf().sort_values("grp").reset_index(drop=True)
    assert eng["hll_estimate"].tolist() == ora["hll_estimate"].tolist()


def test_cms_one_sided_and_exact_on_heavy(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.sketch import cms_counts

    rng = np.random.default_rng(5)
    vals = np.concatenate([np.full(500, 7), np.full(300, 13),
                           rng.integers(100, 5000, 4000)])
    t = pa.table({"v": pa.array(vals)})
    out = cms_counts(rd.from_arrow(t).repartition(6), "v",
                     [7, 13, 99], depth=4, width=4096).to_pandas()
    out = out.set_index("v")["cms_estimate"]
    truth = {7: 500, 13: 300, 99: 0}
    for k, exact in truth.items():
        assert out[k] >= exact  # one-sided error
        assert out[k] - exact <= 2 * len(vals) / 4096 * 4  # loose cm bound
    # heavy hitters with few collisions: estimates close to exact
    assert out[7] - 500 <= 10 and out[13] - 300 <= 10


def test_cms_parallelism_invariant(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.sketch import cms_counts

    t = _events(8000, 200, seed=9)
    a = cms_counts(rd.from_arrow(t).repartition(9), "uid", list(range(10)),
                   width=1024).to_pandas()
    b = cms_counts(rd.from_arrow(t).repartition(3), "uid", list(range(10)),
                   width=1024).to_pandas()
    assert a["cms_estimate"].tolist() == b["cms_estimate"].tolist()


def test_hll_p_validation():
    from simplefeatures_ray.functions.sketch import hll_distinct

    with pytest.raises(ValueError):
        hll_distinct(None, "g", "v", p=3)


# --------------------------------------------------------------------------- #
# bigram LM perplexity (functions/scoring.py)
# --------------------------------------------------------------------------- #


def _doc_table():
    docs = [
        "the cat sat on the mat the cat sat again",      # repetitive
        "the dog ran to the park and the dog barked",
        "quantum flux oscillates stochastically beyond comprehension",
        "zz",                                             # single token -> dropped
        "",                                               # empty -> dropped
    ] * 3
    return pa.table({"doc_id": pa.array(range(len(docs))),
                     "text": pa.array(docs)})


def test_lm_perplexity_signal_and_drops(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.scoring import bigram_lm_perplexity

    out = bigram_lm_perplexity(rd.from_arrow(_doc_table()).repartition(4)) \
        .to_pandas().set_index("doc_id")
    # single-token and empty docs produce no bigrams -> absent
    assert 3 not in out.index and 4 not in out.index
    assert out.loc[0, "n_bigrams"] == 9
    # a doc whose only bigram dominates the corpus scores much lower
    # perplexity than a doc whose bigram appears once
    common = pa.table({"doc_id": pa.array(range(31)),
                       "text": pa.array(["aa bb"] * 30 + ["cc dd"])})
    o2 = bigram_lm_perplexity(rd.from_arrow(common)).to_pandas() \
        .set_index("doc_id")
    assert o2.loc[0, "ppl"] < o2.loc[30, "ppl"]


def test_lm_perplexity_parallelism_invariant(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.scoring import bigram_lm_perplexity

    t = _doc_table()
    a = bigram_lm_perplexity(rd.from_arrow(t).repartition(6)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    b = bigram_lm_perplexity(rd.from_arrow(t).repartition(1)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_lm_perplexity_min_count_prune(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.scoring import bigram_lm_perplexity

    t = _doc_table()
    out = bigram_lm_perplexity(rd.from_arrow(t), min_count=2).to_pandas()
    # pruning drops rare types from the broadcast but scoring still
    # covers every doc with bigrams (smoothing handles zero counts)
    assert set(out["doc_id"]) == {i for i in range(15) if i % 5 not in (3, 4)}
    assert (out["ppl"] > 0).all()


# --------------------------------------------------------------------------- #
# Bloom filter (functions/sketch.py)
# --------------------------------------------------------------------------- #


def test_bloom_anti_filter_semantics(ray_session):
    """Blocked keys always dropped; survivors = exactly the keys whose
    bloom probe misses (false positives drop deterministically, never
    the reverse)."""
    import hashlib

    import ray.data as rd

    from simplefeatures_ray.functions.sketch import bloom_anti_filter, bloom_build

    blocked = list(range(0, 50))
    n_bits, k = 128, 2  # tiny filter -> guaranteed false positives
    bits = bloom_build(blocked, n_bits=n_bits, k=k)
    t = pa.table({"key": pa.array(list(range(500)))})
    out = bloom_anti_filter(rd.from_arrow(t).repartition(4), "key", bits,
                            k=k).to_pandas()
    survivors = set(out["key"])
    assert survivors.isdisjoint(blocked)  # no blocked key survives

    def probe_hits(v):
        return all(
            bits[int(hashlib.sha256(f"bloom{d}:{v}".encode()).hexdigest()[:8],
                     16) % n_bits]
            for d in range(k))

    expect = {v for v in range(500) if not probe_hits(v)}
    assert survivors == expect
    # the tiny filter really does produce false positives
    fps = {v for v in range(50, 500) if probe_hits(v)}
    assert fps and fps.isdisjoint(survivors)


# --------------------------------------------------------------------------- #
# context-window chunking (functions/text.py)
# --------------------------------------------------------------------------- #


def test_chunk_documents_boundaries(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.text import chunk_documents

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3]),
        "text": pa.array([
            " ".join(f"t{i}" for i in range(10)),   # n=10 <= window -> 1 chunk
            " ".join(f"u{i}" for i in range(16)),   # n=16 -> chunks at 0,6,12
            "solo",                                  # 1 token
            "",                                      # empty -> no chunks
        ]),
    })
    out = chunk_documents(rd.from_arrow(docs).repartition(3), window=12,
                          stride=6).to_pandas().sort_values(
        ["doc_id", "chunk_id"]).reset_index(drop=True)
    assert out[out["doc_id"] == 0]["n_tokens"].tolist() == [10]
    d1 = out[out["doc_id"] == 1]
    assert d1["chunk_id"].tolist() == [0, 1]
    assert d1["n_tokens"].tolist() == [12, 10]  # second window clipped at 16
    assert d1["chunk_text"].iloc[1].split() == [f"u{i}" for i in range(6, 16)]
    assert out[out["doc_id"] == 2]["chunk_text"].tolist() == ["solo"]
    assert 3 not in set(out["doc_id"])

    import pytest as _pytest
    with _pytest.raises(ValueError):
        chunk_documents(None, window=4, stride=8)


def test_sentence_stats_rules(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.text import sentence_stats

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2]),
        "text": pa.array([
            "One. Two two! Three three three?",
            "No terminal punctuation here",
            "...",                       # only punctuation -> dropped
        ]),
    })
    out = sentence_stats(rd.from_arrow(docs).repartition(2)).to_pandas() \
        .set_index("doc_id")
    assert out.loc[0, "n_sentences"] == 3
    assert out.loc[0, "mean_sentence_chars"] == round((3 + 7 + 17) / 3, 4)
    assert out.loc[1, "n_sentences"] == 1  # whole doc is one sentence
    assert 2 not in out.index


def test_rolling_mean_windows(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.windows import rolling_mean

    t = pa.table({
        "eid": pa.array([0, 1, 2, 3, 4, 5]),
        "uid": pa.array([7, 7, 7, 7, 9, 9]),
        "ts": pa.array([10, 20, 30, 40, 10, 5]),
        "value": pa.array([1.0, 2.0, 3.0, 10.0, 5.0, 1.0]),
    })
    out = rolling_mean(rd.from_arrow(t).repartition(3), "uid", "ts",
                       "value", window_rows=3, tie_col="eid") \
        .to_pandas().set_index("eid")["roll_mean"]
    assert out[0] == 1.0
    assert out[1] == 1.5
    assert out[2] == 2.0            # (1+2+3)/3
    assert out[3] == 5.0            # (2+3+10)/3
    # user 9 ordered by ts: eid5 (ts=5) comes first
    assert out[5] == 1.0
    assert out[4] == 3.0            # (1+5)/2


def test_nfc_normalize_detects_decomposed(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.text import nfc_normalize_stats

    composed = "café"            # é precomposed
    decomposed = "café"         # e + combining acute
    t = pa.table({"doc_id": pa.array([0, 1, 2]),
                  "text": pa.array([composed, decomposed, "plain"])})
    out = nfc_normalize_stats(rd.from_arrow(t)).to_pandas().set_index("doc_id")
    assert not out.loc[0, "nfc_changed"]
    assert out.loc[1, "nfc_changed"]
    # both forms collapse to the same canonical fingerprint
    assert out.loc[0, "nfc_sha16"] == out.loc[1, "nfc_sha16"]
    assert not out.loc[2, "nfc_changed"]


def test_pivot_counts(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.text import pivot_counts

    t = pa.table({
        "lang": pa.array(["en"] * 5 + ["de"] * 3),
        "src": pa.array(["a", "a", "b", "zz", "q", "b", "b", "a"]),
    })
    out = pivot_counts(rd.from_arrow(t).repartition(3), "lang", "src",
                       ["a", "b"]).to_pandas().set_index("lang")
    assert out.loc["en", "n_a"] == 2 and out.loc["en", "n_b"] == 1
    assert out.loc["en", "n_other"] == 2 and out.loc["en", "n_total"] == 5
    assert out.loc["de", "n_a"] == 1 and out.loc["de", "n_b"] == 2
    assert out.loc["de", "n_other"] == 0 and out.loc["de", "n_total"] == 3


def test_heavy_hitters_guarantee_and_exact_counts(ray_session):
    """Misra-Gries candidates + exact recount: top-k by exact count with
    value tie-break, matched against a driver-side exact groupby on a
    skewed corpus split across many small blocks (worst case for the
    per-block summaries)."""
    import pandas as pd

    import ray.data as rd

    from simplefeatures_ray.functions.sketch import heavy_hitters

    rng = np.random.default_rng(4)
    # zipf-ish: few hot values + long tail
    hot = [f"hot{i}" for i in range(30)]
    tail = [f"t{i}" for i in range(5000)]
    vals = list(rng.choice(hot, 30000, p=np.linspace(5, 1, 30) / np.sum(np.linspace(5, 1, 30))))
    vals += list(rng.choice(tail, 20000))
    rng.shuffle(vals)
    t = pa.table({"v": pa.array(vals, pa.string())})
    out = heavy_hitters(rd.from_arrow(t).repartition(16), "v",
                        k=15, capacity=256)
    ref = (pd.Series(vals).value_counts().rename_axis("value")
           .reset_index(name="n"))
    ref = ref.sort_values(["n", "value"], ascending=[False, True],
                          kind="mergesort").head(15)
    assert out["value"].to_pylist() == ref["value"].tolist()
    assert out["n"].to_pylist() == ref["n"].tolist()


def test_heavy_hitters_ties_at_the_capacity_cut(ray_session):
    """More distinct values than `capacity` in every block, many of them
    tied where the per-block summaries cut, and four heavy values tied
    with each other where the top k cuts: the counts are still exact
    and the tie goes to the smaller value."""
    import ray.data as rd

    from simplefeatures_ray.functions.sketch import heavy_hitters

    vals = [h for h in "dbca" for _ in range(40)]
    vals += [f"t{i:02d}" for i in range(40) for _ in range(2)]
    np.random.default_rng(5).shuffle(vals)
    t = pa.table({"v": pa.array(vals, pa.string())})
    out = heavy_hitters(rd.from_arrow(t).repartition(4), "v", k=3, capacity=8)
    assert out["value"].to_pylist() == ["a", "b", "c"]
    assert out["n"].to_pylist() == [40, 40, 40]
