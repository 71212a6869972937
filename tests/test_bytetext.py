"""Regression tests for the byte-class text engine's row-boundary edge
cases (ADVICE r2, high): batches whose FINAL rows are empty/null used to
crash _start_mask (out-of-bounds offsets == len(buf)) and silently
undercount the last non-empty row in count() via the old clamp."""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from simplefeatures_ray.functions import _bytetext as bt
from simplefeatures_ray.functions.text import (
    AnalyzeText,
    Fingerprint,
    LangId,
    QualityScore,
    TokenCount,
)

EDGE_BATCHES = [
    ["x!", ""],                       # trailing empty (the reported crash)
    ["hi!", "", ""],                  # multiple trailing empties
    [None],                           # single null row
    ["", "a b", None, ""],            # leading/mid/trailing empties + null
    ["", "", ""],                     # all empty
    [""],
    ["the quick brown fox!", None, "it's ok", ""],
    ["a", ""],                        # 1-byte final non-empty row
]


def _punct_count(s):
    import re

    return len(re.findall(r"[^\w\s]", s or ""))


def test_count_no_undercount_with_trailing_empty():
    b = bt.BatchText(pa.chunked_array([pa.array(["hi!", ""], pa.string())]))
    punct = ~bt.word_mask(b.buf) & ~bt.ws_mask(b.buf)
    out = b.count(punct)
    assert out.tolist() == [1, 0]  # old clamp returned [0, 0]


def test_count_and_runs_match_per_row_reference():
    for rows in EDGE_BATCHES:
        b = bt.BatchText(pa.chunked_array([pa.array(rows, pa.string())]))
        letter = bt.letter_mask(b.buf)
        counts = b.count(letter)
        run_counts = b.run_start_counts(letter)
        import re

        for i, s in enumerate(rows):
            s = s or ""
            assert counts[i] == sum(c.isalpha() and c.isascii() for c in s), (rows, i)
            assert run_counts[i] == len(re.findall(r"[A-Za-z]+", s)), (rows, i)


def test_nonascii_rows_detects_final_row():
    # the old clamp made nonascii_rows miss a final non-ASCII row whose
    # non-ASCII byte is the last byte of the buffer
    b = bt.BatchText(pa.chunked_array([pa.array(["plain", "café"], pa.string())]))
    assert b.nonascii_rows.tolist() == [1]


def test_kernels_stable_under_empty_tail():
    """Each kernel's output for row i must not depend on empty/null rows
    appended after it."""
    kernels = [TokenCount(), QualityScore(), LangId(), Fingerprint(), AnalyzeText()]
    base = ["the quick brown fox jumped!", "it's a test", "zz?? 123"]
    t_base = pa.table({"text": pa.array(base, pa.string())})
    t_tail = pa.table({"text": pa.array(base + ["", None, ""], pa.string())})
    for k in kernels:
        a = k(t_base).to_pandas()
        btab = k(t_tail).to_pandas().iloc[: len(base)].reset_index(drop=True)
        for c in a.columns:
            av, bv = a[c].to_numpy(), btab[c].to_numpy()
            assert (av == bv).all(), (type(k).__name__, c, av, bv)


def test_kernels_no_crash_on_edge_batches():
    for rows in EDGE_BATCHES:
        t = pa.table({"text": pa.array(rows, pa.string())})
        out = AnalyzeText()(t)
        assert len(out) == len(rows)
        n_tok = out["n_tokens"].to_pylist()
        for i, s in enumerate(rows):
            if not s:
                assert n_tok[i] == 0


def test_normalize_ws_lower_trailing_empty():
    rows = ["  Hello   WORLD  ", "", None, "a", ""]
    b = bt.BatchText(pa.chunked_array([pa.array(rows, pa.string())]))
    buf, offsets = bt.normalize_ws_lower(b)
    got = [bytes(buf[offsets[i]:offsets[i + 1]]).decode() for i in range(len(rows))]
    want = [" ".join((s or "").lower().split()) for s in rows]
    assert got == want


def test_term_stats_small(ray_session):
    import math

    import pyarrow as pa
    import ray

    from simplefeatures_ray.functions.text import term_stats

    docs = pa.table({"doc_id": [1, 2], "text": ["a b a", "b c"]})
    out = (term_stats(ray.data.from_arrow(docs), n_docs=2)
           .to_pandas().sort_values(["doc_id", "term"]).reset_index(drop=True))
    got = {(r.doc_id, r.term): (r.tf, r.df, r.tfidf)
           for r in out.itertuples(index=False)}
    ln2 = round(math.log(2.0), 7)
    assert got == {(1, "a"): (2, 1, round(2 * math.log(2.0), 7)),
                   (1, "b"): (1, 2, 0.0),
                   (2, "b"): (1, 2, 0.0),
                   (2, "c"): (1, 1, ln2)}


def test_repetition_metrics_small(ray_session):
    import pyarrow as pa
    import ray

    from simplefeatures_ray.functions.text import repetition_metrics

    docs = pa.table({"doc_id": [1, 2, 3, 4],
                     "text": ["a b a b", "x", "", "c c c c"]})
    out = (repetition_metrics(ray.data.from_arrow(docs))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["n_words"].tolist() == [4, 1, 0, 4]
    # doc1 bigrams: "a b","b a","a b" -> top 2/3; doc4: "c c" x3 -> 1.0
    assert out["top_bigram_frac"].tolist() == [
        round(2 / 3, 7), 0.0, 0.0, 1.0]
    # doc1 trigrams "a b a","b a b" unique -> 0; doc4 "c c c" x2 -> 1.0
    assert out["dup_trigram_frac"].tolist() == [0.0, 0.0, 0.0, 1.0]


def test_repetition_metrics_docs_of_zero_one_and_two_words(ray_session):
    """A batch whose docs are all too short for a trigram (and one with
    no bigram at all): every doc still gets a row, 0.0 where the n-gram
    count is zero."""
    import pyarrow as pa
    import ray

    from simplefeatures_ray.functions.text import repetition_metrics

    for texts, n_words, top_bi in [
        (["", "x", "x y"], [0, 1, 2], [0.0, 0.0, 1.0]),
        (["", "solo"], [0, 1], [0.0, 0.0]),
    ]:
        docs = pa.table({"doc_id": list(range(len(texts))), "text": texts})
        out = (repetition_metrics(ray.data.from_arrow(docs))
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert out["n_words"].tolist() == n_words
        assert out["top_bigram_frac"].tolist() == top_bi
        assert out["dup_trigram_frac"].tolist() == [0.0] * len(texts)


def test_contamination_check_small(ray_session):
    import pyarrow as pa
    import ray

    from simplefeatures_ray.functions.text import contamination_check

    bench = pa.table({"doc_id": [100],
                      "text": ["alpha beta gamma delta epsilon zeta"]})
    corpus = pa.table({"doc_id": [1, 2, 3], "text": [
        # two overlapping 5-gram occurrences (positions 0 and 1 windows
        # both land in the benchmark's 5-gram set)
        "alpha beta gamma delta epsilon zeta eta",
        "no overlap here at all with anything",
        "zeta alpha beta gamma delta",  # shifted - no exact 5-gram match
    ]})
    out = (contamination_check(ray.data.from_arrow(corpus),
                               ray.data.from_arrow(bench), ngram=5)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [1]
    assert out["n_hits"].tolist() == [2]

    # empty benchmark -> no rows, typed schema
    emptyb = pa.table({"doc_id": pa.array([], pa.int64()),
                       "text": pa.array([], pa.string())})
    e = contamination_check(ray.data.from_arrow(corpus),
                            ray.data.from_arrow(emptyb), ngram=5)
    assert e.count() == 0


def test_mask_prefix_at_fuzz():
    """Seeded fuzz of the SIMD two-level prefix vs a cumsum reference:
    every length regime (sub-word, sub-block, big) and query positions
    at all alignments, including 0 and L."""
    from simplefeatures_ray.functions._bytetext import _mask_prefix_at

    rng = np.random.default_rng(11)
    for trial in range(300):
        L = int(rng.integers(0, 300)) if trial % 2 else \
            int(rng.integers(0, 40_000))
        mu = (rng.random(L) < rng.random()).view(np.uint8)
        pos = np.sort(rng.integers(0, L + 1,
                                   size=int(rng.integers(1, 30))).astype(np.int64))
        ref = np.concatenate([[0], np.cumsum(mu, dtype=np.int64)])[pos]
        got = _mask_prefix_at(mu, pos)
        assert np.array_equal(got, ref), (trial, L)


def test_count_fuzz_vs_reference():
    """count() (SIMD path + padded-mask and unaligned fallbacks) vs a
    per-row python sum, random strings incl. empties/trailing empties."""
    from simplefeatures_ray.functions._bytetext import BatchText

    rng = np.random.default_rng(12)
    for trial in range(120):
        n = int(rng.integers(1, 40))
        rows = [bytes(rng.integers(32, 127, int(rng.integers(0, 30)))
                      .astype(np.uint8)).decode() for _ in range(n)]
        if trial % 3 == 0:
            rows[-1] = ""
        b = BatchText(pa.chunked_array([pa.array(rows, pa.string())]))
        mask = rng.random(len(b.buf)) < rng.random()
        ref = np.array([mask[b.offsets[i]:b.offsets[i + 1]].sum()
                        for i in range(n)], np.int64)
        assert np.array_equal(b.count(mask), ref), trial
        padded = np.concatenate([mask, np.array([True])])
        assert np.array_equal(b.count(padded), ref), (trial, "padded")
        big = np.zeros(len(mask) + 3, bool)
        big[3:] = mask
        assert np.array_equal(b.count(big[3:]), ref), (trial, "unaligned")


def test_normalize_ws_lower_fuzz_vs_python():
    """normalize_ws_lower vs ' '.join(t.lower().split()) over random
    ws-heavy rows: all-ws rows, empty first/last rows, tabs/newlines."""
    from simplefeatures_ray.functions._bytetext import (BatchText,
                                                        normalize_ws_lower)

    rng = np.random.default_rng(13)
    chars = list("ab c\t\n  xy ' Z9")
    for trial in range(200):
        n = int(rng.integers(1, 30))
        rows = ["".join(rng.choice(chars, int(rng.integers(0, 40))))
                for _ in range(n)]
        if trial % 4 == 0:
            rows[0] = ""
        if trial % 5 == 0:
            rows[-1] = "   "
        if trial % 7 == 0:
            rows[int(rng.integers(0, n))] = " \t\n "
        b = BatchText(pa.chunked_array([pa.array(rows, pa.string())]))
        buf, off = normalize_ws_lower(b)
        for i, t in enumerate(rows):
            got = bytes(buf[off[i]:off[i + 1]]).decode()
            assert got == " ".join(t.lower().split()), (trial, i, repr(t))
        buf2, off2 = normalize_ws_lower(b, lower=False)
        for i, t in enumerate(rows):
            got = bytes(buf2[off2[i]:off2[i + 1]]).decode()
            assert got == " ".join(t.split()), (trial, i, repr(t))
