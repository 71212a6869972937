"""exact_substring_removal vs a driver-side brute-force reference."""
from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from simplefeatures_ray.functions.dedup import exact_substring_removal


def brute(docs: dict[int, str], window: int):
    toks = {d: t.split(" ") for d, t in docs.items()}
    counts = Counter()
    for tk in toks.values():
        for i in range(len(tk) - window + 1):
            counts[" ".join(tk[i:i + window])] += 1
    out = {}
    for d, tk in toks.items():
        removed = np.zeros(len(tk), dtype=bool)
        for i in range(len(tk) - window + 1):
            if counts[" ".join(tk[i:i + window])] >= 2:
                removed[i:i + window] = True
        kept = [t for t, r in zip(tk, removed) if not r]
        out[d] = (len(tk), int(removed.sum()), " ".join(kept))
    return out


def run(docs: dict[int, str], window: int, **kw):
    tbl = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                    "text": pa.array([docs[d] for d in sorted(docs)])})
    ds = rd.from_arrow(tbl).repartition(3)
    res = exact_substring_removal(ds, window=window, **kw).to_pandas()
    return {int(r.doc_id): (int(r.n_tokens), int(r.n_removed), r.clean_text)
            for r in res.itertuples()}


def check(docs, window, **kw):
    got = run(docs, window, **kw)
    want = brute(docs, window)
    assert got == want


def test_cross_doc_duplicate_span(ray_session):
    shared = "alpha beta gamma delta epsilon"
    docs = {
        1: f"intro one {shared} tail one",
        2: f"different lead {shared} other ending words",
        3: "nothing in common here at all",
    }
    check(docs, window=5)
    # the shared 5-gram is cut from both carriers, doc 3 untouched
    got = run(docs, window=5)
    assert got[3][1] == 0 and got[3][2] == docs[3]
    assert got[1][1] == 5 and shared not in got[1][2]
    assert got[2][1] == 5 and shared not in got[2][2]


def test_within_doc_repeat_counts(ray_session):
    # a phrase repeated INSIDE one document dedups (multiplicity >= 2)
    docs = {7: "x y z a b c x y z q r s", 8: "totally unrelated words here"}
    check(docs, window=3)
    got = run(docs, window=3)
    assert got[7][1] >= 6  # both x y z occurrences removed


def test_overlapping_windows_merge(ray_session):
    # consecutive duplicated windows union into one maximal span
    span = "one two three four five six"
    docs = {1: f"{span} padding words end", 2: f"prefix bit {span} suffix"}
    got = run(docs, window=4)
    want = brute(docs, window=4)
    assert got == want
    assert got[1][1] == 6  # the full 6-token span, not just one window


def test_short_docs_and_empty(ray_session):
    docs = {1: "tiny", 2: "", 3: "a b", 4: "a b"}
    # window larger than every doc: nothing has a window, nothing removed
    check(docs, window=5)
    got = run(docs, window=5)
    assert all(v[1] == 0 for v in got.values())
    assert got[2] == (1, 0, "")  # '' splits to one empty token


def test_identical_docs_fully_removed(ray_session):
    docs = {1: "p q r s t u v", 2: "p q r s t u v", 3: "solo text piece"}
    check(docs, window=4)
    got = run(docs, window=4)
    assert got[1] == (7, 7, "") and got[2] == (7, 7, "")


@pytest.mark.parametrize("window", [2, 4, 7])
def test_fuzz_vs_brute(ray_session, window):
    rng = np.random.default_rng(1234 + window)
    vocab = [f"w{i}" for i in range(30)]
    docs = {}
    for d in range(40):
        n = int(rng.integers(0, 25))
        docs[d] = " ".join(rng.choice(vocab, n)) if n else ""
    check(docs, window, n_parts=8, n_doc_buckets=4)


def test_parallelism_invariance(ray_session):
    # same corpus at three block layouts -> bit-identical results
    rng = np.random.default_rng(99)
    vocab = [f"t{i}" for i in range(20)]
    docs = {d: " ".join(rng.choice(vocab, int(rng.integers(5, 40))))
            for d in range(60)}
    outs = []
    for parts in (1, 4, 9):
        tbl = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                        "text": pa.array([docs[d] for d in sorted(docs)])})
        ds = rd.from_arrow(tbl).repartition(parts)
        df = (exact_substring_removal(ds, window=3, n_parts=8,
                                      n_doc_buckets=4)
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
        outs.append(df)
    assert outs[0].equals(outs[1]) and outs[1].equals(outs[2])


def test_zero_document_corpus(ray_session):
    """No document: zero rows, typed like any other result."""
    tbl = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    res = exact_substring_removal(rd.from_arrow(tbl), window=3, n_parts=8,
                                  n_doc_buckets=4).materialize()
    assert res.count() == 0
    assert res.schema().base_schema == pa.schema([
        ("doc_id", pa.int64()), ("n_tokens", pa.int64()),
        ("n_removed", pa.int64()), ("clean_text", pa.string())])
