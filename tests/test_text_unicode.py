"""Analysis kernels on non-ASCII rows: the codepoint-domain vectorized
path must be bit-identical to the per-row reference implementations
(the regexes / str methods themselves)."""
import hashlib
import re

import numpy as np
import pyarrow as pa
import pytest

from simplefeatures_ray.functions import _bytetext as bt
from simplefeatures_ray.functions.text import (
    AnalyzeText, Fingerprint, LangId, QualityScore, SharedMasks, TokenCount,
    _LANG_PROFILES,
)


def _sh(rows):
    return SharedMasks(bt.BatchText(pa.array(rows, pa.string())))


POOL = (
    list("abc AB'tz.19 _") +
    ["don't", "l'équipe", "น้ำ", "中文字", "café", "Привет", "и", "é",
     "ʼn", "１２３", "٣٤", "𝕒𝕓", "😀", "—", "«", " ", " ", "　",
     " ", "ﬁn", "Straße", "ÉÉÉÉ", "K", "Ɐɐ", "le", "la", "est", "und",
     "der", "que", "para", "é ", "'", "''", "x'abC'd", "a'b'c"]
)

SPECIAL = ["İstanbul", "ΣΙΓΜΑ τελικός", "ΟΔΥΣΣΕΥΣ"]


def _rand_rows(rng, n_special=0):
    rows = ["".join(POOL[i] for i in rng.randint(0, len(POOL),
                                                 rng.randint(0, 40)))
            for _ in range(rng.randint(1, 10))]
    for _ in range(n_special):
        rows[rng.randint(len(rows))] += " " + SPECIAL[rng.randint(len(SPECIAL))]
    return rows


def test_tokencount_unicode_fuzz():
    tc = TokenCount()
    rng = np.random.RandomState(101)
    for _ in range(120):
        rows = _rand_rows(rng, n_special=1)
        out = tc.columns(_sh(rows))
        for i, t in enumerate(rows):
            assert out["n_tokens"][i].as_py() == len(tc.re.findall(t)), repr(t)
            assert out["n_ws_tokens"][i].as_py() == len(t.split()), repr(t)


def test_quality_unicode_fuzz():
    q = QualityScore()
    rng = np.random.RandomState(103)
    for _ in range(120):
        rows = _rand_rows(rng, n_special=1)
        out = q.columns(_sh(rows))
        for i, t in enumerate(rows):
            nc, pr, sr, mw = q._row_reference(t)
            assert out["n_chars_q"][i].as_py() == nc, repr(t)
            assert out["punct_ratio"][i].as_py() == pytest.approx(pr, abs=0), repr(t)
            assert out["stop_ratio"][i].as_py() == pytest.approx(sr, abs=0), repr(t)
            assert out["mean_word_len"][i].as_py() == pytest.approx(mw, abs=0), repr(t)


def test_langid_unicode_fuzz():
    lid = LangId()
    rng = np.random.RandomState(107)
    for _ in range(120):
        rows = _rand_rows(rng, n_special=1)
        out = lid.columns(_sh(rows))
        for i, t in enumerate(rows):
            assert out["lang_pred"][i].as_py() == lid.classify(t), repr(t)


def test_langid_accented_stopword():
    """'é' is a pt stopword — the old byte path dropped it; the cp path
    must match it, including from the cased variant 'É'."""
    lid = LangId()
    rows = ["é um uma café", "É UM UMA CAFÉ", "thé est le motif"]
    out = lid.columns(_sh(rows))
    for i, t in enumerate(rows):
        assert out["lang_pred"][i].as_py() == lid.classify(t)
    assert out["lang_pred"][0].as_py() == "pt"


def test_fingerprint_unicode_fuzz():
    fp = Fingerprint()
    rng = np.random.RandomState(109)
    for _ in range(80):
        rows = _rand_rows(rng, n_special=1)
        out = fp.columns(_sh(rows))
        for i, t in enumerate(rows):
            data = " ".join(t.lower().split()).encode()
            ref_full = int.from_bytes(
                hashlib.blake2b(data, digest_size=8).digest(), "little")
            assert out["fingerprint"][i].as_py() == ref_full, repr(t)
            assert out["kgram_min"][i].as_py() == fp.rolling_min(data), repr(t)


def test_no_per_row_fallback_for_plain_unicode(monkeypatch):
    """classify()/rolling_min() per-row paths fire ONLY for rows with
    U+0130/U+03A3 — ordinary multilingual text stays vectorized."""
    lid = LangId()
    calls = []
    orig = lid.classify
    monkeypatch.setattr(lid, "classify",
                        lambda t: (calls.append(t), orig(t))[1])
    rows = ["café très bon", "中文内容", "plain ascii", "İzmir here"]
    lid.columns(_sh(rows))
    assert calls == ["İzmir here"]


ANALYSIS = ("n_tokens", "quality", "lang_pred", "fingerprint")


def _singles(tbl):
    for k in (TokenCount(), QualityScore(), LangId(), Fingerprint()):
        tbl = k(tbl)
    return tbl


def _assert_analyze_matches_singles(texts):
    """AnalyzeText appends exactly the four kept columns, each equal (values
    and type) to the standalone kernel's column on the same batch."""
    tbl = pa.table({"text": texts})
    fused = AnalyzeText()(tbl)
    assert fused.column_names == ["text", *ANALYSIS]
    singles = _singles(tbl)
    for col in ANALYSIS:
        assert fused[col].equals(singles[col]), col


def test_analyze_fused_matches_singles():
    """AnalyzeText == running each kernel separately, on a mixed ASCII /
    non-ASCII / special batch; the columns AnalyzeText drops are checked
    on the standalone kernels against the per-row references."""
    rows = ["don't stop", "l'équipe a gagné", "İstanbul ΣΙΓΜΑ",
            "中文 test 123", "", "the and of to a in"]
    _assert_analyze_matches_singles(pa.array(rows, pa.string()))
    singles = _singles(pa.table({"text": pa.array(rows, pa.string())}))
    fp = Fingerprint()
    for i, t in enumerate(rows):
        assert singles["n_ws_tokens"][i].as_py() == len(t.split())
        data = " ".join(t.lower().split()).encode()
        assert singles["kgram_min"][i].as_py() == fp.rolling_min(data)


def test_analyze_matches_singles_on_intl_pages():
    """The one-domain-per-row split is bit-identical to the standalone
    kernels on every row of the ~60%-non-ASCII page corpus and on slices
    of it (the ASCII/non-ASCII mix and row offsets change per slice)."""
    from simplefeatures_ray.sources.pages import gen_pages_batch

    texts = gen_pages_batch(
        pa.table({"id": pa.array(np.arange(4096, dtype=np.int64))}),
        intl=True)["text"]
    _assert_analyze_matches_singles(texts)
    for start, n in ((7, 1), (1000, 333), (2048, 2048)):
        _assert_analyze_matches_singles(texts.slice(start, n))


@pytest.mark.parametrize("rows", [
    ["plain ascii", "the and of", "x'y 12_3 it's", "  ", "a"],     # all ASCII
    ["café", "中文 字", "É UM", "l'équipe 123", "Привет и"],         # none ASCII
    [],                                                              # zero rows
    [None, "", "the dog", None, "é", ""],                            # null/empty
    ["İstanbul is", "the end", None, "ΣΙΓΜΑ τελικός le", "", "中文",
     "x'abC'd", "ΟΔΥΣΣΕΥΣ"],                                          # specials
], ids=["ascii", "nonascii", "empty", "nulls", "specials"])
def test_analyze_matches_singles_edge_batches(rows):
    texts = pa.array(rows, pa.string())
    _assert_analyze_matches_singles(texts)
    # and both equal the per-row references, row by row
    out = AnalyzeText()(pa.table({"text": texts}))
    tc, q, lid = TokenCount(), QualityScore(), LangId()
    for i, t in enumerate(rows):
        t = t or ""
        nc, pr, sr, _ = q._row_reference(t)
        score = (min(max(nc / 500.0, 0), 1) * 0.3 + min(max(sr * 4, 0), 1) * 0.4
                 + min(max(1.0 - pr * 5, 0), 1) * 0.3)
        data = " ".join(t.lower().split()).encode()
        assert out["n_tokens"][i].as_py() == len(tc.re.findall(t)), repr(t)
        assert out["quality"][i].as_py() == score, repr(t)
        assert out["lang_pred"][i].as_py() == lid.classify(t), repr(t)
        assert out["fingerprint"][i].as_py() == Fingerprint.fnv1a(data), repr(t)
