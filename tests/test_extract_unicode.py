"""Extract-stage UTF-8 fast path (VERDICT r4 #2): valid non-ASCII rows
must produce byte-identical output to the per-row reference WITHOUT
taking the per-row fallback; invalid UTF-8 rows still match via the
fallback."""
import numpy as np
import pyarrow as pa
import pytest

from simplefeatures_ray.stages.extract import ExtractGeotags


def _mk_batch(htmls):
    n = len(htmls)
    return pa.table({
        "url": pa.array([f"u{i}" for i in range(n)]),
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "lang": pa.array(["xx"] * n),
    })


UNICODE_HTMLS = [
    # plain multilingual content
    "<html><body><p>café naïve résumé</p></body></html>".encode(),
    "<html><body>日本語のテキストです。<b>太字</b></body></html>".encode(),
    "<html><body>Привет мир — «кавычки»</body></html>".encode(),
    # unicode whitespace that str.split() strips
    "<html><body>a b c　d e</body></html>".encode(),
    "<html><body>  lead and trail  </body></html>".encode(),
    # geotags + unicode text
    ('<html><head><meta name="geo.position" content="48.8566;2.3522">'
     "</head><body>Paris – la Tour Eiffel ☕</body></html>").encode(),
    ("<html><head><!-- ICBM: 35.6895, 139.6917 --></head>"
     "<body>東京タワー🗼 emoji \U0001F600</body></html>").encode(),
    # comments wrapping unicode, tags inside
    "<html><!-- コメント --><body>visible 内容</body></html>".encode(),
    # empty / ascii controls
    b"",
    b"<html><body>plain\x1c\x1dascii\x1f controls</body></html>",
]

INVALID_HTMLS = [
    b"<html><body>broken \xff\xfe bytes</body></html>",
    b"<html><body>overlong \xc0\xaf here</body></html>",
    b"<html><body>trunc \xe2\x82</body></html>",
    (b'<html><head><meta name="geo.position" content="1.5;2.5"></head>'
     b"<body>geo then bad \xed\xa0\x80</body></html>"),  # UTF-8 surrogate
]


def _reference(ex, htmls):
    rows = []
    for h in htmls:
        text, tags = ex.extract_one(h)
        rows.append((text, len(tags),
                     tags[0] if tags else (None, None)))
    return rows


@pytest.mark.parametrize("batchsize", [None, 3])
def test_unicode_extract_matches_reference(batchsize):
    ex = ExtractGeotags()
    htmls = UNICODE_HTMLS + INVALID_HTMLS + UNICODE_HTMLS[::-1]
    ref = _reference(ex, htmls)
    batches = ([_mk_batch(htmls)] if batchsize is None else
               [_mk_batch(htmls[i:i + batchsize])
                for i in range(0, len(htmls), batchsize)])
    got = []
    for b in batches:
        out = ex.extract(b)
        for i in range(len(out)):
            t = out["text"][i].as_py()
            n = out["n_geotags"][i].as_py()
            la = out["lat"][i].as_py()
            lo = out["lon"][i].as_py()
            got.append((t, n, (la, lo) if n else (None, None)))
    for g, r, h in zip(got, ref, htmls):
        assert g[0] == r[0], h
        assert g[1] == r[1], h
        if g[1]:
            assert g[2] == pytest.approx(r[2]), h


def test_valid_unicode_rows_skip_fallback(monkeypatch):
    """The per-row path must fire ONLY for invalid UTF-8 rows."""
    ex = ExtractGeotags()
    calls = []
    orig = ex.extract_one

    def spy(h):
        calls.append(h)
        return orig(h)

    monkeypatch.setattr(ex, "extract_one", spy)
    ex.extract(_mk_batch(UNICODE_HTMLS))
    assert calls == []  # all valid rows stayed vectorized
    calls.clear()
    ex.extract(_mk_batch(UNICODE_HTMLS + INVALID_HTMLS))
    assert 1 <= len(calls) <= len(INVALID_HTMLS) + 2  # invalid (+neighbors)


def test_unicode_fuzz_extract(monkeypatch):
    """Random multilingual html with planted unicode whitespace, tags,
    comments and occasional invalid bytes: fast path == reference."""
    rng = np.random.RandomState(17)
    pool = (list("abcdef <>") + ["é", "ü", "中", "語", "😀", " ",
            " ", "　", "\t", "\n", "<b>", "</b>", "<!--", "-->",
            "&amp;", "π", " ", "'"])
    ex = ExtractGeotags()
    for trial in range(60):
        htmls = []
        for _ in range(rng.randint(1, 8)):
            parts = [pool[i] for i in rng.randint(0, len(pool),
                                                  rng.randint(0, 60))]
            raw = "".join(parts).encode()
            if rng.rand() < 0.15:
                cut = rng.randint(0, len(raw) + 1)
                raw = raw[:cut] + bytes([rng.randint(0x80, 0x100)]) + raw[cut:]
            htmls.append(raw)
        ref = _reference(ex, htmls)
        out = ex.extract(_mk_batch(htmls))
        for i, (rt, rn, rc) in enumerate(ref):
            assert out["text"][i].as_py() == rt, (trial, htmls[i])
            assert out["n_geotags"][i].as_py() == rn, (trial, htmls[i])


def test_fallback_rows_patched_in_large_batch(monkeypatch):
    """A 2,048-row page batch with invalid-UTF-8 rows at its start,
    middle and end: only those rows (and at most a neighbor each) take
    extract_one, and every row equals extract_one, text and geotags."""
    from simplefeatures_ray.sources.pages import gen_pages_batch

    pages = gen_pages_batch(
        pa.table({"id": pa.array(np.arange(2048, dtype=np.int64))}), intl=True)
    htmls = pages["html"].to_pylist()
    bad = {0: INVALID_HTMLS[0], 1024: INVALID_HTMLS[3], 2047: INVALID_HTMLS[2]}
    for i, h in bad.items():
        htmls[i] = h
    ex = ExtractGeotags()
    ref = _reference(ex, htmls)
    calls = []
    orig = ex.extract_one
    monkeypatch.setattr(ex, "extract_one", lambda h: (calls.append(h), orig(h))[1])
    out = ex.extract(_mk_batch(htmls))
    assert len(bad) <= len(calls) <= 2 * len(bad)
    assert out["text"].to_pylist() == [r[0] for r in ref]
    assert out["n_geotags"].to_pylist() == [r[1] for r in ref]
    for i, (_, n, (la, lo)) in enumerate(ref):
        if n:
            assert (out["lat"][i].as_py(), out["lon"][i].as_py()) == (la, lo), i
        else:
            assert np.isnan(out["lat"][i].as_py()), i
