"""Vectorized HTML extraction parity: the mask-union fast path must be
BYTE-IDENTICAL to the per-row regex reference (extract_one) — the
BASELINE per-row invariant — including adversarial markup and the
non-ASCII / cross-row fallback."""
import numpy as np
import pyarrow as pa

from simplefeatures_ray.sources.pages import gen_pages_batch
from simplefeatures_ray.stages.extract import ExtractGeotags


def _wrap(htmls):
    n = len(htmls)
    return pa.table({
        "url": [f"u{i}" for i in range(n)],
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "lang": ["en"] * n,
        "html": pa.array(htmls, pa.binary()),
        "text": [""] * n,
    })


def test_byte_identity_on_fixture_pages():
    batch = gen_pages_batch({"id": np.arange(2048, dtype=np.int64)})
    out = ExtractGeotags().extract(batch)
    assert out["text"].to_pylist() == batch["text"].to_pylist()


def test_adversarial_markup_parity():
    ex = ExtractGeotags()
    weird = [
        b"<html>a<b>c</b> > loose <unclosed tag",
        b"<!-- x --> keep <!-- y",
        b"pre<!--<div>-->post",
        b"\xc3\xa9 accents <p>in tags</p>",       # non-ASCII fallback
        b"", b"plain text only", b"<<>> <><> <a><b>",
        b'<meta name="geo.position" content="12.5;-33.25">ok',
        b"ICBM: 1.5, 2.5 and <!-- ICBM: 9.9, 9.9 --> more",
        b"a<!---->b", b"<a b>text< / a>",
        b"<!--a--><!--b-->c<x>y</x>",
        b"tricky <!-- <!-- nested --> tail -->",
        b"tab\tseparated\x1ccontrol\x1fws",
        b"> starts with gt < ends with lt",
    ]
    out = ex.extract(_wrap(weird))
    for i, h in enumerate(weird):
        text, tags = ex.extract_one(h)
        assert out["text"][i].as_py() == text, (i, h)
        assert out["n_geotags"][i].as_py() == len(tags), (i, h)
        if tags:
            assert abs(out["lat"][i].as_py() - tags[0][0]) < 1e-12
            assert abs(out["lon"][i].as_py() - tags[0][1]) < 1e-12


def test_geotag_first_tag_and_counts():
    batch = gen_pages_batch({"id": np.arange(0, 4096, 3, dtype=np.int64)})
    ex = ExtractGeotags()
    out = ex.extract(batch)
    for i in range(0, len(batch), 97):
        _, tags = ex.extract_one(batch["html"][i].as_py())
        assert out["n_geotags"][i].as_py() == len(tags)
        if tags:
            assert abs(out["lat"][i].as_py() - tags[0][0]) < 1e-12


def test_geo_only_filter_matches_reference():
    """The flagship kernel (__call__) keeps exactly the geotagged rows
    of .extract(), with their coordinates, plus the analysis columns."""
    batch = gen_pages_batch({"id": np.arange(1024, dtype=np.int64)})
    ex = ExtractGeotags()
    out = ex(batch)
    want = [i for i in range(1024)
            if ex.extract_one(batch["html"][i].as_py())[1]]
    full = ex.extract(batch)
    geo = full.filter(full["has_geo"])
    assert geo["url"].to_pylist() == [f"https://site-{i % 9973}.example.com/page/{i}"
                                      for i in want]
    assert out["url"].to_pylist() == geo["url"].to_pylist()
    assert out["lat"].to_pylist() == geo["lat"].to_pylist()
    assert out["lon"].to_pylist() == geo["lon"].to_pylist()
    assert out.column_names == ["url", "lat", "lon", "n_tokens", "quality",
                                "lang_pred", "fingerprint"]
    # analysing only the kept rows equals analysing every row, then filtering
    from simplefeatures_ray.functions.text import AnalyzeText

    ref = AnalyzeText()(full).filter(full["has_geo"])
    for c in ("n_tokens", "quality", "lang_pred", "fingerprint"):
        assert out[c].to_pylist() == ref[c].to_pylist(), c
