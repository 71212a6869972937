"""Stage-level tests: geometry column kernels, multimodal stubs, dedup /
ANN / text functions — all through real Ray Data pipelines."""
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest


@pytest.fixture(scope="module")
def wkb_table():
    from simplefeatures_ray.geometry import from_wkt, to_wkb

    wkts = [
        "POLYGON((0 0,4 0,4 4,0 4,0 0))",
        "POLYGON((0 0,2 0,2 2,0 2,0 0),(0.5 0.5,1 0.5,1 1,0.5 1,0.5 0.5))",
        "LINESTRING(0 0,3 4)",
        "POINT(7 8)",
        "POLYGON EMPTY",
    ]
    return pa.table({"gid": list(range(len(wkts))),
                     "wkb": [to_wkb(from_wkt(w)) for w in wkts]})


def test_geom_stats_stage(ray_session, wkb_table):
    import ray.data as rd

    from simplefeatures_ray.stages.geometry import geom_stats

    ds = rd.from_arrow(wkb_table).map_batches(geom_stats(), batch_format="pyarrow")
    df = ds.to_pandas().sort_values("gid")
    assert df["area"].tolist() == pytest.approx([16.0, 3.75, 0.0, 0.0, 0.0])
    assert df["length"].tolist() == pytest.approx([16.0, 10.0, 5.0, 0.0, 0.0])
    assert df["dimension"].tolist() == [2, 2, 1, 0, 2]
    assert df["is_empty"].tolist() == [False, False, False, False, True]


def test_geom_validate_stage(ray_session):
    import ray.data as rd

    from simplefeatures_ray.geometry import from_wkt, to_wkb
    from simplefeatures_ray.stages.geometry import geom_validate

    tbl = pa.table({
        "wkb": [to_wkb(from_wkt("POLYGON((0 0,1 0,1 1,0 1,0 0))")),
                to_wkb(from_wkt("POLYGON((0 0,2 2,2 0,0 2,0 0))"))],  # bowtie
    })
    df = rd.from_arrow(tbl).map_batches(geom_validate(), batch_format="pyarrow").to_pandas()
    assert df["is_valid"].tolist() == [True, False]
    assert "self-intersection" in df["invalid_reason"][1]


def test_codec_stages(ray_session):
    import ray.data as rd

    from simplefeatures_ray.stages.geometry import geojson_encode, twkb_encode, wkt_decode, wkt_encode

    tbl = pa.table({"wkt": ["POINT(1 2)", "LINESTRING(0 0,1 1)", "NOT WKT"]})
    ds = rd.from_arrow(tbl).map_batches(wkt_decode(), batch_format="pyarrow")
    df = ds.to_pandas()
    assert df["wkb"][0] is not None and df["wkb"][2] is None
    assert df["parse_error"][2] is not None
    ok = rd.from_arrow(pa.table({"wkb": [w for w in df["wkb"] if w is not None]}))
    enc = ok.map_batches(wkt_encode(), batch_format="pyarrow") \
            .map_batches(geojson_encode(), batch_format="pyarrow") \
            .map_batches(twkb_encode(0), batch_format="pyarrow").to_pandas()
    assert enc["wkt"].tolist() == ["POINT(1 2)", "LINESTRING(0 0,1 1)"]
    assert enc["geojson"][0] == '{"type":"Point","coordinates":[1,2]}'
    assert all(isinstance(b, bytes) and len(b) > 2 for b in enc["twkb"])


def test_geom_transform_stage(ray_session, wkb_table):
    import ray.data as rd

    from simplefeatures_ray.geometry import from_wkb
    from simplefeatures_ray.geometry.algorithms import area
    from simplefeatures_ray.stages.geometry import geom_transform

    # scale x2 via the TransformXY-style UDF hook
    ds = rd.from_arrow(wkb_table).map_batches(
        geom_transform(lambda g: g.map_coords(lambda a: a * 2.0)),
        batch_format="pyarrow",
    )
    df = ds.to_pandas().sort_values("gid")
    g0 = from_wkb(df["wkb"].iloc[0])
    assert area(g0) == pytest.approx(64.0)  # 4x area


def test_multimodal_pipeline(ray_session):
    import ray.data as rd

    from simplefeatures_ray.stages.multimodal import (
        DecodeImage,
        ImageFeatures,
        SampleFrames,
        fake_media_table,
    )

    tbl = fake_media_table(64)
    ds = rd.from_arrow(tbl)
    ds = ds.map_batches(DecodeImage, fn_constructor_kwargs={"fake": True},
                        batch_format="pyarrow", concurrency=1, batch_size=16)
    ds = ds.map_batches(ImageFeatures, batch_format="pyarrow", concurrency=1)
    ds = ds.map_batches(SampleFrames, batch_format="pyarrow", concurrency=1)
    df = ds.to_pandas()
    assert len(df) == 64
    assert len(df["img_features"][0]) == 7  # 3 means + 3 stds + gradient
    assert len(df["frame_offsets"][0]) == 4
    # deterministic: same payload -> same features
    df2 = rd.from_arrow(tbl).map_batches(
        DecodeImage, fn_constructor_kwargs={"fake": True},
        batch_format="pyarrow", concurrency=1, batch_size=16
    ).map_batches(ImageFeatures, batch_format="pyarrow", concurrency=1).to_pandas()
    assert np.allclose(np.stack(df.sort_values("media_id")["img_features"]),
                       np.stack(df2.sort_values("media_id")["img_features"]))
    # decode without fake raises (stub contract)
    with pytest.raises(NotImplementedError):
        DecodeImage()._decode(b"x")


def test_minhash_finds_planted_dups(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.dedup import jaccard, minhash_lsh_pairs

    base = ("the quick brown fox jumps over the lazy dog while the rain "
            "in spain stays mainly on the plain and the cat sat on the mat")
    texts = []
    for i in range(40):
        texts.append(f"document {i} " + " ".join(f"w{i}_{j}" for j in range(30)))
    # plant near-duplicates
    texts.append(base)
    texts.append(base + " extra token")
    tbl = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    pairs = minhash_lsh_pairs(rd.from_arrow(tbl), num_perm=64, bands=16).to_pandas()
    planted = {(40, 41)}
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    assert planted <= found
    assert jaccard(base, base + " extra token") > 0.8


def test_simhash_finds_planted_dups(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.dedup import simhash_near_dup_pairs

    texts = [f"unique document number {i} with words " + " ".join(
        f"tok{i}_{j}" for j in range(20)) for i in range(30)]
    base = "common text shared by the two planted duplicates " * 5
    texts.append(base)
    texts.append(base)  # exact dup: hamming 0, inside the banding guarantee
    tbl = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    pairs = simhash_near_dup_pairs(rd.from_arrow(tbl), max_hamming=3).to_pandas()
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (30, 31) in found


def test_ann_brute_exact(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.ann import brute_force_topk

    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(200, 16)).astype(np.float32)
    tbl = pa.table({
        "vec_id": list(range(200)),
        "embedding": [v.tolist() for v in vecs],
    })
    out = brute_force_topk(rd.from_arrow(tbl), [0], vecs[:1], k=5).to_pandas()
    # exact answer by numpy
    norm = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = norm @ norm[0]
    want = set(np.argsort(-sims)[:5].tolist())
    assert set(out["vec_id"]) == want
    assert out.sort_values("rank")["vec_id"].iloc[0] == 0  # self is top


def test_projection_stage(ray_session):
    import ray.data as rd

    from simplefeatures_ray.carto import WebMercator, project_batch

    tbl = pa.table({"lon": [0.0, -180.0], "lat": [0.0, 0.0]})
    df = rd.from_arrow(tbl).map_batches(
        project_batch(WebMercator(zoom=2)), batch_format="pyarrow"
    ).to_pandas()
    assert df["x"].tolist() == pytest.approx([2.0, 0.0])
    assert df["y"].tolist() == pytest.approx([2.0, 2.0])


def test_tumbling_and_sliding_windows(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.windows import sliding_window_agg, tumbling_window_agg

    ts = pa.array([0, 1800, 3600, 5400, 7200], pa.timestamp("us")).cast(pa.timestamp("us"))
    tbl = pa.table({
        "ts": pa.array([v * 1_000_000 for v in [0, 1800, 3600, 5400, 7200]], pa.timestamp("us")),
        "k": ["a", "a", "a", "b", "a"],
        "v": [1.0, 2.0, 3.0, 4.0, 5.0],
    })
    ds = rd.from_arrow(tbl)
    out = tumbling_window_agg(ds, "ts", 3600.0, "k", {"n": (None, "count"), "s": ("v", "sum")})
    df = out.to_pandas().sort_values(["window_start", "k"]).reset_index(drop=True)
    assert df["window_start"].tolist() == [0, 3600, 3600, 7200]
    assert df["n"].tolist() == [2, 1, 1, 1]
    assert df["s"].tolist() == [3.0, 3.0, 4.0, 5.0]
    # sliding width=7200 slide=3600: event at 3600 in windows [0,7200) and [3600,10800)
    out2 = sliding_window_agg(ds, "ts", 7200.0, 3600.0, "k",
                              {"n": (None, "count")})
    df2 = out2.to_pandas()
    row = df2[(df2["window_start"] == 0) & (df2["k"] == "a")]
    assert row["n"].iloc[0] == 3  # events at 0, 1800, 3600


def test_asof_join(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.windows import asof_join

    left = rd.from_arrow(pa.table({
        "id": [1, 2, 3, 4],
        "key": [0, 0, 1, 1],
        "t": [10, 30, 10, 5],
    }))
    right = rd.from_arrow(pa.table({
        "key": [0, 0, 1],
        "rt": [5, 20, 8],
        "val": ["x", "y", "z"],
    }))
    out = asof_join(left, right, key="key", ts_left="t", ts_right="rt",
                    right_cols=["val"]).to_pandas().sort_values("id")
    vals = out["val"].tolist()
    assert vals[:3] == ["x", "y", "z"] and (vals[3] is None or vals[3] != vals[3])


def test_asof_join_runs_each_input_once(ray_session, tmp_path):
    """asof_join executes each input lineage exactly once: no schema()
    probe runs part of a lazy side a second time."""
    import ray.data as rd

    from simplefeatures_ray.functions.windows import asof_join

    def counted(name):
        def kernel(t: pa.Table) -> pa.Table:
            with open(tmp_path / name, "a") as f:
                f.write("x")
            return t

        return kernel

    left = rd.from_arrow(pa.table({"id": [1, 2], "key": [0, 1], "t": [10, 10]}))
    right = rd.from_arrow(pa.table({"key": [0, 1], "rt": [5, 20],
                                    "val": ["x", "y"]}))
    out = asof_join(left.map_batches(counted("left"), batch_format="pyarrow"),
                    right.map_batches(counted("right"), batch_format="pyarrow"),
                    key="key", ts_left="t", ts_right="rt",
                    right_cols=["val"]).to_pandas().sort_values("id")
    assert out["val"].tolist()[0] == "x" and out["val"].isna().tolist() == [False, True]
    assert (tmp_path / "left").read_text() == "x"
    assert (tmp_path / "right").read_text() == "x"


def _counted_blocks(tmp_path, name, tables):
    """A lazy Dataset with one block per table whose map appends one
    byte to tmp_path/name per call: the file's length is the number of
    times a block of it was mapped."""
    import ray.data as rd

    def kernel(t: pa.Table) -> pa.Table:
        with open(tmp_path / name, "a") as f:
            f.write("x")
        return t

    return rd.from_arrow(tables).map_batches(kernel, batch_format="pyarrow")


def _join_sides(tmp_path):
    """(left, right) lazy sides of 4 and 3 blocks plus their tables."""
    lt = [pa.table({"k": pa.array([i, i + 1, 7], pa.int64()),
                    "a": pa.array([10 * i, 10 * i + 1, 10 * i + 2], pa.int64())})
          for i in range(4)]
    rt = [pa.table({"k": pa.array([i, 7], pa.int64()),
                    "b": pa.array([f"r{i}", f"s{i}"])})
          for i in range(3)]
    return (_counted_blocks(tmp_path, "left", lt),
            _counted_blocks(tmp_path, "right", rt),
            pa.concat_tables(lt), pa.concat_tables(rt))


def _sorted_rows(t: pa.Table) -> list:
    return sorted(map(tuple, zip(*[c.to_pylist() for c in t.columns])),
                  key=repr)


@pytest.mark.parametrize("kw", [{}, {"join_type": "left outer"},
                                {"n_salts": 2}],
                         ids=["inner", "left_outer", "salted"])
def test_bucketed_join_runs_each_input_once(ray_session, tmp_path, kw):
    """An unhinted bucketed_join maps each block of each side exactly
    once: no schema() probe runs part of a lazy side a second time."""
    from simplefeatures_ray.functions.relational import bucketed_join

    left, right, lt, rt = _join_sides(tmp_path)
    out = bucketed_join(left, right, key="k", n_buckets=4, **kw)
    got = pa.Table.from_pylist(out.take_all())
    want = lt.join(rt, keys="k", join_type=kw.get("join_type", "inner"))
    assert got.column_names == ["k", "a", "b"]
    assert _sorted_rows(got) == _sorted_rows(want)
    assert (tmp_path / "left").read_text() == "x" * 4
    assert (tmp_path / "right").read_text() == "x" * 3


def test_cell_overlap_join_runs_each_input_once(ray_session, tmp_path):
    from simplefeatures_ray.stages.join import cell_overlap_join

    def boxes(i):
        x = np.arange(5, dtype=np.float64) * 3 + i
        return pa.table({"bid": pa.array(np.arange(5) + 10 * i),
                         "minx": x, "miny": x, "maxx": x + 4, "maxy": x + 4})

    a = _counted_blocks(tmp_path, "left", [boxes(i) for i in range(4)])
    b = _counted_blocks(tmp_path, "right", [boxes(i + 4) for i in range(3)])
    out = cell_overlap_join(a, b, cell_size=2.0).to_pandas()
    assert len(out) and {"bid", "bid_r", "minx_r", "maxy_r"} <= set(out.columns)
    assert (tmp_path / "left").read_text() == "x" * 4
    assert (tmp_path / "right").read_text() == "x" * 3


def test_joins_build_without_schema_probe(ray_session, tmp_path, monkeypatch):
    """Building the joins runs their inputs (the exchange is eager), and
    no Dataset.schema() call that would execute a lineage happens."""
    from ray.data import Dataset

    from simplefeatures_ray.functions.relational import bucketed_join
    from simplefeatures_ray.functions.windows import asof_join
    from simplefeatures_ray.stages.join import cell_spatial_join

    orig = Dataset.schema

    def no_probe(self, fetch_if_missing=True):
        if fetch_if_missing:
            raise AssertionError("schema() probe while building a join")
        return orig(self, fetch_if_missing=False)

    left, right, lt, rt = _join_sides(tmp_path)
    pts = left.map_batches(lambda t: pa.table({"x": pc.cast(t["a"], pa.float64()),
                                               "y": pc.cast(t["k"], pa.float64())}),
                           batch_format="pyarrow")
    bxs = right.map_batches(lambda t: pa.table({
        "minx": pc.cast(pc.multiply(t["k"], 5), pa.float64()),
        "miny": pa.array(np.zeros(len(t))), "maxx": pa.array(np.full(len(t), 40.0)),
        "maxy": pa.array(np.full(len(t), 8.0))}), batch_format="pyarrow")
    monkeypatch.setattr(Dataset, "schema", no_probe)
    j = bucketed_join(left, right, key="k", n_buckets=4, join_type="left outer")
    timed = right.map_batches(
        lambda t: t.append_column("rt", pc.multiply(t["k"], 10)),
        batch_format="pyarrow")
    a = asof_join(left, timed, key="k", ts_left="a", ts_right="rt",
                  right_cols=["b"])
    c = cell_spatial_join(pts, bxs, cell_size=4.0)
    monkeypatch.undo()
    assert j.count() == lt.join(rt, keys="k", join_type="left outer").num_rows
    assert a.count() == lt.num_rows
    assert c.count() > 0


def test_bucketed_join_matches_broadcast(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.relational import broadcast_join, bucketed_join

    left = pa.table({"k": list(range(100)) * 2, "lv": list(range(200))})
    right = pa.table({"k": list(range(0, 100, 2)), "rv": [f"r{i}" for i in range(0, 100, 2)]})
    b1 = broadcast_join(rd.from_arrow(left), right, keys="k").to_pandas()
    b2 = bucketed_join(rd.from_arrow(left), rd.from_arrow(right), key="k",
                       n_buckets=8).to_pandas()
    s1 = b1.sort_values(["k", "lv"]).reset_index(drop=True)[["k", "lv", "rv"]]
    s2 = b2.sort_values(["k", "lv"]).reset_index(drop=True)[["k", "lv", "rv"]]
    # the per-bucket acero join preserves exact integer types through the
    # side-tagged union (no float64 promotion)
    assert s2["k"].dtype == "int64" and s2["lv"].dtype == "int64"
    assert s1.astype({"k": "int64", "lv": "int64"}).equals(s2)


def test_cell_spatial_join_matches_brute_force(ray_session):
    """Cell-bucketed shuffle spatial join == O(N*M) numpy brute force,
    including boxes spanning many cells and points on box edges."""
    import ray.data as rd

    from simplefeatures_ray.pipelines.corpus import synth_boxes
    from simplefeatures_ray.stages.join import cell_spatial_join

    rng = np.random.default_rng(7)
    n = 2000
    px = rng.uniform(-185, 185, n).round(2)
    py = rng.uniform(-75, 75, n).round(2)
    boxes = synth_boxes(120)
    # force a few edge-exact points
    px[0], py[0] = boxes["minx"][3].as_py(), boxes["miny"][3].as_py()
    px[1], py[1] = boxes["maxx"][5].as_py(), boxes["maxy"][5].as_py()
    pts = pa.table({"pid": pa.array(np.arange(n)), "x": pa.array(px), "y": pa.array(py)})

    out = cell_spatial_join(
        rd.from_arrow(pts).repartition(5), rd.from_arrow(boxes).repartition(3),
        cell_size=7.5, n_buckets=16,
    ).to_pandas()
    got = set(zip(out["pid"], out["box_id"]))
    assert out["pid"].dtype == "int64" and out["box_id"].dtype == "int64"

    bx0 = np.asarray(boxes["minx"]); by0 = np.asarray(boxes["miny"])
    bx1 = np.asarray(boxes["maxx"]); by1 = np.asarray(boxes["maxy"])
    hit = ((px[:, None] >= bx0) & (px[:, None] <= bx1)
           & (py[:, None] >= by0) & (py[:, None] <= by1))
    want = set(zip(*np.nonzero(hit)))
    assert got == {(int(a), int(b)) for a, b in want}
    assert len(out) == len(got)  # each pair exactly once


def test_bucketed_join_string_keys(ray_session):
    """URL-style string join keys through the large-x-large bucketed join."""
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.relational import bucketed_join

    urls = [f"https://example.com/page/{i}" for i in range(200)]
    left = rd.from_arrow(pa.table({"url": urls * 2, "clicks": list(range(400))}))
    right = rd.from_arrow(pa.table({"url": urls[::2], "rank": list(range(100))}))
    out = bucketed_join(left, right, "url", n_buckets=16).to_pandas()
    # every even-index url matches twice (left has each url twice)
    assert len(out) == 200
    assert set(out.columns) >= {"url", "clicks", "rank"}
    m = out[out["url"] == "https://example.com/page/0"]
    assert sorted(m["clicks"].tolist()) == [0, 200]


def test_png_codec_round_trip():
    """Engine's pure-python PNG codec: encode -> decode round-trips
    exactly for grey / RGB / RGBA, and decode handles every scanline
    filter type."""
    import struct
    import zlib

    import numpy as np

    from simplefeatures_ray.imagecodec import (
        PNG_SIG, png_decode, png_encode, ppm_decode, ppm_encode, resize_nearest,
    )

    rng = np.random.default_rng(7)
    for c in (1, 3, 4):
        img = rng.integers(0, 256, size=(13, 9, c), dtype=np.uint8)
        out = png_decode(png_encode(img))
        assert out.shape == (13, 9, c)
        assert np.array_equal(out, img)
    # hand-build a PNG using filters 1 (Sub), 2 (Up), 3 (Avg), 4 (Paeth)
    img = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
    h, w, c = img.shape

    def paeth(a, b, cc):
        p = a + b - cc
        pa_, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
        return a if (pa_ <= pb and pa_ <= pc) else (b if pb <= pc else cc)

    raw = bytearray()
    prev = np.zeros(w * c, dtype=np.int32)
    for y, f in zip(range(h), (1, 2, 3, 4)):
        line = img[y].reshape(-1).astype(np.int32)
        enc = np.zeros(w * c, dtype=np.int32)
        for x in range(w * c):
            left = line[x - c] if x >= c else 0
            ul = prev[x - c] if x >= c else 0
            if f == 1:
                enc[x] = line[x] - left
            elif f == 2:
                enc[x] = line[x] - prev[x]
            elif f == 3:
                enc[x] = line[x] - ((left + prev[x]) >> 1)
            else:
                enc[x] = line[x] - paeth(int(left), int(prev[x]), int(ul))
        raw.append(f)
        raw.extend((enc & 0xFF).astype(np.uint8).tobytes())
        prev = line

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    data = (PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(bytes(raw)))
            + chunk(b"IEND", b""))
    assert np.array_equal(png_decode(data), img)
    # PPM round trip + resize determinism
    img3 = rng.integers(0, 256, size=(8, 6, 3), dtype=np.uint8)
    assert np.array_equal(ppm_decode(ppm_encode(img3)), img3)
    small = resize_nearest(img3, 4, 3)
    assert small.shape == (4, 3, 3)
    assert np.array_equal(small, resize_nearest(img3, 4, 3))


def test_decode_image_real_png(ray_session):
    """DecodeImage consumes real PNG payloads end to end through Ray."""
    import numpy as np
    import ray.data as rd

    from simplefeatures_ray.imagecodec import png_decode, resize_nearest
    from simplefeatures_ray.stages.multimodal import DecodeImage, real_media_table

    tbl = real_media_table(32, size=24)
    out = rd.from_arrow(tbl).map_batches(
        DecodeImage, batch_format="pyarrow", concurrency=1, batch_size=8
    ).to_pandas().sort_values("media_id")
    assert len(out) == 32
    # row 0 pixels must equal direct decode+resize of payload 0
    direct = resize_nearest(png_decode(tbl["image_bytes"][0].as_py()), 32, 32)
    got = np.asarray(out.iloc[0]["pixels"], dtype=np.uint8).reshape(32, 32, 3)
    assert np.array_equal(got, direct)


def test_hash_split_deterministic(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.relational import hash_split

    ds = rd.from_arrow(pa.table({"doc_id": list(range(2000))}))
    out = hash_split(ds, "doc_id", {"train": 90, "val": 5, "test": 5}).to_pandas()
    counts = out["split"].value_counts()
    assert 0.85 < counts["train"] / 2000 < 0.95
    assert set(out["split"].unique()) <= {"train", "val", "test"}
    # stable across repartitioning
    out2 = hash_split(rd.from_arrow(pa.table({"doc_id": list(range(2000))})).repartition(7),
                      "doc_id", {"train": 90, "val": 5, "test": 5}).to_pandas()
    m = out.sort_values("doc_id").reset_index(drop=True)
    m2 = out2.sort_values("doc_id").reset_index(drop=True)
    assert m.equals(m2)
    import pytest

    with pytest.raises(ValueError):
        hash_split(ds, "doc_id", {"train": 80, "val": 5})


def test_stratified_sample_deterministic(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.relational import stratified_sample

    tbl = pa.table({"doc_id": list(range(4000)),
                    "grp": ["a", "b", "c", "d"] * 1000})
    out = stratified_sample(rd.from_arrow(tbl), "grp", "doc_id",
                            {"a": 100, "b": 50, "c": 0}, default_pct=10
                            ).to_pandas()
    counts = out["grp"].value_counts()
    assert counts["a"] == 1000            # pct=100 keeps every row
    assert "c" not in counts.index        # pct=0 drops the stratum
    assert 0.40 < counts["b"] / 1000 < 0.60
    assert 0.05 < counts.get("d", 0) / 1000 < 0.16   # default_pct
    # stable across repartitioning (pure per-row filter)
    out2 = stratified_sample(rd.from_arrow(tbl).repartition(7), "grp",
                             "doc_id", {"a": 100, "b": 50, "c": 0},
                             default_pct=10).to_pandas()
    m = out.sort_values("doc_id").reset_index(drop=True)
    m2 = out2.sort_values("doc_id").reset_index(drop=True)
    assert m.equals(m2)
    import pytest

    with pytest.raises(ValueError):
        stratified_sample(rd.from_arrow(tbl), "grp", "doc_id", {"a": 101})


def test_exact_quantiles_and_sessionize(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.agg import exact_quantiles
    from simplefeatures_ray.functions.windows import sessionize

    rng = np.random.default_rng(3)
    vals = rng.integers(0, 50, 5000)
    ds = rd.from_arrow(pa.table({"v": vals})).repartition(8)
    t = exact_quantiles(ds, "v", [0.5, 0.9])
    sv = np.sort(vals)
    assert t["q50"][0].as_py() == sv[max(0, int(np.ceil(0.5 * len(sv))) - 1)]
    assert t["q90"][0].as_py() == sv[max(0, int(np.ceil(0.9 * len(sv))) - 1)]

    # sessionize: user 1 has two sessions split by a 2h gap
    import pandas as pd
    ts = pd.to_datetime([0, 60, 120, 7800, 7860], unit="s")
    tbl = pa.table({"user_id": [1] * 5, "event_id": list(range(5)),
                    "ts": pa.array(ts)})
    out = sessionize(rd.from_arrow(tbl), "user_id", "ts", gap_s=1800.0,
                     id_cols=["event_id"], tie_col="event_id").to_pandas()
    out = out.sort_values("event_id")
    assert out["session_seq"].tolist() == [0, 0, 0, 1, 1]


def test_asof_join_empty_side_buckets(ray_session):
    """Regression: buckets where one side is empty used to crash (a
    dropna(how='all') on a zero-row frame drops every column)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.windows import asof_join

    # left keys 0..3 only, right keys 4..7 only -> every bucket one-sided
    left = pa.table({"lid": [1, 2, 3, 4], "k": [0, 1, 2, 3],
                     "t": pa.array(pd.to_datetime([10, 20, 30, 40], unit="s"))})
    right = pa.table({"rid": [9, 8], "k": [4, 5],
                      "rt": pa.array(pd.to_datetime([5, 6], unit="s"))})
    out = asof_join(rd.from_arrow(left), rd.from_arrow(right), key="k",
                    ts_left="t", ts_right="rt", right_cols=["rid"],
                    n_buckets=4).to_pandas()
    assert len(out) == 4
    assert out["rid"].isna().all()


def test_wav_codec_and_audio_stage(ray_session):
    """Real WAV decode end to end: codec round-trip + DecodeAudio stage."""
    import numpy as np
    import ray.data as rd

    from simplefeatures_ray.audiocodec import audio_features, wav_decode, wav_encode
    from simplefeatures_ray.stages.multimodal import DecodeAudio, real_audio_table

    rate = 8000
    t = np.arange(800) / rate
    sig = (np.sin(2 * np.pi * 440 * t) * 32767).astype(np.int16)
    back, r2 = wav_decode(wav_encode(sig, rate))
    assert r2 == rate and back.shape == (800, 1)
    assert np.allclose(back[:, 0], sig / 32768.0, atol=1e-9)
    # stereo float32 round trip
    st = np.stack([np.sin(2 * np.pi * 100 * t), np.cos(2 * np.pi * 100 * t)],
                  axis=1).astype(np.float32)
    back2, _ = wav_decode(wav_encode(st, rate))
    assert back2.shape == (800, 2)
    assert np.allclose(back2, st, atol=1e-7)

    tbl = real_audio_table(24)
    out = rd.from_arrow(tbl).map_batches(
        DecodeAudio, batch_format="pyarrow", concurrency=1, batch_size=8
    ).to_pandas().sort_values("media_id")
    assert len(out) == 24
    assert (out["sample_rate"] == 8000).all()
    assert np.allclose(out["duration_s"], 0.25)
    # features equal direct computation for row 0
    s0, _ = wav_decode(tbl["audio_bytes"][0].as_py())
    direct = audio_features(s0)
    got = np.asarray(out.iloc[0]["audio_features"], dtype=np.float32)
    assert np.allclose(got, direct)


def test_embedding_near_dup_lsh_equals_brute_force(ray_session):
    """On a seeded table of base vectors and their noisy copies the LSH
    path returns exactly the brute-force pairs with cosine >= t."""
    import ray.data as rd

    from simplefeatures_ray.functions.ann import embedding_near_dup_lsh

    rng = np.random.default_rng(11)
    base = rng.normal(size=(60, 16))
    src = np.concatenate([np.arange(60), rng.integers(0, 60, 40)])
    vecs = (base[src] + np.where(np.arange(100)[:, None] < 60, 0.0,
                                 rng.normal(scale=0.05, size=(100, 16))))
    vecs = vecs.astype(np.float32)
    ids = rng.permutation(1000)[:100].astype(np.int64)
    tbl = pa.table({"vec_id": ids, "embedding": [v.tolist() for v in vecs]})

    unit = vecs.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    cos = unit @ unit.T
    i, j = np.triu_indices(100, k=1)
    # no pair sits at the threshold, so float rounding cannot flip one
    assert not np.any(np.abs(cos[i, j] - 0.9) < 0.01)
    hit = cos[i, j] >= 0.9
    want = {(min(a, b), max(a, b)) for a, b in zip(ids[i[hit]].tolist(),
                                                   ids[j[hit]].tolist())}
    assert len(want) >= 40

    out = embedding_near_dup_lsh(rd.from_arrow(tbl).repartition(4), 0.9).to_pandas()
    assert set(zip(out["id_a"].tolist(), out["id_b"].tolist())) == want
    assert len(out) == len(want)


def test_embedding_near_dup_lsh_empty_input(ray_session):
    """A 0-row input gives no pairs as a typed empty Dataset, not an
    IndexError from probing the vector width."""
    import ray
    import ray.data as rd

    from simplefeatures_ray.functions.ann import embedding_near_dup_lsh

    tbl = pa.table({"vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float32()))})
    out = pa.concat_tables(ray.get(embedding_near_dup_lsh(rd.from_arrow(tbl), 0.9)
                                   .to_arrow_refs()))
    assert out.num_rows == 0
    assert out.schema == pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                                    ("cosine", pa.float64())])


def test_ann_tensor_extension_column(ray_session):
    """Regression (round-3 fuzz): Datasets built via from_pandas carry
    embeddings as Ray tensor-extension columns (no .values attribute);
    _batch_matrix must read them, with ties and zero vectors intact."""
    import pandas as pd
    import ray.data as rd

    from simplefeatures_ray.functions.ann import brute_force_topk

    rng = np.random.default_rng(4)
    m = rng.normal(0, 1, (30, 8)).astype(np.float32)
    m[3] = m[1]            # exact duplicate (cosine tie -> lowest id wins)
    m[7] = m[2] * 2.0      # same-direction tie
    m[5] = 0.0             # zero vector
    df = pd.DataFrame({"vec_id": np.arange(30, dtype=np.int64),
                       "embedding": list(m)})
    q = m[1:2] + 0.0
    out = brute_force_topk(rd.from_pandas(df), np.array([100]), q, 3).to_pandas()
    got = out.sort_values("rank")["vec_id"].tolist()
    assert got[:2] == [1, 3]  # cosine tie broken by lowest id


def test_connected_components_broadcast(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from simplefeatures_ray.functions.dedup import connected_components

    # chain 1-2-3-4 exercises multi-hop propagation; (10,11) is a
    # separate component
    pairs = pa.table({"id_a": [2, 3, 4, 10], "id_b": [1, 2, 3, 11]})
    out = (connected_components(ray.data.from_arrow(pairs))
           .to_pandas().sort_values("doc_id"))
    assert out["doc_id"].tolist() == [1, 2, 3, 4, 10, 11]
    assert out["cluster_id"].tolist() == [1, 1, 1, 1, 10, 10]

    # random graph vs driver-side union-find
    rng = np.random.default_rng(7)
    a = rng.integers(0, 300, 200)
    b = rng.integers(0, 300, 200)
    keep = a != b
    pr = pa.table({"id_a": a[keep].astype(np.int64),
                   "id_b": b[keep].astype(np.int64)})
    got = (connected_components(ray.data.from_arrow(pr))
           .to_pandas().set_index("doc_id")["cluster_id"].to_dict())

    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for x, y in zip(a[keep], b[keep]):
        rx, ry = find(int(x)), find(int(y))
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    want = {n: find(n) for n in set(a[keep].tolist()) | set(b[keep].tolist())}
    assert got == want


def test_connected_components_empty(ray_session):
    import pyarrow as pa
    import ray

    from simplefeatures_ray.functions.dedup import connected_components

    emp = pa.table({"id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64())})
    e = connected_components(ray.data.from_arrow(emp))
    assert e.count() == 0
    assert [f.name for f in e.schema().base_schema] == ["doc_id", "cluster_id"]


def test_blocklist_filter_drops_blocked_domains(ray_session):
    import ray.data as rd

    from simplefeatures_ray.functions.urls import blocklist_filter

    domains = ["a.com", "b.org", "a.com", "c.net", None, "b.org.uk", "d.io"]
    tbl = pa.table({"doc_id": pa.array(range(len(domains)), pa.int64()),
                    "domain": pa.array(domains, pa.string())})
    out = blocklist_filter(rd.from_arrow(tbl).repartition(3), {"a.com", "b.org"})
    assert sorted(out.to_pandas()["doc_id"].tolist()) == [3, 4, 5, 6]


def test_url_normalize_rules(ray_session):
    from simplefeatures_ray.functions.urls import normalize_url_array

    raw = pa.array([
        "HTTPS://WWW.Example.CO.UK:443/A/b?utm_source=x&id=1&utm_medium=y#frag",
        "http://host.com:80/p",
        "http://host.com:8080/p?utm_a=1&utm_b=2&q=3",
        "https://a.b.github.io/x?utm_campaign=only",
        "https://two.net/",
        "https://bare/x",          # single-label host: domain falls back to host
    ])
    out = normalize_url_array(raw)
    assert out["url_norm"].to_pylist() == [
        "https://www.example.co.uk/A/b?id=1",
        "http://host.com/p",
        "http://host.com:8080/p?q=3",
        "https://a.b.github.io/x",
        "https://two.net/",
        "https://bare/x",
    ]
    assert out["domain"].to_pylist() == [
        "example.co.uk", "host.com", "host.com", "b.github.io", "two.net", "bare",
    ]


def test_normalize_urls_non_url_and_bare_host(ray_session):
    """A value that is not a URL gives null url_norm and domain; a
    single-label host with no path normalizes to itself."""
    import ray.data as rd

    from simplefeatures_ray.functions.relational import collect_table
    from simplefeatures_ray.functions.urls import normalize_urls

    tbl = pa.table({"doc_id": [0, 1], "url": ["not a url", "http://h"]})
    out = collect_table(normalize_urls(rd.from_arrow(tbl))).sort_by("doc_id")
    assert out["url_norm"].to_pylist() == [None, "http://h"]
    assert out["domain"].to_pylist() == [None, "h"]


def test_per_domain_cap_deterministic(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.urls import per_domain_cap

    tbl = pa.table({"doc_id": list(range(100)),
                    "domain": [f"d{i % 4}.com" for i in range(100)]})
    out = per_domain_cap(rd.from_arrow(tbl).repartition(7), cap=3).to_pandas()
    assert len(out) == 12
    # lowest doc_ids win per domain
    assert sorted(out[out.domain == "d0.com"]["doc_id"]) == [0, 4, 8]


def test_logistic_score(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.scoring import logistic_score

    tbl = pa.table({"a": [0.0, 1.0, 10.0], "b": [0.0, -1.0, 2.0]})
    out = logistic_score(rd.from_arrow(tbl), {"a": 1.0, "b": 2.0}, bias=-1.0,
                         log1p_cols=("a",)).to_pandas()
    z = -1.0 + np.log(np.array([0.0, 1.0, 10.0]) + 1.0) + 2.0 * np.array([0.0, -1.0, 2.0])
    assert np.allclose(out["score"], 1 / (1 + np.exp(-z)))
    assert out["keep"].tolist() == [False, False, True]


def test_pack_sequences_rules(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.packing import pack_sequences

    # sizes: 200+300 fit exactly in 500; 501 oversized alone; 500 exact
    tbl = pa.table({
        "g": ["a"] * 6 + ["b"] * 2,
        "i": list(range(6)) + [0, 1],
        "sz": [200, 300, 501, 500, 400, 200, 100, 100],
    })
    out = pack_sequences(rd.from_arrow(tbl), "g", "i", "sz", budget=500
                         ).to_pandas().sort_values(["g", "i"])
    assert out[out.g == "a"]["seq_id"].tolist() == [0, 0, 1, 2, 3, 4]
    assert out[out.g == "b"]["seq_id"].tolist() == [0, 0]
    # deterministic across partitioning
    out2 = pack_sequences(rd.from_arrow(tbl).repartition(5), "g", "i", "sz",
                          budget=500).to_pandas().sort_values(["g", "i"])
    assert out2["seq_id"].tolist() == out["seq_id"].tolist()
    import pytest

    with pytest.raises(ValueError):
        pack_sequences(rd.from_arrow(tbl), "g", "i", "sz", budget=0)


def test_bm25_topk_basic(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.functions.text import bm25_topk

    tbl = pa.table({
        "doc_id": [0, 1, 2, 3],
        "text": ["cat cat cat dog", "cat", "dog dog bird", "fish entirely off topic"],
    })
    out = bm25_topk(rd.from_arrow(tbl), ["cat", "bird"], k=3).to_pandas()
    # doc 0 has most 'cat' mass; doc 2 has the rare 'bird'; doc 3 scores 0
    assert out["doc_id"].tolist()[0] in (0, 2)
    assert 3 not in out["doc_id"].tolist() or out.set_index("doc_id").loc[3, "score"] == 0.0
    assert (out["score"].to_numpy()[:-1] >= out["score"].to_numpy()[1:]).all()
    # deterministic across partitioning
    out2 = bm25_topk(rd.from_arrow(tbl).repartition(3), ["cat", "bird"], k=3).to_pandas()
    assert out.equals(out2)


def test_interval_join_matches_brute_force(ray_session):
    """1-D bucketed interval join == numpy brute force, incl. intervals
    spanning many buckets and points exactly on endpoints."""
    import ray.data as rd

    from simplefeatures_ray.functions.windows import interval_join
    from simplefeatures_ray.pipelines.corpus import synth_intervals

    iv = synth_intervals(80)
    rng = np.random.default_rng(21)
    base = 1704067200000000
    t = base + rng.integers(0, 2_592_000, 3000) * 1_000_000
    t[0] = iv["t_start"][7].as_py()   # exact endpoints
    t[1] = iv["t_end"][9].as_py()
    pts = pa.table({"pid": pa.array(np.arange(3000)), "t": pa.array(t)})

    out = interval_join(
        rd.from_arrow(pts).repartition(5), rd.from_arrow(iv).repartition(2),
        "t", "t_start", "t_end", bucket=3600 * 1_000_000, n_buckets=8,
    ).to_pandas()
    got = set(zip(out["pid"], out["interval_id"]))

    s = np.asarray(iv["t_start"]); e = np.asarray(iv["t_end"])
    hit = (t[:, None] >= s) & (t[:, None] <= e)
    want = {(int(a), int(b)) for a, b in zip(*np.nonzero(hit))}
    assert got == want
    assert len(out) == len(got)


def test_exact_ngram_dup_pairs(ray_session):
    """Planted exact-substring duplicates found with exact shared-gram
    counts; stop-gram guard suppresses pairs induced by ubiquitous
    grams."""
    import ray.data as rd

    from simplefeatures_ray.functions.dedup import exact_ngram_dup_pairs

    boiler = "all rights reserved terms of service apply here now"  # 9 words
    texts = [f"unique doc {i} " + " ".join(f"w{i}_{j}" for j in range(12))
             + " " + boiler for i in range(20)]
    shared = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    texts.append("first copy intro " + shared)
    texts.append("second copy other intro words " + shared)
    t = pa.table({"doc_id": pa.array(range(len(texts))),
                  "text": pa.array(texts)})

    out = exact_ngram_dup_pairs(rd.from_arrow(t).repartition(4), ngram=8,
                                min_shared=2, max_df=4).to_pandas()
    got = set(zip(out["id_a"], out["id_b"]))
    assert (20, 21) in got
    # boilerplate grams appear in 20 docs > max_df -> no boiler-only pairs
    assert all(a >= 20 for a, b in got)
    # shared has 10 words -> 3 shared 8-grams
    n = out.set_index(["id_a", "id_b"]).loc[(20, 21), "n_shared"]
    assert n == 3


def test_salted_bucketed_join_invariant(ray_session):
    """n_salts spreads a hot key across shards without changing results
    (left split + right replication)."""
    import ray.data as rd

    from simplefeatures_ray.functions.relational import bucketed_join

    # one dominant key (90% of rows) + a long tail
    k = np.concatenate([np.zeros(900, np.int64),
                        np.arange(1, 101).repeat(1)])
    left = pa.table({"k": pa.array(k), "lv": pa.array(np.arange(len(k)))})
    right = pa.table({"k": pa.array(np.arange(0, 101)),
                      "rv": pa.array(np.arange(0, 101) * 10)})
    base = bucketed_join(rd.from_arrow(left).repartition(4),
                         rd.from_arrow(right), "k",
                         n_buckets=8).to_pandas()
    salted = bucketed_join(rd.from_arrow(left).repartition(4),
                           rd.from_arrow(right), "k",
                           n_buckets=8, n_salts=4).to_pandas()
    cols = ["k", "lv", "rv"]
    a = base[cols].sort_values(["k", "lv"]).reset_index(drop=True)
    b = salted[cols].sort_values(["k", "lv"]).reset_index(drop=True)
    assert a.equals(b)
    assert len(b) == 1000  # every left row matched exactly once


def test_cell_join_salted_invariant(ray_session):
    import ray.data as rd

    from simplefeatures_ray.pipelines.corpus import synth_boxes
    from simplefeatures_ray.stages.join import cell_spatial_join

    rng = np.random.default_rng(3)
    # hot cell: 80% of points in one 5x5 area
    px = np.concatenate([rng.uniform(0, 5, 800), rng.uniform(-180, 180, 200)])
    py = np.concatenate([rng.uniform(0, 5, 800), rng.uniform(-70, 70, 200)])
    pts = pa.table({"pid": pa.array(np.arange(1000)),
                    "x": pa.array(px), "y": pa.array(py)})
    boxes = synth_boxes(60)
    plain = cell_spatial_join(rd.from_arrow(pts), rd.from_arrow(boxes),
                              cell_size=10.0).to_pandas()
    salted = cell_spatial_join(rd.from_arrow(pts), rd.from_arrow(boxes),
                               cell_size=10.0, n_salts=3).to_pandas()
    assert (set(zip(plain["pid"], plain["box_id"]))
            == set(zip(salted["pid"], salted["box_id"])))
    assert len(plain) == len(salted)


def test_cell_overlap_join_reference_point_dedup(ray_session):
    """Box-overlap join == brute force, each pair EXACTLY once even when
    the overlap region spans many cells (reference-point dedup)."""
    import ray.data as rd

    from simplefeatures_ray.stages.join import cell_overlap_join

    rng = np.random.default_rng(17)
    def boxes(n, seed_off):
        cx = rng.uniform(-50, 50, n); cy = rng.uniform(-50, 50, n)
        w = rng.uniform(1, 30, n); h = rng.uniform(1, 30, n)
        return pa.table({"bid": pa.array(np.arange(n) + seed_off),
                         "minx": pa.array(cx - w), "miny": pa.array(cy - h),
                         "maxx": pa.array(cx + w), "maxy": pa.array(cy + h)})

    A, B = boxes(120, 0), boxes(90, 1000)
    out = cell_overlap_join(rd.from_arrow(A).repartition(4),
                            rd.from_arrow(B).repartition(3),
                            cell_size=8.0,  # much smaller than many overlaps
                            left_cols=("minx", "miny", "maxx", "maxy")).to_pandas()
    pairs = list(zip(out["bid"], out["bid_r"]))
    assert len(pairs) == len(set(pairs))  # exactly-once
    ax0, ay0 = np.asarray(A["minx"]), np.asarray(A["miny"])
    ax1, ay1 = np.asarray(A["maxx"]), np.asarray(A["maxy"])
    bx0, by0 = np.asarray(B["minx"]), np.asarray(B["miny"])
    bx1, by1 = np.asarray(B["maxx"]), np.asarray(B["maxy"])
    hit = ((ax0[:, None] <= bx1) & (bx0 <= ax1[:, None])
           & (ay0[:, None] <= by1) & (by0 <= ay1[:, None]))
    want = {(int(i), int(j) + 1000) for i, j in zip(*np.nonzero(hit))}
    assert set(pairs) == want


def test_cell_polygon_join_nonconvex_and_holes(ray_session):
    """Polygon cell join plumbing: matches per-polygon PIP brute force
    incl. a non-convex shell and a polygon with a hole spanning several
    cells; exactly-once pairs."""
    import ray.data as rd

    from simplefeatures_ray.geometry import from_wkt, to_wkb
    from simplefeatures_ray.geometry.predicates import points_in_polygon
    from simplefeatures_ray.geometry.wkb import from_wkb
    from simplefeatures_ray.stages.join import cell_polygon_join

    wkts = [
        "POLYGON((0 0,20 0,20 20,0 20,0 0),(5 5,15 5,15 15,5 15,5 5))",  # hole
        "POLYGON((30 0,50 0,50 20,40 5,30 20,30 0))",                    # non-convex
        "POLYGON((-30 -30,-10 -30,-10 -10,-30 -10,-30 -30))",
    ]
    geoms = [from_wkt(w) for w in wkts]
    env = []
    for g in geoms:
        xy = g.all_xy()
        env.append((xy[:, 0].min(), xy[:, 1].min(), xy[:, 0].max(), xy[:, 1].max()))
    polys = pa.table({
        "poly_id": pa.array(range(3), pa.int64()),
        "wkb": pa.array([to_wkb(g) for g in geoms], pa.binary()),
        "minx": pa.array([e[0] for e in env]),
        "miny": pa.array([e[1] for e in env]),
        "maxx": pa.array([e[2] for e in env]),
        "maxy": pa.array([e[3] for e in env]),
    })
    rng = np.random.default_rng(11)
    px = rng.uniform(-40, 60, 2000)
    py = rng.uniform(-40, 30, 2000)
    px[0], py[0] = 10.0, 10.0   # inside the hole -> excluded
    px[1], py[1] = 10.0, 2.0    # in the ring -> included
    px[2], py[2] = 40.0, 15.0   # in the notch -> excluded
    pts = pa.table({"pid": pa.array(np.arange(2000)),
                    "x": pa.array(px), "y": pa.array(py)})

    out = cell_polygon_join(rd.from_arrow(pts).repartition(5),
                            rd.from_arrow(polys).repartition(2),
                            cell_size=7.0, n_buckets=16).to_pandas()
    got = sorted(zip(out["pid"], out["poly_id"]))
    assert len(got) == len(set(got))
    want = []
    for j, g in enumerate(geoms):
        rings = []
        for leaf in g.flatten():
            rings.extend(leaf.rings)
        loc = points_in_polygon(px, py, rings)
        want += [(int(i), j) for i in np.nonzero(loc >= 0)[0]]
    assert got == sorted(want)
    gotset = set(got)
    assert (1, 0) in gotset and (0, 0) not in gotset and (2, 1) not in gotset


def test_cell_knn_join_matches_brute_force(ray_session):
    """Bounded kNN shuffle join == numpy brute force: same neighbor
    sets, same distances, deterministic ties, radius cut honored."""
    import ray.data as rd

    from simplefeatures_ray.pipelines.corpus import synth_boxes
    from simplefeatures_ray.stages.join import cell_knn_join

    rng = np.random.default_rng(29)
    n = 600
    px = rng.uniform(-180, 180, n)
    py = rng.uniform(-70, 70, n)
    pts = pa.table({"event_id": pa.array(np.arange(n)),
                    "x": pa.array(px), "y": pa.array(py)})
    boxes = synth_boxes(120)
    R, K = 20.0, 4
    out = cell_knn_join(rd.from_arrow(pts).repartition(5),
                        rd.from_arrow(boxes).repartition(3),
                        k=K, radius=R, cell_size=9.0, n_buckets=16).to_pandas()
    got = {}
    for _, r in out.iterrows():
        got.setdefault(int(r["event_id"]), []).append(
            (r["knn_dist"], int(r["box_id"])))
    for v in got.values():
        v.sort()

    x0 = np.asarray(boxes["minx"]); y0 = np.asarray(boxes["miny"])
    x1 = np.asarray(boxes["maxx"]); y1 = np.asarray(boxes["maxy"])
    dx = np.maximum(np.maximum(x0[None, :] - px[:, None], 0.0),
                    px[:, None] - x1[None, :])
    dy = np.maximum(np.maximum(y0[None, :] - py[:, None], 0.0),
                    py[:, None] - y1[None, :])
    dist = np.sqrt(dx * dx + dy * dy)
    for i in range(n):
        cand = sorted((dist[i, j], j) for j in range(len(x0))
                      if dist[i, j] <= R)[:K]
        want = [(d, j) for d, j in cand]
        have = got.get(i, [])
        assert len(have) == len(want), i
        for (dh, jh), (dw, jw) in zip(have, want):
            assert jh == jw and abs(dh - dw) < 1e-9, i


def test_dsir_importance(ray_session):
    """dsir_importance vs a driver-side brute force: same sha-derived
    bucket hashing, Laplace smoothing, integer micro-nat quantization,
    and (weight DESC, doc_id ASC) top-k — weights must match EXACTLY
    (integer dot product) at any parallelism."""
    import hashlib
    import re

    import ray.data as rd

    from simplefeatures_ray.functions.scoring import dsir_importance

    rng = np.random.default_rng(42)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
             "eta", "theta", "data", "model", "scale", "law"]
    docs = []
    for i in range(60):
        n = int(rng.integers(0, 30))
        docs.append(" ".join(rng.choice(vocab, n)))
    docs[7] = ""          # zero-word doc keeps weight 0
    ids = np.arange(60, dtype=np.int64)
    corpus_rows = [(int(i), t) for i, t in zip(ids, docs) if i % 3 != 0]
    target_rows = [(int(i), t) for i, t in zip(ids, docs) if i % 3 == 0]

    def mk(rows, parallelism):
        t = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                      "text": pa.array([r[1] for r in rows], pa.string())})
        return rd.from_arrow(t).repartition(parallelism)

    # brute force
    NB, K = 64, 10

    def bucket(w):
        return int.from_bytes(hashlib.sha256(w.encode()).digest()[:8],
                              "big") % NB

    def words(t):
        return [w.lower() for w in re.findall(r"[\w']+", t) if w]

    cs = np.zeros(NB, np.int64)
    ct = np.zeros(NB, np.int64)
    for _, t in corpus_rows:
        for w in words(t):
            cs[bucket(w)] += 1
    for _, t in target_rows:
        for w in words(t):
            ct[bucket(w)] += 1
    ratio = np.log(((ct + 1.0) / (ct.sum() + NB))
                   / ((cs + 1.0) / (cs.sum() + NB))) * 1e6
    wq = np.copysign(np.floor(np.abs(ratio) + 0.5), ratio).astype(np.int64)
    expect = {i: sum(int(wq[bucket(w)]) for w in words(t))
              for i, t in corpus_rows}
    order = sorted(expect, key=lambda i: (-expect[i], i))
    picked = set(order[:K])

    for par in (1, 7):
        out = dsir_importance(mk(corpus_rows, par), mk(target_rows, par),
                              n_buckets=NB, k=K)
        tbl = pa.concat_tables(
            [pa.table(b) for b in out.iter_batches(batch_format="pyarrow")])
        got_w = dict(zip(np.asarray(tbl["doc_id"], np.int64).tolist(),
                         np.asarray(tbl["dsir_w"], np.int64).tolist()))
        got_p = {i for i, p in zip(np.asarray(tbl["doc_id"], np.int64).tolist(),
                                   np.asarray(tbl["picked"]).tolist()) if p}
        assert got_w == expect, par
        assert got_p == picked, par
