"""End-to-end flagship pipeline tests: correctness of the join output,
bit-for-bit determinism across parallelism (north rule), skew handling.
"""
import numpy as np
import pytest


def _sorted(df):
    """Rows in (tile_id, url, poly_id) order: the pipeline pins content,
    not row order (the checkpointed sink sorts each partition file)."""
    return df.sort_values(["tile_id", "url", "poly_id"],
                          kind="mergesort").reset_index(drop=True)


@pytest.fixture(scope="module")
def small_run(ray_session):
    from simplefeatures_ray.pipelines.geotag import geotag_join_tiles
    from simplefeatures_ray.sources.pages import pages_dataset
    from simplefeatures_ray.sources.polygons import make_polygons

    out = geotag_join_tiles(pages_dataset(5000), make_polygons(64))
    return _sorted(out.to_pandas())


def test_flagship_output_shape(small_run):
    df = small_run
    assert len(df) > 0
    assert list(df.columns) == [
        "url", "lat", "lon", "cell", "poly_id", "poly_name", "tile_id",
        "n_tokens", "quality", "lang_pred", "fingerprint",
    ]
    # sorted by (tile_id, url)
    key = list(zip(df["tile_id"], df["url"]))
    assert key == sorted(key)
    # tile ids are dense ranks
    tiles = np.sort(df["tile_id"].unique())
    assert tiles[0] == 0 and tiles[-1] == len(tiles) - 1


def test_join_matches_brute_force(small_run):
    """Every output row's point is really inside its polygon, and a
    brute-force recount of (page, polygon) hits matches."""
    from simplefeatures_ray.geometry.predicates import points_in_polygon
    from simplefeatures_ray.geometry.wkb import from_wkb
    from simplefeatures_ray.sources.pages import page_coords
    from simplefeatures_ray.sources.polygons import make_polygons

    polys = make_polygons(64)
    rings = {}
    for pid, w in zip(polys["poly_id"].to_pylist(), polys["wkb"].to_pylist()):
        g = from_wkb(w)
        rings[pid] = [r for leaf in g.flatten() for r in leaf.rings]
    idx = np.arange(5000, dtype=np.uint64)
    has_geo, lon, lat = page_coords(idx)
    expected = 0
    for pid, rr in rings.items():
        loc = points_in_polygon(lon[has_geo], lat[has_geo], rr)
        expected += int((loc >= 0).sum())
    assert len(small_run) == expected


def test_deterministic_across_parallelism(ray_session, small_run):
    """North rule: bit-for-bit identical output at different block
    layouts / batch sizes (the sandbox proxy for 8 vs 32 CPUs)."""
    from simplefeatures_ray.pipelines.geotag import geotag_join_tiles
    from simplefeatures_ray.sources.pages import pages_dataset
    from simplefeatures_ray.sources.polygons import make_polygons

    out2 = _sorted(geotag_join_tiles(
        pages_dataset(5000, override_num_blocks=3),
        make_polygons(64),
        batch_size=577,
    ).to_pandas())
    assert small_run.equals(out2)


def test_skewed_cells_present(small_run):
    """The synthetic corpus plants urban hot cells; confirm the skew the
    salting machinery exists for is actually in the data."""
    counts = small_run.groupby("cell").size().sort_values(ascending=False)
    assert counts.iloc[0] >= 5 * counts.median()
    assert counts.iloc[0] >= 50


def test_semi_and_anti_modes(ray_session):
    from simplefeatures_ray.sources.pages import pages_dataset
    from simplefeatures_ray.sources.polygons import make_polygons
    from simplefeatures_ray.stages.extract import extract_geo_batch
    from simplefeatures_ray.stages.join import build_polygon_index, spatial_join_batch
    import ray

    pages = pages_dataset(2000)
    index_ref = ray.put(build_polygon_index(make_polygons(64)))
    ex = pages.map_batches(extract_geo_batch, batch_format="pyarrow")
    n_geo = ex.count()
    semi = ex.map_batches(spatial_join_batch,
                          fn_kwargs={"index_ref": index_ref, "mode": "semi"},
                          batch_format="pyarrow").count()
    anti = ex.map_batches(spatial_join_batch,
                          fn_kwargs={"index_ref": index_ref, "mode": "anti"},
                          batch_format="pyarrow").count()
    assert semi + anti == n_geo
    assert semi > 0 and anti > 0


def test_golden_output_hash(ray_session):
    """Pinned content hash of the flagship output at a fixed input — the
    bit-for-bit regression gate (north rule: reproduce join rows and tile
    ids exactly). If an intentional semantic change moves this hash,
    update the pin in the same commit and say why."""
    import hashlib

    from simplefeatures_ray.pipelines.geotag import geotag_join_tiles
    from simplefeatures_ray.sources.pages import pages_dataset
    from simplefeatures_ray.sources.polygons import make_polygons

    def canon(df):
        # content is deterministic, row order is not — canonicalize by
        # sorting
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

    df = canon(geotag_join_tiles(pages_dataset(3000), make_polygons(64)).to_pandas())
    digest = hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()
    df2 = canon(geotag_join_tiles(
        pages_dataset(3000, override_num_blocks=2), make_polygons(64), batch_size=333
    ).to_pandas())
    assert hashlib.sha256(df2.to_csv(index=False).encode()).hexdigest() == digest
    # pin (update deliberately, never casually):
    assert digest == GOLDEN_FLAGSHIP_3000, digest


# re-pinned 2026-08-17: flagship default switched to the partitioned-sink
# shape (final_sort=False) and the gate hash is now computed over rows
# canonicalized by sort-by-all-columns, so the digest changed while the
# underlying join rows and tile ids are unchanged (at the time, a content
# check against the since-removed global-sort variant proved it).
GOLDEN_FLAGSHIP_3000 = "a78d17dab18b18121cf2f72f69e07109e1eba763d0d2a0461a4263b7d256a4f4"


def test_extracted_text_byte_identical(ray_session):
    """input_hint per-row invariant: the engine's extractor reproduces
    the reference extraction (the pages table's `text` column)
    byte-identically per url, at any batch slicing."""
    import numpy as np
    import pyarrow as pa

    from simplefeatures_ray.sources.pages import gen_pages_batch
    from simplefeatures_ray.stages.extract import ExtractGeotags

    batch = gen_pages_batch(pa.table({"id": pa.array(np.arange(4096, dtype=np.int64))}))
    ex = ExtractGeotags()
    out = ex.extract(batch)
    assert out["text"].to_pylist() == batch["text"].to_pylist()
    # same under a different slicing
    half = ex.extract(batch.slice(1000, 500))
    assert half["text"].to_pylist() == batch.slice(1000, 500)["text"].to_pylist()


def test_branch_cache_cluster_safety(ray_session):
    """Cluster-safety invariant (VERDICT r4 #1): the joined rows never
    spill to a node-local path; they live in the distributed object
    store (the coalesced blocks)."""
    import glob

    from simplefeatures_ray.pipelines.geotag import geotag_join_tiles
    from simplefeatures_ray.sources.pages import pages_dataset
    from simplefeatures_ray.sources.polygons import make_polygons

    before = set(glob.glob("/tmp/sfray-branch-*"))
    out = geotag_join_tiles(pages_dataset(2000), make_polygons(64)).to_pandas()
    assert len(out) > 0
    # no node-local tempdir was created
    assert set(glob.glob("/tmp/sfray-branch-*")) == before


def test_flagship_on_intl_corpus(ray_session):
    """VERDICT r4 #2 'done' bar: the flagship runs on a >=50%-non-ASCII
    corpus with bit-identical content at different parallelism, and its
    per-row invariant (engine extraction == reference text) holds."""
    import hashlib

    import pyarrow as pa

    from simplefeatures_ray.pipelines.geotag import geotag_join_tiles
    from simplefeatures_ray.sources.pages import gen_pages_batch, pages_dataset
    from simplefeatures_ray.sources.polygons import make_polygons
    from simplefeatures_ray.stages.extract import ExtractGeotags

    # corpus really is majority non-ASCII
    import numpy as np

    batch = gen_pages_batch(
        pa.table({"id": pa.array(np.arange(4096, dtype=np.int64))}),
        intl=True)
    nonascii = sum(1 for t in batch["text"].to_pylist() if not t.isascii())
    assert nonascii >= 0.5 * len(batch)

    # per-row invariant: engine extraction == stored reference text
    out = ExtractGeotags().extract(batch)
    assert out["text"].to_pylist() == batch["text"].to_pylist()

    def canon(df):
        df = df.reindex(sorted(df.columns), axis=1)
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

    polys = make_polygons(64)
    a = canon(geotag_join_tiles(
        pages_dataset(3000, intl=True), polys).to_pandas())
    assert len(a) > 0
    b = canon(geotag_join_tiles(
        pages_dataset(3000, override_num_blocks=2, intl=True), polys,
        batch_size=333).to_pandas())
    ha = hashlib.sha256(a.to_csv(index=False).encode()).hexdigest()
    hb = hashlib.sha256(b.to_csv(index=False).encode()).hexdigest()
    assert ha == hb
    # pin, like GOLDEN_FLAGSHIP_3000: a change to the intl analysis
    # values that is consistent at both parallelisms must still show
    assert ha == GOLDEN_FLAGSHIP_INTL_3000, ha


# same canonical digest as GOLDEN_FLAGSHIP_3000, over the ~60%-non-ASCII
# corpus pages_dataset(3000, intl=True); pinned 2026-10-19, before the
# one-domain-per-row analysis, which left it unchanged
GOLDEN_FLAGSHIP_INTL_3000 = "57497c8b67c5c6a68ca3a273cf2e6a44a260735a3be04ed6057e03186c1dc89f"


def test_in_task_slicing(ray_session, small_run, monkeypatch):
    """batch_size bounds the rows of each kernel call inside the
    whole-block geotag task: a one-block read at batch_size=577 gives the
    same rows, and called in-process on a 5,000-row block the task hands
    extract_geo_batch no slice above 577 rows."""
    import pyarrow as pa
    import ray

    from simplefeatures_ray.pipelines import geotag
    from simplefeatures_ray.sources.pages import gen_pages_batch, pages_dataset
    from simplefeatures_ray.sources.polygons import make_polygons
    from simplefeatures_ray.stages.join import build_polygon_index

    polys = make_polygons(64)
    out = _sorted(geotag.geotag_join_tiles(
        pages_dataset(5000, override_num_blocks=1), polys, batch_size=577).to_pandas())
    assert small_run.equals(out)

    sizes = []
    extract = geotag.extract_geo_batch

    def spy(batch):
        sizes.append(batch.num_rows)
        return extract(batch)

    monkeypatch.setattr(geotag, "extract_geo_batch", spy)
    block = gen_pages_batch(pa.table({"id": pa.array(np.arange(5000, dtype=np.int64))}))
    joined = geotag.geotag_block(block, index_ref=ray.put(build_polygon_index(polys)),
                                 res=geotag.DEFAULT_RES, batch_size=577)
    assert sum(sizes) == 5000 and max(sizes) <= 577
    assert joined.num_rows > 0


@pytest.mark.parametrize("pages", ["no_geotag", "zero_rows"])
def test_no_geotagged_page(ray_session, tmp_path, pages):
    """An input without a geotagged page gives zero rows and a manifest
    with 0 partitions: Ray emits the empty map outputs as schema-less
    blocks, and no stage may reach for their columns."""
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.pipelines.geotag import _coalesce_and_count, geotag_join_tiles
    from simplefeatures_ray.sources.pages import gen_pages_batch, page_coords
    from simplefeatures_ray.sources.polygons import make_polygons
    from simplefeatures_ray.state.checkpoint import checkpointed_write

    idx = np.arange(3000, dtype=np.uint64)
    ids = idx[~page_coords(idx)[0]][:912].astype(np.int64)
    assert len(ids) == 912
    table = gen_pages_batch(pa.table({"id": pa.array(ids)}))
    if pages == "zero_rows":
        table = table.slice(0, 0)
    out = geotag_join_tiles(rd.from_arrow(table), make_polygons(64))
    manifest = checkpointed_write(out, str(tmp_path), partition_col="tile_id")
    assert manifest["n_partitions"] == 0 and manifest["total_rows"] == 0
    assert len(out.to_pandas()) == 0
    # a run made only of schema-less blocks coalesces to one, uncounted
    run, partial = _coalesce_and_count(pa.table({}), pa.table({}))
    assert run.num_rows == 0 and partial.num_rows == 0
