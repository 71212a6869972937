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


def _digest(ds):
    """sha256 of a flagship output canonicalized by sorting its columns
    by name and its rows by all columns: content is deterministic, row
    order is not."""
    import hashlib

    df = ds.to_pandas()
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


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
    from simplefeatures_ray.pipelines.geotag import geotag_join_tiles
    from simplefeatures_ray.sources.pages import pages_dataset
    from simplefeatures_ray.sources.polygons import make_polygons

    digest = _digest(geotag_join_tiles(pages_dataset(3000), make_polygons(64)))
    assert _digest(geotag_join_tiles(
        pages_dataset(3000, override_num_blocks=2), make_polygons(64), batch_size=333
    )) == digest
    # pin (update deliberately, never casually):
    assert digest == GOLDEN_FLAGSHIP_3000, digest


# re-pinned 2026-08-17: flagship default switched to the partitioned-sink
# shape (final_sort=False) and the gate hash is now computed over rows
# canonicalized by sort-by-all-columns, so the digest changed while the
# underlying join rows and tile ids are unchanged (at the time, a content
# check against the since-removed global-sort variant proved it).
GOLDEN_FLAGSHIP_3000 = "a78d17dab18b18121cf2f72f69e07109e1eba763d0d2a0461a4263b7d256a4f4"


def _pages_3000():
    """The rows of pages_dataset(3000) as one Arrow table."""
    import pyarrow as pa

    from simplefeatures_ray.sources.pages import gen_pages_batch

    return gen_pages_batch(pa.table({"id": pa.array(np.arange(3000, dtype=np.int64))}))


def test_flagship_over_split_parquet_read(ray_session, tmp_path):
    """The benchmark's input shape: the pages as 3 parquet files, read by
    rd.read_parquet, which splits each file's read into several blocks.
    The flagship over it gives the golden rows."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from simplefeatures_ray.pipelines.geotag import geotag_join_tiles
    from simplefeatures_ray.sources.polygons import make_polygons

    table = _pages_3000()
    for i in range(3):
        pq.write_table(table.slice(1000 * i, 1000), tmp_path / f"pages-{i}.parquet")
    out = geotag_join_tiles(rd.read_parquet(str(tmp_path)), make_polygons(64))
    assert _digest(out) == GOLDEN_FLAGSHIP_3000


@pytest.mark.parametrize("n_blocks,batch_size", [(1, 2048), (7, 333), (40, 50)])
def test_flagship_invariant_to_blocks_and_batch_size(ray_session, n_blocks, batch_size):
    """Metamorphic relation: the output rows do not depend on the input's
    block count or on batch_size."""
    import ray.data as rd

    from simplefeatures_ray.pipelines.geotag import geotag_join_tiles
    from simplefeatures_ray.sources.polygons import make_polygons

    table = _pages_3000()
    cuts = np.linspace(0, table.num_rows, n_blocks + 1).astype(int)
    ds = rd.from_arrow([table.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])])
    assert ds.num_blocks() == n_blocks
    out = geotag_join_tiles(ds, make_polygons(64), batch_size=batch_size)
    assert _digest(out) == GOLDEN_FLAGSHIP_3000


def test_geotag_wave_window(ray_session, monkeypatch):
    """On a 40-block input no more than 2 × cluster CPUs geotag tasks are
    ever unfinished at once, and the wave fills more than half of that
    window (how full depends on timing). A spy on the task's launches
    counts the launched tasks not yet finished after each launch; the
    count only falls between launches, so its maximum is the most ever
    unfinished. Each task first sleeps 50 ms so the launches outrun the
    tasks."""
    import ray
    import ray.data as rd

    from simplefeatures_ray.pipelines import geotag
    from simplefeatures_ray.sources.polygons import make_polygons

    real_remote, real_wait = ray.remote, ray.wait
    launched, unfinished = [], []

    def spy_remote(*args, **kwargs):
        decorate = real_remote(*args, **kwargs)
        if args:
            return decorate

        def wrap(fn):
            if fn is not geotag._geotag_and_count:
                return decorate(fn)

            def slow(block, kw):
                import time

                time.sleep(0.05)
                return fn(block, kw)

            task = decorate(slow)

            class Spy:
                @staticmethod
                def remote(*a):
                    refs = task.remote(*a)
                    launched.append(refs[1])
                    _, rest = real_wait(launched, num_returns=len(launched),
                                        timeout=0, fetch_local=False)
                    unfinished.append(len(rest))
                    return refs

            return Spy
        return wrap

    table = _pages_3000()
    ds = rd.from_arrow([table.slice(75 * i, 75) for i in range(40)])
    monkeypatch.setattr(ray, "remote", spy_remote)
    out = geotag.geotag_join_tiles(ds, make_polygons(64))
    monkeypatch.undo()
    window = 2 * int(ray.cluster_resources()["CPU"])
    assert len(launched) == 40
    assert window // 2 < max(unfinished) <= window, unfinished
    assert _digest(out) == GOLDEN_FLAGSHIP_3000


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
    store (the joined blocks)."""
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

    polys = make_polygons(64)
    a = geotag_join_tiles(pages_dataset(3000, intl=True), polys)
    assert a.count() > 0
    ha = _digest(a)
    hb = _digest(geotag_join_tiles(
        pages_dataset(3000, override_num_blocks=2, intl=True), polys,
        batch_size=333))
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

    from simplefeatures_ray.pipelines.geotag import _geotag_and_count, geotag_join_tiles
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
    # a schema-less or zero-row input block gives pa.table({}), uncounted,
    # without touching the kernels (so no index is needed)
    kw = {"index_ref": None, "res": 12, "batch_size": 2048}
    for block in (pa.table({}), table.slice(0, 0)):
        joined, partial = _geotag_and_count(block, kw)
        assert joined.equals(pa.table({})) and partial.num_rows == 0
