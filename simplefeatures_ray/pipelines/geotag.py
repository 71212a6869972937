"""The flagship pipeline (north star): Common-Crawl-style pages ->
geotag extraction -> cell encoding -> broadcast spatial join vs polygons
-> two-stage cell histogram -> deterministic tile assignment -> sorted,
partitioned output.

Streaming end-to-end: the only materialized intermediates are the
per-cell histogram (bounded by 4^res distinct cells, independent of page
count) and the broadcast polygon index. At 10^12 pages on a multi-node
cluster every stage here scales horizontally; the shuffle carries only
combiner output.
"""
from __future__ import annotations

import pyarrow as pa

from ..stages.extract import extract_geotags_batch
from ..stages.join import build_polygon_index, spatial_join_batch
from ..stages.tiling import assign_tiles_batch, cell_histogram, encode_cells, tile_table

DEFAULT_RES = 12


def geotag_join_tiles(
    pages_ds,
    polygons: pa.Table,
    *,
    res: int = DEFAULT_RES,
    batch_size: int = 2048,
    final_sort: bool = False,
    spill_dir: str | None = None,
    cell_scheme: str = "morton",
):
    """pages Dataset + polygon table -> Dataset of
    (url, lat, lon, cell, poly_id[, poly_name], tile_id).

    Deterministic CONTENT at any parallelism: extraction is per-row pure,
    the join emits (point, poly_id)-sorted rows, and tile ids come from a
    globally sorted histogram. Row ORDER is pinned per partition by the
    checkpointed sink — the production shape: state/checkpoint's
    checkpointed_write co-partitions on hash_exchange and sorts each
    bucket file by all columns, so its bytes, and the sha256 of them
    the manifest records as content_hash, are the same at any
    parallelism. final_sort=True adds a global all-to-all sort instead;
    at 10^12 pages that sort is the single most expensive exchange in
    the pipeline, so it is opt-in. spill_dir (or $SFRAY_SPILL_DIR) is a
    shared path for the branch cache; see below.
    """
    import ray

    index_ref = ray.put(build_polygon_index(polygons))

    # hot stages run as stateless TASKS with per-worker cached state
    # (stages/worker_cache.py): same setup amortization as an actor pool,
    # none of the per-execution actor spin-up (~4s/pool measured).
    #
    # The geo filter runs INSIDE the extract kernel, before analysis:
    # the analysis columns are per-row pure, so dropping geotag-less rows
    # first (~30% of pages: the generator geotags ~70%, 13,958 of 20,000)
    # yields identical output at lower cost, with no extra text copies
    # between operators.
    from ..stages.extract import extract_geo_batch

    extracted = pages_ds.map_batches(
        extract_geo_batch,
        batch_format="pyarrow",
        batch_size=batch_size,
    ).select_columns(
        ["url", "lang", "has_geo", "lat", "lon",
         "n_tokens", "quality", "lang_pred", "fingerprint"]
    )

    geo = extracted.filter(expr="has_geo")  # no-op safety net
    geo = geo.map_batches(encode_cells(res, scheme=cell_scheme),
                          batch_format="pyarrow")

    joined = geo.map_batches(
        spatial_join_batch,
        fn_kwargs={"index_ref": index_ref},  # inner join
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    # The DAG branches here (histogram + final output both read `joined`);
    # without a branch cache Ray would re-execute extract+join per branch.
    #
    # Cluster-safety invariant: a parquet spill is only valid when every
    # node can read the files back, so the cache spills only to an
    # explicitly shared path (spill_dir kwarg or $SFRAY_SPILL_DIR — an
    # NFS mount or object-store URI on a real cluster). With no shared
    # path configured the branch cache falls back to materialize(): the
    # blocks live in Ray's *distributed* object store, which is correct
    # on any topology and lets Ray's own spilling handle memory pressure.
    # There is deliberately NO node-local tempdir default — on a
    # multi-node cluster the read tasks would land on nodes where the
    # files don't exist.
    if spill_dir is None:
        import os

        spill_dir = os.environ.get("SFRAY_SPILL_DIR") or None
    if spill_dir is not None:
        import ray.data as rd

        joined.write_parquet(spill_dir)
        joined = rd.read_parquet(spill_dir)
    else:
        joined = joined.materialize()

    # two-stage histogram over joined pages; tiny result -> driver
    hist = cell_histogram(joined.select_columns(["cell"]))
    tiles = tile_table(hist)
    tiles_ref = ray.put(tiles)

    out = joined.map_batches(
        assign_tiles_batch,
        fn_kwargs={"tiles_ref": tiles_ref},
        batch_format="pyarrow",
    )
    out = out.select_columns(
        [c for c in ("url", "lat", "lon", "cell", "poly_id", "poly_name", "tile_id",
                     "n_tokens", "quality", "lang_pred", "fingerprint")
         if c in out.schema().names]
    )
    if final_sort:
        out = out.sort(["tile_id", "url"])
    return out

