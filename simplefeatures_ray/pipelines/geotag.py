"""The flagship pipeline (north star): Common-Crawl-style pages ->
geotag extraction + text analysis -> cell encoding -> broadcast spatial
join vs polygons -> two-stage cell histogram -> deterministic tile
assignment.

Every stage is one shape: a plain task function over Arrow batches, its
state (compiled regexes, the polygon index, the tile table) built once
per worker process by stages/worker_cache. The only materialized
intermediates are the joined rows (the DAG's one branch point), the
per-cell histogram (bounded by 4^res distinct cells, independent of page
count) and the broadcast polygon index. At 10^12 pages on a multi-node
cluster every stage here scales horizontally; the histogram carries only
combiner output.
"""
from __future__ import annotations

import pyarrow as pa

from ..stages.extract import extract_geo_batch
from ..stages.join import build_polygon_index, spatial_join_batch
from ..stages.tiling import assign_tiles_batch, cell_histogram, encode_cells, tile_table

DEFAULT_RES = 12

# output columns, in order (poly_name only when the polygons have a name)
OUT_COLUMNS = ("url", "lat", "lon", "cell", "poly_id", "poly_name", "tile_id",
               "n_tokens", "quality", "lang_pred", "fingerprint")


def geotag_join_tiles(pages_ds, polygons: pa.Table, *, res: int = DEFAULT_RES,
                      batch_size: int = 2048):
    """pages Dataset + polygon table -> Dataset of OUT_COLUMNS.

    Deterministic CONTENT at any parallelism: extraction is per-row pure,
    the join emits (point, poly_id)-sorted rows, and tile ids come from a
    globally sorted histogram. Row ORDER is pinned per partition by the
    checkpointed sink: state/checkpoint's checkpointed_write
    co-partitions on hash_exchange and sorts each bucket file by all
    columns, so its bytes, and the sha256 of them the manifest records as
    content_hash, are the same at any parallelism.
    """
    import ray

    index_ref = ray.put(build_polygon_index(polygons))

    # extract_geo_batch drops geotag-less rows (~30% of pages) before the
    # text analysis and emits only the columns carried downstream
    geo = pages_ds.map_batches(extract_geo_batch, batch_format="pyarrow",
                               batch_size=batch_size)
    geo = geo.map_batches(encode_cells(res), batch_format="pyarrow")
    joined = geo.map_batches(
        spatial_join_batch,
        fn_kwargs={"index_ref": index_ref},  # inner join
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    # The DAG branches here (histogram + final output both read `joined`);
    # without a branch cache Ray would re-execute extract+join per branch.
    # materialize() keeps the blocks in Ray's distributed object store,
    # which is correct on any topology and spills under memory pressure.
    joined = joined.materialize()

    # two-stage histogram over joined pages; tiny result -> driver
    tiles = tile_table(cell_histogram(joined.select_columns(["cell"])))
    out = joined.map_batches(
        assign_tiles_batch,
        fn_kwargs={"tiles_ref": ray.put(tiles)},
        batch_format="pyarrow",
    )
    return out.select_columns(
        [c for c in OUT_COLUMNS if c != "poly_name" or "name" in polygons.column_names])
