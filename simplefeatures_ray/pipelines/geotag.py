"""The flagship pipeline (north star): Common-Crawl-style pages ->
geotag extraction + text analysis -> cell encoding -> broadcast spatial
join vs polygons -> two-stage cell histogram -> deterministic tile
assignment.

A flagship job is two Ray Data executions, with no materialize():
  * UPSTREAM: the caller's Dataset with no engine operator on top (so
    its read gets Ray Data's whole CPU budget), drained once through
    iter_internal_ref_bundles into one plain geotag-and-count task per
    block: geotag_block plus the block's partial cell counts (the
    histogram's combiner). At most 2 × cluster CPUs are unfinished; a
    full window stops the driver pulling, which backpressures the read,
    and the tasks take every CPU the read leaves. Each read block is one
    task, so the wave is as wide as Ray's read split makes the input.
    The driver sums the partials into the tile table; the joined blocks'
    refs pin their rows in the object store, so the lineage runs once.
  * SINK: tile assignment, a lazy map over the joined blocks in
    batch_size-row tasks, runs in the consumer's own execution (the
    checkpointed sink's exchange) as a few tasks, not one per block.
Every task's state (compiled regexes, the polygon index, the tile table)
is built once per worker process by stages/worker_cache. At 10^12 pages
on a multi-node cluster every stage here scales horizontally; only
combiner output (bounded by 4^res cells, not by the page count) reaches
the driver.
"""
from __future__ import annotations

import pyarrow as pa

from ..stages.exchange import task_window
from ..stages.extract import extract_geo_batch
from ..stages.join import build_polygon_index, spatial_join_batch
from ..stages.tiling import (assign_tiles_batch, cell_histogram, encode_cells,
                             partial_cell_counts, tile_table)

DEFAULT_RES = 12

# output columns, in order (poly_name only when the polygons have a name)
OUT_COLUMNS = ("url", "lat", "lon", "cell", "poly_id", "poly_name", "tile_id",
               "n_tokens", "quality", "lang_pred", "fingerprint")


def geotag_block(block: pa.Table, *, index_ref, res: int, batch_size: int) -> pa.Table:
    """The flagship upstream task over one whole input block:
    extract_geo_batch -> encode_cells -> spatial_join_batch, called on
    slices of at most `batch_size` rows so each kernel's working set is
    one batch. extract_geo_batch drops geotag-less rows (~30% of pages)
    before the text analysis and emits only the columns carried
    downstream."""
    encode = encode_cells(res)
    outs = [spatial_join_batch(encode(extract_geo_batch(block.slice(i, batch_size))),
                               index_ref=index_ref)
            for i in range(0, block.num_rows, batch_size)]
    return pa.concat_tables(outs) if outs else pa.table({})


def _geotag_and_count(block, kw: dict):
    """One input block -> (geotag_block(block, **kw), its partial cell
    counts). Nested in `kw`, index_ref arrives as the ref worker_cache
    keys on. A zero-row block gives pa.table({}) and an empty partial."""
    from ray.data.block import BlockAccessor

    joined = geotag_block(BlockAccessor.for_block(block).to_arrow(), **kw)
    return joined, partial_cell_counts()(joined)


def geotag_join_tiles(pages_ds, polygons: pa.Table, *, res: int = DEFAULT_RES,
                      batch_size: int = 2048):
    """pages Dataset + polygon table -> Dataset of OUT_COLUMNS.

    Runs the upstream execution and its geotag-and-count wave before it
    returns (see the module docstring); the returned Dataset is the lazy
    tile assignment over the joined blocks, which the caller's own
    execution runs. `batch_size` is the most rows one kernel call gets.

    Deterministic CONTENT at any parallelism: extraction is per-row pure,
    the join emits (point, poly_id)-sorted rows, and tile ids come from a
    globally sorted histogram. Row ORDER is pinned per partition by the
    checkpointed sink: state/checkpoint's checkpointed_write
    co-partitions on hash_exchange and sorts each bucket file by all
    columns, so its bytes, and the sha256 of them the manifest records as
    content_hash, are the same at any parallelism.
    """
    import ray
    import ray.data as rd

    kw = {"index_ref": ray.put(build_polygon_index(polygons)), "res": res,
          "batch_size": batch_size}
    task, window = ray.remote(num_returns=2)(_geotag_and_count), task_window()
    runs, pending = [], []
    for bundle in pages_ds.iter_internal_ref_bundles():
        for ref, _ in bundle.blocks:
            if len(pending) == window:
                _, pending = ray.wait(pending)
            runs.append(task.remote(ref, kw))
            pending.append(runs[-1][1])
    partials = ray.get([partial for _, partial in runs])
    # every joined row has a cell (the inner join keeps only finite
    # points), so a block without counts holds no rows; dropping it
    # leaves no schema-less block for the assign map to meet
    blocks = [block for (block, _), p in zip(runs, partials) if p.num_rows]
    tiles = tile_table(cell_histogram(partials))
    out = rd.from_arrow_refs(blocks).map_batches(
        assign_tiles_batch,
        fn_kwargs={"tiles_ref": ray.put(tiles)},
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    return out.select_columns(
        [c for c in OUT_COLUMNS if c != "poly_name" or "name" in polygons.column_names])
