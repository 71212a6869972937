"""The flagship pipeline (north star): Common-Crawl-style pages ->
geotag extraction + text analysis -> cell encoding -> broadcast spatial
join vs polygons -> two-stage cell histogram -> deterministic tile
assignment.

A flagship job is two Ray Data executions, with no materialize():
  * UPSTREAM: one geotag task per input block (geotag_block: extract ->
    encode -> join over the whole block, in slices of at most
    batch_size rows), drained once through iter_internal_ref_bundles.
    As the blocks arrive the driver cuts them into runs
    (exchange.block_runs, the exchange's own run rule) and launches one
    coalesce-and-count task per run: it returns the run as ONE block
    plus the run's partial cell counts (the histogram's combiner). The
    driver sums the partials into the tile table; the refs to the
    coalesced blocks keep the joined rows pinned in the object store,
    so the lineage runs exactly once.
  * SINK: tile assignment is a lazy map over the coalesced blocks, so it
    runs in the consumer's own execution (the checkpointed sink's
    exchange, which computes each row's bucket in its split tasks) over
    a few blocks, not one task per read block.
Every task's state (compiled regexes, the polygon index, the tile table)
is built once per worker process by stages/worker_cache. At 10^12 pages
on a multi-node cluster every stage here scales horizontally; only
combiner output (bounded by 4^res cells, not by the page count) reaches
the driver.
"""
from __future__ import annotations

import pyarrow as pa

from ..stages.exchange import block_runs
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
    return pa.concat_tables(outs) if outs else block


def _coalesce_and_count(*blocks):
    """One run of joined blocks -> (the run as one block, its partial
    cell counts). Zero-row blocks, schema-less when Ray's map operators
    emit them, are dropped; a run of nothing else comes out as
    pa.table({}) with an empty partial."""
    rows = [b for b in blocks if b.num_rows]
    run = pa.concat_tables(rows) if rows else pa.table({})
    return run, partial_cell_counts()(run)


def geotag_join_tiles(pages_ds, polygons: pa.Table, *, res: int = DEFAULT_RES,
                      batch_size: int = 2048):
    """pages Dataset + polygon table -> Dataset of OUT_COLUMNS.

    Runs the upstream execution and the coalesce-and-count wave before
    it returns (see the module docstring); the returned Dataset is the
    lazy tile assignment over the coalesced blocks, which the caller's
    own execution runs. `batch_size` is the most rows one kernel call
    gets.

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

    index_ref = ray.put(build_polygon_index(polygons))
    joined = pages_ds.map_batches(
        geotag_block,
        fn_kwargs={"index_ref": index_ref, "res": res, "batch_size": batch_size},
        batch_format="pyarrow",
        batch_size=None,  # one task per input block, sliced inside
    )
    coalesce = ray.remote(num_returns=2)(_coalesce_and_count)
    runs = [coalesce.remote(*run) for run in block_runs(joined.iter_internal_ref_bundles())]
    partials = ray.get([partial for _, partial in runs])
    # every joined row has a cell (the inner join keeps only finite
    # points), so a run without counts holds no rows; dropping it leaves
    # no schema-less block for the assign map to meet
    blocks = [block for (block, _), p in zip(runs, partials) if p.num_rows]
    tiles = tile_table(cell_histogram(partials))
    out = rd.from_arrow_refs(blocks).map_batches(
        assign_tiles_batch,
        fn_kwargs={"tiles_ref": ray.put(tiles)},
        batch_format="pyarrow",
    )
    return out.select_columns(
        [c for c in OUT_COLUMNS if c != "poly_name" or "name" in polygons.column_names])
