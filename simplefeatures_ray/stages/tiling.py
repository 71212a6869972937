"""Cell encoding + tile assignment stages.

encode_cells: stateless map_batches kernel, lon/lat -> uint64 cell at a
resolution (vectorized Morton/Web-Mercator, simplefeatures_ray.cells).

cell_histogram: two-stage (combiner + final) count per cell, the
FP-Hadoop two-stage pattern (SURVEY.md §2.6): the combiner,
partial_cell_counts, runs in the flagship's geotag tasks
(pipelines/geotag._geotag_and_count, one per input block), the pass
that already holds the rows, and emits one row per distinct cell per
block; the final sum runs on the driver over |cells| x |blocks| rows.
No groupby exchange and no second pass over the page rows, and hot
'urban' cells cost one row per block.

assign_tiles: deterministic tile ids from the per-cell histogram —
tile_id is the rank of the cell in (count desc, cell asc) order, so the
assignment is bit-for-bit reproducible at any parallelism (north rule).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def encode_cells(res: int, x_col: str = "lon", y_col: str = "lat",
                 out_col: str = "cell"):
    """Cell-encode kernel: Web-Mercator quadtree (Morton) uint64 cells at
    `res` (simplefeatures_ray.cells); NaN coordinates get a null cell."""
    from ..cells import lonlat_to_cell

    def kernel(batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch[x_col], dtype=np.float64)
        lat = np.asarray(batch[y_col], dtype=np.float64)
        ok = ~(np.isnan(lon) | np.isnan(lat))
        cells = np.zeros(len(lon), dtype=np.uint64)
        if ok.any():
            cells[ok] = lonlat_to_cell(lon[ok], lat[ok], res)
        return batch.append_column(out_col, pa.array(cells, pa.uint64(), mask=~ok))

    return kernel


def partial_cell_counts(cell_col: str = "cell"):
    """Combiner: one (cell, partial n) row per distinct cell per batch;
    a schema-less batch (Ray's zero-row block) counts nothing."""

    def kernel(batch: pa.Table) -> pa.Table:
        cells = (np.asarray(batch[cell_col].drop_null(), dtype=np.uint64)
                 if cell_col in batch.column_names else np.zeros(0, np.uint64))
        uniq, counts = np.unique(cells, return_counts=True)
        return pa.table(
            {
                cell_col: pa.array(uniq, pa.uint64()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    return kernel


def cell_histogram(partials, cell_col: str = "cell") -> pa.Table:
    """partial_cell_counts tables -> pyarrow Table of (cell, n_pages):
    the combiner's final stage, one sum per cell on the driver."""
    cells = np.concatenate([np.zeros(0, np.uint64)] + [
        np.asarray(p[cell_col], dtype=np.uint64) for p in partials])
    counts = np.concatenate([np.zeros(0, np.int64)] + [
        np.asarray(p["n"], dtype=np.int64) for p in partials])
    uniq, inv = np.unique(cells, return_inverse=True)
    totals = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(totals, inv, counts)
    return pa.table({cell_col: pa.array(uniq, pa.uint64()),
                     "n_pages": pa.array(totals, pa.int64())})


def tile_table(hist: pa.Table) -> pa.Table:
    """Small per-cell histogram (cell, n_pages) -> (cell, n_pages,
    tile_id) Arrow table; it has |distinct cells| rows, bounded by 4^res,
    not by the page count."""
    cells = np.asarray(hist["cell"], dtype=np.uint64)
    counts = np.asarray(hist["n_pages"], dtype=np.int64)
    order = np.lexsort((cells, -counts))  # count desc, cell asc
    tile_ids = np.empty(len(order), dtype=np.int64)
    tile_ids[order] = np.arange(len(order))
    return pa.table(
        {
            "cell": pa.array(cells, pa.uint64()),
            "n_pages": pa.array(counts, pa.int64()),
            "tile_id": pa.array(tile_ids, pa.int64()),
        }
    )


class AssignTiles:
    """Batch kernel: attach tile_id by cell lookup in the tile table
    (cells absent from it get -1)."""

    def __init__(self, tiles: pa.Table, cell_col: str = "cell"):
        cells = np.asarray(tiles["cell"], dtype=np.uint64)
        tids = np.asarray(tiles["tile_id"], dtype=np.int64)
        order = np.argsort(cells)
        self.sorted_cells = cells[order]
        self.sorted_tids = tids[order]
        self.cell_col = cell_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        cells = np.asarray(batch[self.cell_col].fill_null(0), dtype=np.uint64)
        pos = np.searchsorted(self.sorted_cells, cells)
        pos = np.clip(pos, 0, max(0, len(self.sorted_cells) - 1))
        ok = len(self.sorted_cells) > 0
        if ok:
            found = self.sorted_cells[pos] == cells
            tids = np.where(found, self.sorted_tids[pos], -1)
        else:
            tids = np.full(len(cells), -1, dtype=np.int64)
        return batch.append_column("tile_id", pa.array(tids, pa.int64()))


def assign_tiles_batch(batch: pa.Table, *, tiles_ref, cell_col: str = "cell") -> pa.Table:
    """The flagship assign task: AssignTiles over the tile table behind
    `tiles_ref`, built once per worker process."""
    from .worker_cache import get_cached

    def build(tbl):
        return AssignTiles(tiles=tbl, cell_col=cell_col)

    build.__cache_token__ = f"assign-{cell_col}"
    return get_cached(tiles_ref, build)(batch)
