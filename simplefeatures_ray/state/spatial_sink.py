"""Spatially-partitioned parquet sink with bbox-pruned reads.

The 100-TB read-path lever: output is bucketed by a coarse spatial cell
(cells.py Morton quadtree), each bucket written as its own parquet
directory with its lon/lat bbox recorded in a driver-side manifest.
`read_spatial(path, bbox)` then opens ONLY the buckets whose bbox
intersects the query window — partition pruning before any byte leaves
storage, the spatial analogue of Parquet row-group min/max pruning.

The writer is state/checkpoint.write_buckets: a hash_exchange by the
cell's index among the 4^res cells of its resolution, computed in the
exchange's split tasks, and one Arrow kernel per non-empty cell (sorted
rows, tmp-file + atomic rename, so task retries are idempotent) that
recomputes the index from its first row and whose lineage row also
carries the cell's data bbox.
"""
from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..cells import cell_bounds_xy, lonlat_to_cell
from .checkpoint import LINEAGE, write_buckets

MANIFEST = "_spatial_manifest.json"

_BBOX = ("lon_min", "lat_min", "lon_max", "lat_max")
_LINEAGE_BBOX = pa.schema(list(LINEAGE) + [pa.field(c, pa.float64()) for c in _BBOX])


def _cell_lonlat_bounds(cell: int):
    """(lon0, lat0, lon1, lat1) of a cell (inverse Web-Mercator)."""
    x0, y0, x1, y1 = cell_bounds_xy(np.array([cell], dtype=np.uint64))
    lon0 = float(x0[0]) * 360.0 - 180.0
    lon1 = float(x1[0]) * 360.0 - 180.0
    # y grows downward in the unit square
    lat1 = float(np.degrees(2 * np.arctan(np.exp((1 - 2 * y0[0]) * np.pi)) - np.pi / 2))
    lat0 = float(np.degrees(2 * np.arctan(np.exp((1 - 2 * y1[0]) * np.pi)) - np.pi / 2))
    return lon0, lat0, lon1, lat1


def write_spatial(ds, out_dir: str, lon_col: str = "lon", lat_col: str = "lat",
                  res: int = 3) -> dict:
    """Write `ds` partitioned by spatial cell at resolution `res`
    (4^res buckets max). Returns the manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    first = 4 ** res  # cell ids at `res` are first .. 2*first-1

    def bucket(t: pa.Table) -> np.ndarray:
        cells = lonlat_to_cell(np.asarray(t[lon_col], dtype=np.float64),
                               np.asarray(t[lat_col], dtype=np.float64), res)
        return (cells - np.uint64(first)).astype(np.int64)

    def bbox(t: pa.Table) -> dict:
        lon, lat = pc.min_max(t[lon_col]), pc.min_max(t[lat_col])
        return {"lon_min": lon["min"].as_py(), "lat_min": lat["min"].as_py(),
                "lon_max": lon["max"].as_py(), "lat_max": lat["max"].as_py()}

    lineage = write_buckets(
        ds, first, bucket, lambda b: os.path.join(out_dir, f"cell={first + b:x}"),
        stats=bbox, schema=_LINEAGE_BBOX)
    partitions = {}
    for r in lineage:
        cell = first + r["bucket"]
        partitions[f"{cell:x}"] = {
            "rows": r["rows"],
            # actual data bbox (tighter than the cell bbox)
            "bbox": [r[c] for c in _BBOX],
            "cell_bbox": list(_cell_lonlat_bounds(cell)),
        }
    doc = {"version": 1, "res": res, "lon_col": lon_col, "lat_col": lat_col,
           "partitions": partitions,
           "total_rows": int(sum(p["rows"] for p in partitions.values()))}
    tmp = os.path.join(out_dir, MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, MANIFEST))
    return doc


def read_spatial(path: str, bbox=None):
    """Dataset over a write_spatial() directory, pruned to the buckets
    whose data bbox intersects `bbox` = (lon0, lat0, lon1, lat1), then
    row-filtered to the bbox (the prune is partition-granular)."""
    import ray.data as rd

    with open(os.path.join(path, MANIFEST)) as f:
        doc = json.load(f)
    dirs = []
    for cell, meta in sorted(doc["partitions"].items()):
        if bbox is not None:
            b = meta["bbox"]
            if b[0] > bbox[2] or bbox[0] > b[2] or b[1] > bbox[3] or bbox[1] > b[3]:
                continue
        dirs.append(os.path.join(path, f"cell={cell}", "data.parquet"))
    if not dirs:
        raise FileNotFoundError("no partitions intersect the bbox")
    # partitioning=None: don't infer a hive 'cell' column from the
    # bucket directory names — the data columns are the contract
    ds = rd.read_parquet(dirs, partitioning=None)
    if bbox is not None:
        lon_col, lat_col = doc["lon_col"], doc["lat_col"]
        lon0, lat0, lon1, lat1 = bbox

        def filt(t: pa.Table) -> pa.Table:
            lon = np.asarray(t[lon_col], dtype=np.float64)
            lat = np.asarray(t[lat_col], dtype=np.float64)
            keep = (lon >= lon0) & (lon <= lon1) & (lat >= lat0) & (lat <= lat1)
            return t.filter(pa.array(keep))

        ds = ds.map_batches(filt, batch_format="pyarrow")
    return ds


def pruned_fraction(path: str, bbox) -> float:
    """Fraction of total rows whose partitions are skipped for `bbox` —
    the observability hook for how much the spatial layout saves."""
    with open(os.path.join(path, MANIFEST)) as f:
        doc = json.load(f)
    total = doc["total_rows"] or 1
    kept = 0
    for meta in doc["partitions"].values():
        b = meta["bbox"]
        if not (b[0] > bbox[2] or bbox[0] > b[2] or b[1] > bbox[3] or bbox[1] > b[3]):
            kept += meta["rows"]
    return 1.0 - kept / total
