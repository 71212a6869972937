"""Arrow-column geometry kernels: map_batches stages over WKB columns.

The SURVEY §2.2 `mb(fn)` layer: each kernel takes a pyarrow Table with a
binary WKB column and appends result columns. Per-row geometry work runs
through the pure kernels in simplefeatures_ray.geometry; the batch loop
stays in this one place so pipelines compose them declaratively.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geometry import from_wkb, to_wkb, from_wkt, to_wkt
from ..geometry.algorithms import area, centroid, envelope, length
from ..geometry.validate import validate


def _geoms(batch: pa.Table, col: str):
    return [from_wkb(w) for w in batch[col].to_pylist()]


def geom_stats(wkb_col: str = "wkb"):
    """area, length, centroid x/y, envelope, dimension, is_empty."""

    def kernel(batch: pa.Table) -> pa.Table:
        gs = _geoms(batch, wkb_col)
        n = len(gs)
        a = np.zeros(n)
        ln = np.zeros(n)
        cx = np.full(n, np.nan)
        cy = np.full(n, np.nan)
        env = np.full((n, 4), np.nan)
        dim = np.zeros(n, dtype=np.int8)
        empty = np.zeros(n, dtype=bool)
        for i, g in enumerate(gs):
            a[i] = area(g)
            ln[i] = length(g)
            c = centroid(g)
            if c is not None:
                cx[i], cy[i] = c
            e = envelope(g)
            if e is not None:
                env[i] = e
            dim[i] = g.dimension()
            empty[i] = g.is_empty()
        out = batch
        for name, arr in [
            ("area", a), ("length", ln), ("centroid_x", cx), ("centroid_y", cy),
            ("minx", env[:, 0]), ("miny", env[:, 1]),
            ("maxx", env[:, 2]), ("maxy", env[:, 3]),
        ]:
            out = out.append_column(name, pa.array(arr))
        out = out.append_column("dimension", pa.array(dim, pa.int8()))
        out = out.append_column("is_empty", pa.array(empty))
        return out

    return kernel


def geom_validate(wkb_col: str = "wkb"):
    """is_valid + reason columns; pair with ds.filter to drop invalid rows."""

    def kernel(batch: pa.Table) -> pa.Table:
        gs = _geoms(batch, wkb_col)
        ok = np.zeros(len(gs), dtype=bool)
        reasons = []
        for i, g in enumerate(gs):
            valid, reason = validate(g)
            ok[i] = valid
            reasons.append(reason)
        return batch.append_column("is_valid", pa.array(ok)).append_column(
            "invalid_reason", pa.array(reasons, pa.string())
        )

    return kernel


def geom_transform(fn, wkb_col: str = "wkb", out_col: str | None = None):
    """Geometry->Geometry UDF over the WKB column (the reference's
    TransformXY hook, type_geometry.go:459-516); fn gets a Geometry."""
    out_col = out_col or wkb_col

    def kernel(batch: pa.Table) -> pa.Table:
        out = [to_wkb(fn(from_wkb(w))) for w in batch[wkb_col].to_pylist()]
        arr = pa.array(out, pa.binary())
        if out_col in batch.column_names:
            return batch.set_column(batch.column_names.index(out_col), out_col, arr)
        return batch.append_column(out_col, arr)

    return kernel


def wkt_decode(wkt_col: str = "wkt", out_col: str = "wkb"):
    """WKT column -> WKB column (parse errors become null + error string)."""

    def kernel(batch: pa.Table) -> pa.Table:
        out = []
        errs = []
        for s in batch[wkt_col].to_pylist():
            try:
                out.append(to_wkb(from_wkt(s)))
                errs.append(None)
            except Exception as e:  # noqa: BLE001 - error column contract
                out.append(None)
                errs.append(str(e))
        return batch.append_column(out_col, pa.array(out, pa.binary())).append_column(
            "parse_error", pa.array(errs, pa.string())
        )

    return kernel


def wkt_encode(wkb_col: str = "wkb", out_col: str = "wkt"):
    def kernel(batch: pa.Table) -> pa.Table:
        out = [to_wkt(from_wkb(w)) for w in batch[wkb_col].to_pylist()]
        return batch.append_column(out_col, pa.array(out, pa.string()))

    return kernel


def geojson_encode(wkb_col: str = "wkb", out_col: str = "geojson"):
    from ..geometry.geojson import to_geojson

    def kernel(batch: pa.Table) -> pa.Table:
        out = [to_geojson(from_wkb(w)) for w in batch[wkb_col].to_pylist()]
        return batch.append_column(out_col, pa.array(out, pa.string()))

    return kernel


def twkb_encode(prec: int = 6, wkb_col: str = "wkb", out_col: str = "twkb"):
    from ..geometry.twkb import to_twkb

    def kernel(batch: pa.Table) -> pa.Table:
        out = [to_twkb(from_wkb(w), prec) for w in batch[wkb_col].to_pylist()]
        return batch.append_column(out_col, pa.array(out, pa.binary()))

    return kernel
