"""Raster <-> vector (reference internal/cartodemo/rasterize/
rasterizer.go:15-108 scan-converts geometries; we implement a numpy
scanline rasterizer plus the reverse direction — mask boundary tracing
back to polygons — and the per-tile kernel that runs inside a
cell-partitioned hash_exchange).

rasterize: even-odd scanline fill sampled at pixel centers, optional
supersampling for anti-aliased coverage. vectorize: pixel-boundary edge
tracing reusing the overlay ring tracer, so rasterize->vectorize of a
mask is exact (pixel-aligned polygons).
"""
from __future__ import annotations

import numpy as np

from .geometry.core import LINESTRING, MULTIPOLYGON, POLYGON, Geometry
from .geometry.overlay import _trace_rings


def _fill_rings(rings, width, height, x0, y0, xres, yres, out):
    """Even-odd scanline fill into out (bool, shape (height, width))."""
    ys = y0 + (np.arange(height) + 0.5) * yres
    segs = []
    for ring in rings:
        r = ring[:, :2]
        segs.append(np.concatenate([r[:-1], r[1:]], axis=1))
    if not segs:
        return
    segs = np.concatenate(segs, axis=0)
    x1, yy1, x2, yy2 = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    keep = yy1 != yy2
    x1, yy1, x2, yy2 = x1[keep], yy1[keep], x2[keep], yy2[keep]
    for row, y in enumerate(ys):
        m = (yy1 > y) != (yy2 > y)
        if not m.any():
            continue
        t = (y - yy1[m]) / (yy2[m] - yy1[m])
        xs = np.sort(x1[m] + t * (x2[m] - x1[m]))
        # interior spans between even-odd pairs
        for i in range(0, len(xs) - 1, 2):
            lo = int(np.ceil((xs[i] - x0) / xres - 0.5))
            hi = int(np.floor((xs[i + 1] - x0) / xres - 0.5))
            lo = max(lo, 0)
            hi = min(hi, width - 1)
            if hi >= lo:
                out[row, lo : hi + 1] ^= True


def rasterize(g: Geometry, width: int, height: int, bounds, supersample: int = 1) -> np.ndarray:
    """Geometry -> uint8 image (0..255 coverage), rows top-to-bottom.

    bounds = (minx, miny, maxx, maxy) world window. supersample=k
    samples k*k subpixels for anti-aliased edges (k=1: binary mask).
    """
    minx, miny, maxx, maxy = bounds
    w = width * supersample
    h = height * supersample
    xres = (maxx - minx) / w
    yres = -(maxy - miny) / h  # top row = maxy
    mask = np.zeros((h, w), dtype=bool)
    for leaf in g.flatten():
        if leaf.tag == POLYGON and leaf.rings:
            _fill_rings(leaf.rings, w, h, minx, maxy, xres, yres, mask)
        elif leaf.tag == LINESTRING and len(leaf.coords) >= 2:
            _draw_line(leaf.coords, w, h, minx, maxy, xres, yres, mask)
    if supersample == 1:
        return mask.astype(np.uint8) * 255
    cov = mask.reshape(height, supersample, width, supersample).mean(axis=(1, 3))
    return np.round(cov * 255).astype(np.uint8)


def _draw_line(coords, width, height, x0, y0, xres, yres, out):
    """1-pixel Bresenham-ish stroke for linework."""
    xy = coords[:, :2]
    px = (xy[:, 0] - x0) / xres - 0.5
    py = (xy[:, 1] - y0) / yres - 0.5
    for i in range(len(xy) - 1):
        steps = int(max(abs(px[i + 1] - px[i]), abs(py[i + 1] - py[i]), 1) * 2) + 1
        ts = np.linspace(0, 1, steps)
        xs = np.round(px[i] + ts * (px[i + 1] - px[i])).astype(int)
        ys = np.round(py[i] + ts * (py[i + 1] - py[i])).astype(int)
        ok = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
        out[ys[ok], xs[ok]] = True


def vectorize_mask(mask: np.ndarray, bounds) -> Geometry:
    """Binary mask -> (Multi)Polygon of the filled region (pixel-aligned).

    Boundary edges between filled and unfilled pixels are traced into
    rings with the overlay ring tracer (filled-region-on-left).
    """
    filled = mask > 0
    h, w = filled.shape
    minx, miny, maxx, maxy = bounds
    xres = (maxx - minx) / w
    yres = (maxy - miny) / h

    def world(col, row):
        # row 0 = top (maxy)
        return (round(minx + col * xres, 9), round(maxy - row * yres, 9))

    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = filled
    directed = set()
    # horizontal boundaries: pixel above vs below differ
    diff_h = padded[:-1, :] != padded[1:, :]
    rows, cols = np.nonzero(diff_h)
    for r, c in zip(rows, cols):
        below_filled = padded[r + 1, c]
        row = r  # boundary between padded rows r and r+1 -> mask row r-1 bottom
        a = world(c - 1, row - 1 + 1)
        b = world(c, row - 1 + 1)
        # filled-on-left direction
        directed.add((b, a) if below_filled else (a, b))
    diff_v = padded[:, :-1] != padded[:, 1:]
    rows, cols = np.nonzero(diff_v)
    for r, c in zip(rows, cols):
        right_filled = padded[r, c + 1]
        a = world(c, r - 1)  # upper point (larger world y)
        b = world(c, r)
        # filled on the east side -> walk south (a->b) keeps it on the left
        directed.add((a, b) if right_filled else (b, a))
    rings = _trace_rings(directed)
    from .geometry.overlay import _assemble_polygons

    out = _assemble_polygons(rings)
    # drop collinear pixel-edge vertices (RDP with zero threshold keeps
    # only direction changes)
    from .geometry.algorithms import simplify

    return simplify(out, 0.0)


class RasterizeTiles:
    """Per-tile rasterization kernel (Arrow in, Arrow out): the
    geometries (WKB column) of every distinct cell in the table are
    burned into one image per cell. Emits one row per cell, ascending,
    so it runs as the per-partition kernel of a cell-keyed
    hash_exchange, a partition holding any number of whole cells."""

    def __init__(self, width=256, height=256, cell_col="cell", wkb_col="wkb"):
        self.width = width
        self.height = height
        self.cell_col = cell_col
        self.wkb_col = wkb_col

    def __call__(self, t):
        import pyarrow as pa

        from .cells import cell_bounds_xy
        from .functions._arrow import run_starts
        from .geometry.wkb import from_wkb

        cells = np.asarray(t[self.cell_col], dtype=np.uint64)
        order = np.argsort(cells, kind="stable")
        cells = cells[order]
        wkbs = t[self.wkb_col].take(pa.array(order)).to_pylist()
        starts = run_starts(cells)
        uniq = cells[starts]
        bounds = np.stack(cell_bounds_xy(uniq), axis=1)
        imgs, cover = [], []
        for i, (lo, hi) in enumerate(zip(starts, np.append(starts[1:], len(cells)))):
            img = np.zeros((self.height, self.width), dtype=np.uint8)
            box = tuple(float(v) for v in bounds[i])
            for w in wkbs[lo:hi]:
                img = np.maximum(img, rasterize(from_wkb(w), self.width, self.height, box))
            imgs.append(img.tobytes())
            cover.append(float((img > 0).mean()))
        n = len(uniq)
        return pa.table({
            self.cell_col: pa.array(uniq.astype(np.int64), pa.int64()),
            "png_bytes": pa.array(imgs, pa.binary()),
            "width": pa.array(np.full(n, self.width, np.int64)),
            "height": pa.array(np.full(n, self.height, np.int64)),
            "coverage": pa.array(cover, pa.float64()),
        })
