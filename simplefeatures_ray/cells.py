"""Hierarchical spatial cell index (H3/S2-style), built on a Web-Mercator
quadtree with Morton (Z-order) codes.

The engine's tiling substrate: lon/lat -> uint64 cell id at a resolution
0..30. Cell ids are self-delimiting (leading 1 bit above 2*res payload
bits, like S2 tokens), so parent/child are plain shifts and a single
uint64 column carries mixed resolutions. The Web-Mercator forward
transform matches the reference's carto projection
(/root/reference/carto/proj_web_mercator.go:24-57). All functions are
numpy-vectorized; this is a hot kernel in the page-encode stage.
"""
from __future__ import annotations

import numpy as np

MAX_LAT = 85.05112878  # Web-Mercator clamp
MAX_RES = 30


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Interleave zeros between bits of 32-bit values (Morton helper)."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _compact_bits(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64) & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def mercator_xy(lon: np.ndarray, lat: np.ndarray):
    """Web-Mercator forward to unit square [0,1)^2 (y grows southward)."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.clip(np.asarray(lat, dtype=np.float64), -MAX_LAT, MAX_LAT)
    x = (lon + 180.0) / 360.0
    rad = np.radians(lat)
    y = (1.0 - np.log(np.tan(np.pi / 4.0 + rad / 2.0)) / np.pi) / 2.0
    return x, y


def lonlat_to_cell(lon, lat, res: int) -> np.ndarray:
    """uint64 cell ids at resolution `res` for arrays of lon/lat degrees;
    raises ValueError on a NaN lon or lat, which lies in no cell."""
    if not (0 <= res <= MAX_RES):
        raise ValueError(f"resolution must be 0..{MAX_RES}")
    x, y = mercator_xy(lon, lat)
    nan = np.isnan(x) | np.isnan(y)
    if nan.any():
        raise ValueError(f"{int(nan.sum())} NaN lon/lat rows lie in no cell")
    scale = float(1 << res)
    # clamp in float: a negative index (lat at the Mercator clamp gives
    # y ~ -6e-12, lon < -180 gives x < 0) would wrap in the uint64 cast
    ix = np.clip(np.floor(x * scale), 0, scale - 1).astype(np.uint64)
    iy = np.clip(np.floor(y * scale), 0, scale - 1).astype(np.uint64)
    morton = _spread_bits(ix) | (_spread_bits(iy) << np.uint64(1))
    return (np.uint64(1) << np.uint64(2 * res)) | morton


def cell_res(cell: np.ndarray) -> np.ndarray:
    """Resolution of each self-delimiting cell id."""
    cell = np.asarray(cell, dtype=np.uint64)
    bits = np.zeros(cell.shape, dtype=np.int64)
    v = cell.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(shift))
        bits[m] += shift
        v[m] >>= np.uint64(shift)
    return bits // 2


def cell_parent(cell: np.ndarray, levels: int = 1) -> np.ndarray:
    return np.asarray(cell, dtype=np.uint64) >> np.uint64(2 * levels)


def cell_children(cell: int) -> list[int]:
    c = int(cell) << 2
    return [c, c | 1, c | 2, c | 3]


def cell_token(cell) -> str:
    return format(int(cell), "x")


def token_to_cell(token: str) -> int:
    return int(token, 16)


def cell_bounds_xy(cell: np.ndarray):
    """Unit-square (x0, y0, x1, y1) bounds of each cell."""
    cell = np.asarray(cell, dtype=np.uint64)
    res = cell_res(cell)
    payload = cell ^ (np.uint64(1) << (np.uint64(2) * res.astype(np.uint64)))
    ix = _compact_bits(payload)
    iy = _compact_bits(payload >> np.uint64(1))
    size = 1.0 / (1 << res).astype(np.float64) if isinstance(res, np.ndarray) else 1.0 / (1 << res)
    size = np.power(2.0, -res.astype(np.float64))
    x0 = ix.astype(np.float64) * size
    y0 = iy.astype(np.float64) * size
    return x0, y0, x0 + size, y0 + size


def cell_center_lonlat(cell: np.ndarray):
    x0, y0, x1, y1 = cell_bounds_xy(cell)
    cx = (x0 + x1) / 2
    cy = (y0 + y1) / 2
    lon = cx * 360.0 - 180.0
    lat = np.degrees(2.0 * np.arctan(np.exp((1.0 - 2.0 * cy) * np.pi)) - np.pi / 2.0)
    return lon, lat


def cell_xy(cell: np.ndarray):
    """(res, ix, iy) grid decode of self-delimiting cell ids."""
    cell = np.asarray(cell, dtype=np.uint64)
    res = cell_res(cell)
    payload = cell ^ (np.uint64(1) << (np.uint64(2) * res.astype(np.uint64)))
    ix = _compact_bits(payload)
    iy = _compact_bits(payload >> np.uint64(1))
    return res, ix, iy


def cell_from_xy(ix, iy, res: int) -> np.ndarray:
    """Encode grid coords at a uniform resolution into cell ids."""
    ix = np.asarray(ix, dtype=np.uint64)
    iy = np.asarray(iy, dtype=np.uint64)
    return (np.uint64(1) << np.uint64(2 * res)) | _spread_bits(ix) | (
        _spread_bits(iy) << np.uint64(1)
    )


def k_ring(cell, k: int):
    """Grid disk (H3 kRing / gridDisk analogue): every cell within
    Chebyshev distance k of each input cell. x wraps around the
    antimeridian (the Mercator grid is a cylinder); rows off the
    top/bottom edge are dropped. Vectorized: the (2k+1)^2 offset
    stencil is broadcast against the whole input at once.

    Returns (idx, ring): idx[i] is the input position ring[i] belongs
    to. Input must be uniform-resolution (mixed-res disks are
    ill-defined).
    """
    cell = np.atleast_1d(np.asarray(cell, dtype=np.uint64))
    if len(cell) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    res, ix, iy = cell_xy(cell)
    r = int(res[0])
    if not np.all(res == r):
        raise ValueError("k_ring requires uniform-resolution input")
    n = np.int64(1) << np.int64(r)
    off = np.arange(-k, k + 1, dtype=np.int64)
    dx, dy = np.meshgrid(off, off, indexing="ij")
    dx = dx.ravel()
    dy = dy.ravel()
    nx = (ix.astype(np.int64)[:, None] + dx[None, :]) % n  # wraps (numpy % >= 0)
    ny = iy.astype(np.int64)[:, None] + dy[None, :]
    keep = ((ny >= 0) & (ny < n)).ravel()
    idx = np.repeat(np.arange(len(cell), dtype=np.int64), len(dx))[keep]
    ring = cell_from_xy(nx.ravel()[keep], ny.ravel()[keep], r)
    return idx, ring


def compact(cellset: np.ndarray) -> np.ndarray:
    """H3-style compaction of a uniform-resolution cell set: every
    complete sibling quartet is replaced by its parent, recursively.

    Closed form (what the SQL oracle also computes): call a cell
    'full' when all of its res-r descendants are present; the compact
    set is exactly the full cells whose parent is not full.
    """
    cs = np.unique(np.asarray(cellset, dtype=np.uint64))
    if len(cs) == 0:
        return cs
    res = cell_res(cs)
    r = int(res[0])
    if not np.all(res == r):
        raise ValueError("compact requires uniform-resolution input")
    full = [cs]  # full sets at levels r, r-1, ..., 0
    level = cs
    for _ in range(r):
        par, cnt = np.unique(level >> np.uint64(2), return_counts=True)
        level = par[cnt == 4]
        full.append(level)
    out = []
    for d, fl in enumerate(full):  # d levels above r
        if d + 1 < len(full):
            pf = full[d + 1]
            fl = fl[~np.isin(fl >> np.uint64(2), pf)]
        out.append(fl)
    return np.sort(np.concatenate(out))


def uncompact(cellset: np.ndarray, res: int) -> np.ndarray:
    """Expand every (possibly mixed-res) cell to its descendants at
    `res` — the inverse of compact over coverage."""
    cs = np.asarray(cellset, dtype=np.uint64)
    lv = cell_res(cs)
    if np.any(lv > res):
        raise ValueError("uncompact target res is coarser than an input cell")
    out = []
    for l in np.unique(lv):
        d = int(res - l)
        base = cs[lv == l] << np.uint64(2 * d)
        offs = np.arange(1 << (2 * d), dtype=np.uint64)
        out.append((base[:, None] | offs[None, :]).ravel())
    return np.sort(np.concatenate(out)) if out else cs


def polyfill(geom, res: int, chunk: int = 1 << 18) -> np.ndarray:
    """Cells at `res` whose CENTER lies inside the polygon — H3
    polyfill / polygonToCells 'center containment' semantics
    (reference tiling role: geom/alg_point_in_ring.go's containment
    kernel lifted to a grid sweep).

    Scans only the geometry's bbox in grid space; candidate centers
    are generated in chunks of `chunk` so a continent-sized polygon at
    a fine resolution never materializes the full candidate set at
    once. PIP is the vectorized crossing-number kernel.
    """
    from .geometry.predicates import INTERIOR, points_in_polygons

    xs, ys = [], []
    ring_sets = list(_polygon_rings(geom))
    for rings in ring_sets:
        for ring in rings:
            if len(ring):
                xs.append(ring[:, 0])
                ys.append(ring[:, 1])
    if not xs:
        return np.empty(0, dtype=np.uint64)
    minlon = min(float(x.min()) for x in xs)
    maxlon = max(float(x.max()) for x in xs)
    minlat = min(float(y.min()) for y in ys)
    maxlat = max(float(y.max()) for y in ys)
    scale = float(1 << res)
    x0, y0 = mercator_xy(np.array([minlon]), np.array([maxlat]))  # y flips
    x1, y1 = mercator_xy(np.array([maxlon]), np.array([minlat]))
    ix0 = max(int(np.floor(x0[0] * scale)), 0)
    ix1 = min(int(np.floor(x1[0] * scale)), (1 << res) - 1)
    iy0 = max(int(np.floor(y0[0] * scale)), 0)
    iy1 = min(int(np.floor(y1[0] * scale)), (1 << res) - 1)
    if ix1 < ix0 or iy1 < iy0:
        return np.empty(0, dtype=np.uint64)
    w = ix1 - ix0 + 1
    total = w * (iy1 - iy0 + 1)
    hits = []
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        flat = np.arange(start, stop, dtype=np.int64)
        ix = (ix0 + flat % w).astype(np.uint64)
        iy = (iy0 + flat // w).astype(np.uint64)
        cand = cell_from_xy(ix, iy, res)
        lon, lat = cell_center_lonlat(cand)
        inside = (points_in_polygons(lon, lat, ring_sets) == INTERIOR).any(axis=0)
        hits.append(cand[inside])
    return np.sort(np.concatenate(hits)) if hits else np.empty(0, dtype=np.uint64)


def _polygon_rings(geom):
    """Yield the ring list of each polygonal element of a
    Polygon/MultiPolygon (shell first, holes after — the
    points_in_polygons input shape)."""
    from .geometry.core import MULTIPOLYGON, POLYGON

    if geom.tag == POLYGON:
        yield geom.rings
    elif geom.tag == MULTIPOLYGON:
        for g in geom.geoms:
            yield g.rings
    else:
        raise ValueError("polyfill requires a Polygon or MultiPolygon")
