"""Deterministic synthetic admin-boundary-style polygon table (join side).

Schema per FIXTURES.md §2:
  (poly_id: int64, name: string, wkb: binary, minx,miny,maxx,maxy: double)

Two families:
  * city polygons — one per hot city (guaranteed join hits in the skewed
    cells), an n-gon around the city center, a few with a hole;
  * grid polygons — jittered convex n-gons scattered deterministically
    over the globe.

All shapes are valid per the reference's polygon rules (closed simple
rings, holes inside shells: /root/reference/geom/type_polygon.go:42-49).
"""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..geometry.core import POLYGON, Geometry
from ..geometry.wkb import to_wkb
from .pages import CITIES


def _ngon(cx: float, cy: float, r: float, n: int, phase: float = 0.0) -> np.ndarray:
    ang = phase + np.arange(n) * (2 * math.pi / n)
    ring = np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)
    ring = np.round(ring, 6)
    return np.concatenate([ring, ring[:1]], axis=0)  # CCW closed ring


def make_polygons(n_polys: int = 64) -> pa.Table:
    """Deterministic polygon table with n_polys rows (>= len(CITIES))."""
    rows = []
    pid = 0
    for name, lon, lat in CITIES:
        shell = _ngon(lon, lat, 0.12, 8)
        rings = [shell]
        if pid % 2 == 0:  # half the city polygons carry a hole
            rings.append(_ngon(lon, lat, 0.02, 6)[::-1].copy())  # CW hole
        g = Geometry(POLYGON, 0, rings=rings)
        rows.append((pid, f"city_{name}", g))
        pid += 1
    # grid polygons: deterministic placement from the polygon id
    k = 0
    while pid < n_polys:
        u = (k * 2654435761 % 360) - 180 + 0.5
        v = ((k * 40503 + 7) % 120) - 60 + 0.5
        r = 0.5 + (k * 97 % 13) / 10.0
        sides = 4 + k % 5
        g = Geometry(POLYGON, 0, rings=[_ngon(u, v, r, sides, phase=0.1 * k)])
        rows.append((pid, f"zone_{k}", g))
        pid += 1
        k += 1
    ids, names, wkbs, minx, miny, maxx, maxy = [], [], [], [], [], [], []
    for pid, name, g in rows:
        xy = g.all_xy()
        ids.append(pid)
        names.append(name)
        wkbs.append(to_wkb(g))
        minx.append(float(xy[:, 0].min()))
        miny.append(float(xy[:, 1].min()))
        maxx.append(float(xy[:, 0].max()))
        maxy.append(float(xy[:, 1].max()))
    return pa.table(
        {
            "poly_id": pa.array(ids, pa.int64()),
            "name": pa.array(names, pa.string()),
            "wkb": pa.array(wkbs, pa.binary()),
            "minx": pa.array(minx, pa.float64()),
            "miny": pa.array(miny, pa.float64()),
            "maxx": pa.array(maxx, pa.float64()),
            "maxy": pa.array(maxy, pa.float64()),
        }
    )

