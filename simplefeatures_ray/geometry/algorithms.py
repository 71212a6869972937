"""Unary geometry algorithms, numpy-vectorized.

Semantics match the reference implementations cited per function
(/root/reference/geom/...). All functions take/return `Geometry` or
plain floats; batch-level (Arrow column) wrappers live in
simplefeatures_ray.stages.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    GEOMETRYCOLLECTION,
    LINESTRING,
    MULTILINESTRING,
    MULTIPOINT,
    MULTIPOLYGON,
    POINT,
    POLYGON,
    Geometry,
    GeometryError,
)

# --------------------------------------------------------------------------- #
# envelope
# --------------------------------------------------------------------------- #


def envelope(g: Geometry):
    """AABB as (minx, miny, maxx, maxy) or None when empty
    (reference geom/type_envelope.go, type_sequence.go:181-200)."""
    xy = g.all_xy()
    if len(xy) == 0:
        return None
    mn = xy.min(axis=0)
    mx = xy.max(axis=0)
    return (float(mn[0]), float(mn[1]), float(mx[0]), float(mx[1]))


# --------------------------------------------------------------------------- #
# area / length / centroid
# --------------------------------------------------------------------------- #


def ring_signed_area(ring: np.ndarray) -> float:
    """Shoelace over XY; positive for CCW (reference type_polygon.go:416-440
    computes the same sum; sign convention: CCW > 0)."""
    if len(ring) < 3:
        return 0.0
    x = ring[:, 0]
    y = ring[:, 1]
    # sum of cross products around an anchored fan; anchoring at ring[0]
    # keeps the magnitudes small for far-from-origin rings.
    x0, y0 = x[0], y[0]
    dx = x - x0
    dy = y - y0
    s = np.sum(dx[:-1] * dy[1:] - dx[1:] * dy[:-1])
    return 0.5 * float(s)


def area(g: Geometry, signed: bool = False) -> float:
    """Polygon area: shell minus holes (reference type_geometry.go:552)."""
    t = g.tag
    if t == POLYGON:
        if not g.rings:
            return 0.0
        a = abs(ring_signed_area(g.rings[0]))
        for hole in g.rings[1:]:
            a -= abs(ring_signed_area(hole))
        if signed:
            sign = 1.0 if ring_signed_area(g.rings[0]) >= 0 else -1.0
            return sign * a
        return a
    if t == MULTIPOLYGON or t == GEOMETRYCOLLECTION:
        return sum(area(sub, signed) for sub in g.geoms)
    return 0.0


def length(g: Geometry) -> float:
    """Sum of curve lengths (reference type_geometry.go:518)."""
    t = g.tag
    if t == LINESTRING:
        c = g.coords
        if len(c) < 2:
            return 0.0
        d = np.diff(c[:, :2], axis=0)
        return float(np.sum(np.hypot(d[:, 0], d[:, 1])))
    if t == POLYGON:
        return sum(length(Geometry(LINESTRING, g.ctype, coords=r)) for r in g.rings)
    if t in (MULTILINESTRING, MULTIPOLYGON, GEOMETRYCOLLECTION):
        return sum(length(sub) for sub in g.geoms)
    return 0.0


def _centroid_weight(g: Geometry):
    """Return (sum_vec(2,), weight, dim) for the highest-dimension content.

    Mirrors the reference's dimension-dispatch rule for collections
    (geom/type_geometry_collection.go:319-417): highest dimension wins.
    """
    t = g.tag
    if t == POINT:
        if g.coords is None:
            return np.zeros(2), 0.0, 0
        return g.coords[:2].astype(float), 1.0, 0
    if t == MULTIPOINT:
        s = np.zeros(2)
        n = 0.0
        for p in g.geoms:
            if p.coords is not None:
                s += p.coords[:2]
                n += 1.0
        return s, n, 0
    if t == LINESTRING:
        c = g.coords[:, :2]
        if len(c) < 2:
            if len(c) == 1:
                return c[0].copy(), 1.0, 0
            return np.zeros(2), 0.0, 1
        d = np.diff(c, axis=0)
        seglen = np.hypot(d[:, 0], d[:, 1])
        mid = (c[:-1] + c[1:]) / 2.0
        total = float(seglen.sum())
        if total == 0.0:
            return c[0].copy(), 1.0, 0
        return (mid * seglen[:, None]).sum(axis=0), total, 1
    if t == POLYGON:
        if not g.rings:
            return np.zeros(2), 0.0, 2
        s = np.zeros(2)
        total = 0.0
        for i, ring in enumerate(g.rings):
            xy = ring[:, :2]
            x0 = xy[0]
            dx = xy - x0
            cross = dx[:-1, 0] * dx[1:, 1] - dx[1:, 0] * dx[:-1, 1]
            a = 0.5 * float(cross.sum())
            # triangle centroids: x0 + (d_i + d_{i+1})/3, weighted by cross/2
            contrib = ((dx[:-1] + dx[1:]) / 3.0 * cross[:, None] * 0.5).sum(axis=0)
            if i == 0:
                sgn = 1.0
            else:
                sgn = -1.0
            a_abs = abs(a)
            # centroid of this ring region relative to x0:
            if a != 0:
                rel = contrib / a
            else:
                rel = np.zeros(2)
            s += sgn * a_abs * (x0 + rel)
            total += sgn * a_abs
        if total == 0.0:
            # degenerate (zero-area) polygon: fall back to boundary centroid
            return _centroid_weight(
                Geometry(MULTILINESTRING, g.ctype,
                         geoms=[Geometry(LINESTRING, g.ctype, coords=r) for r in g.rings])
            )
        return s, total, 2
    # collections: combine children at the max dimension present
    best_dim = -1
    s = np.zeros(2)
    w = 0.0
    parts = [_centroid_weight(sub) for sub in g.geoms]
    for ps, pw, pd in parts:
        if pw == 0.0:
            continue
        if pd > best_dim:
            best_dim = pd
            s = np.zeros(2)
            w = 0.0
        if pd == best_dim:
            s += ps
            w += pw
    return s, w, max(best_dim, 0)


def centroid(g: Geometry):
    """Centroid as (x, y) or None for empty (reference type_geometry.go:543)."""
    s, w, _ = _centroid_weight(g)
    if w == 0.0:
        return None
    return (float(s[0] / w), float(s[1] / w))


# --------------------------------------------------------------------------- #
# orientation
# --------------------------------------------------------------------------- #


def is_ring_cw(ring: np.ndarray) -> bool:
    return ring_signed_area(ring) < 0


def force_orientation(g: Geometry, cw_shell: bool) -> Geometry:
    """ForceCW/ForceCCW (reference type_geometry.go:685-744): shells get the
    requested orientation, holes the opposite."""

    def fix_poly(p: Geometry) -> Geometry:
        rings = []
        for i, r in enumerate(p.rings):
            want_cw = cw_shell if i == 0 else not cw_shell
            if is_ring_cw(r) != want_cw:
                r = r[::-1].copy()
            rings.append(r)
        return Geometry(POLYGON, p.ctype, rings=rings)

    t = g.tag
    if t == POLYGON:
        return fix_poly(g)
    if t == MULTIPOLYGON:
        return Geometry(MULTIPOLYGON, g.ctype, geoms=[fix_poly(p) for p in g.geoms])
    if t == GEOMETRYCOLLECTION:
        return Geometry(GEOMETRYCOLLECTION, g.ctype,
                        geoms=[force_orientation(sub, cw_shell) for sub in g.geoms])
    return g


# --------------------------------------------------------------------------- #
# convex hull — Andrew's monotone chain (reference geom/alg_convex_hull.go)
# --------------------------------------------------------------------------- #


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(g: Geometry) -> Geometry:
    """PostGIS-compatible results: empty -> empty GC is avoided; the
    reference returns typed empties / degenerate Point/LineString
    (alg_convex_hull.go:9-14)."""
    xy = g.all_xy()
    if len(xy) == 0:
        return Geometry(GEOMETRYCOLLECTION, g.ctype & 0, geoms=[])
    pts = np.unique(xy, axis=0)
    if len(pts) == 1:
        return Geometry.point(pts[0, 0], pts[0, 1])
    # lexicographic sort (unique already sorts rows lexicographically)
    pts_list = [tuple(p) for p in pts]
    collinear = True
    p0, p1 = pts_list[0], pts_list[-1]
    for p in pts_list:
        if _cross(p0, p1, p) != 0:
            collinear = False
            break
    if collinear:
        return Geometry.linestring([list(p0), list(p1)])
    lower = []
    for p in pts_list:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts_list):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    ring = np.asarray(hull + [hull[0]], dtype=np.float64)
    # CCW ring (cross>0 turns kept); reference emits CCW shells for hulls
    return Geometry(POLYGON, 0, rings=[ring])


# --------------------------------------------------------------------------- #
# simplify (Ramer–Douglas–Peucker, reference geom/alg_simplify.go)
# --------------------------------------------------------------------------- #


def _rdp(coords: np.ndarray, threshold: float) -> np.ndarray:
    n = len(coords)
    if n <= 2:
        return coords
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    xy = coords[:, :2]
    while stack:
        i, j = stack.pop()
        if j <= i + 1:
            continue
        a = xy[i]
        b = xy[j]
        ab = b - a
        seg = xy[i + 1 : j] - a
        denom = float(ab[0] * ab[0] + ab[1] * ab[1])
        if denom == 0.0:
            d = np.hypot(seg[:, 0], seg[:, 1])
        else:
            t = np.clip((seg @ ab) / denom, 0.0, 1.0)
            proj = np.outer(t, ab)
            diff = seg - proj
            d = np.hypot(diff[:, 0], diff[:, 1])
        k = int(np.argmax(d))
        if d[k] > threshold:
            idx = i + 1 + k
            keep[idx] = True
            stack.append((i, idx))
            stack.append((idx, j))
    return coords[keep]


def simplify(g: Geometry, threshold: float) -> Geometry:
    """RDP simplification (reference type_geometry.go:858, alg_simplify.go).
    Rings that collapse below 4 points vanish; a polygon losing its shell
    becomes empty (reference type_polygon.go:681-714 re-validates)."""
    t = g.tag
    if t == LINESTRING:
        out = _rdp(g.coords, threshold)
        if len(out) < 2 or bool(np.array_equal(out[0], out[-1])) and len(out) < 3:
            return Geometry(LINESTRING, g.ctype, coords=np.zeros((0, g.dim)))
        return Geometry(LINESTRING, g.ctype, coords=out)
    if t == POLYGON:
        rings = []
        for i, r in enumerate(g.rings):
            out = _rdp(r, threshold)
            if len(out) >= 4:
                rings.append(out)
            elif i == 0:
                return Geometry(POLYGON, g.ctype, rings=[])
        return Geometry(POLYGON, g.ctype, rings=rings)
    if t in (MULTIPOINT, POINT):
        return g
    geoms = [simplify(sub, threshold) for sub in g.geoms]
    geoms = [s for s in geoms if not s.is_empty()]
    return Geometry(t, g.ctype, geoms=geoms)


# --------------------------------------------------------------------------- #
# densify / snap-to-grid (reference alg_densify.go, snap_to_grid.go)
# --------------------------------------------------------------------------- #


def _densify_seq(coords: np.ndarray, max_dist: float) -> np.ndarray:
    if len(coords) < 2:
        return coords
    out = [coords[:1]]
    for i in range(len(coords) - 1):
        a = coords[i]
        b = coords[i + 1]
        d = math.hypot(b[0] - a[0], b[1] - a[1])
        k = max(1, math.ceil(d / max_dist))
        if k > 1:
            # robust lerp (reference alg_linear_interpolation.go:63-75):
            # a*(1-t) + b*t, exact at the endpoints
            ts = np.arange(1, k) / k
            mids = a[None, :] * (1 - ts[:, None]) + b[None, :] * ts[:, None]
            out.append(mids)
        out.append(b[None, :])
    return np.concatenate(out, axis=0)


def densify(g: Geometry, max_dist: float) -> Geometry:
    if max_dist <= 0:
        raise GeometryError("densify max distance must be positive")
    t = g.tag
    if t == LINESTRING:
        return Geometry(LINESTRING, g.ctype, coords=_densify_seq(g.coords, max_dist))
    if t == POLYGON:
        return Geometry(POLYGON, g.ctype, rings=[_densify_seq(r, max_dist) for r in g.rings])
    if t in (POINT, MULTIPOINT):
        return g
    return Geometry(t, g.ctype, geoms=[densify(sub, max_dist) for sub in g.geoms])


def snap_to_grid(g: Geometry, decimal_places: int) -> Geometry:
    """Round every ordinate to the given decimal places
    (reference geom/snap_to_grid.go:33-52)."""
    factor = 10.0 ** decimal_places
    return g.map_coords(lambda a: np.round(a * factor) / factor)


# --------------------------------------------------------------------------- #
# linear referencing (reference type_line_string.go:439-483)
# --------------------------------------------------------------------------- #


def interpolate_point(line: Geometry, frac: float) -> Geometry:
    """Point at `frac` (clamped to [0,1]) of the line's length."""
    if line.tag != LINESTRING:
        raise GeometryError("interpolate_point requires a LineString")
    c = line.coords
    if len(c) == 0:
        return Geometry.empty_point(line.ctype)
    frac = min(max(frac, 0.0), 1.0)
    xy = c[:, :2]
    d = np.diff(xy, axis=0)
    seglen = np.hypot(d[:, 0], d[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    target = frac * cum[-1]
    if cum[-1] == 0.0:
        return Geometry(POINT, line.ctype, coords=c[0].copy())
    i = int(np.searchsorted(cum, target, side="right")) - 1
    i = min(i, len(seglen) - 1)
    rem = target - cum[i]
    t = rem / seglen[i] if seglen[i] > 0 else 0.0
    pt = c[i] * (1 - t) + c[i + 1] * t
    return Geometry(POINT, line.ctype, coords=pt)


def interpolate_evenly_spaced_points(line: Geometry, n: int) -> Geometry:
    if n <= 0:
        return Geometry(MULTIPOINT, line.ctype, geoms=[])
    if n == 1:
        return Geometry(MULTIPOINT, line.ctype, geoms=[interpolate_point(line, 0.5)])
    pts = [interpolate_point(line, i / (n - 1)) for i in range(n)]
    return Geometry(MULTIPOINT, line.ctype, geoms=pts)


# --------------------------------------------------------------------------- #
# dumps (reference type_geometry.go:778-839)
# --------------------------------------------------------------------------- #


def dump(g: Geometry):
    """Explode multi-part geometries into atomic parts."""
    return list(g.flatten())


# --------------------------------------------------------------------------- #
# rotating calipers (reference geom/alg_rotating_calipers.go)
# --------------------------------------------------------------------------- #


def _calipers_best(g: Geometry, objective):
    """Rotating calipers over hull edges; objective(w, h) -> score to
    minimize. Returns the winning rectangle Geometry or the degenerate
    hull (point/line)."""
    hull = convex_hull(g)
    if hull.tag != POLYGON:
        return hull
    ring = hull.rings[0][:-1]
    best = None
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        e = b - a
        ln = math.hypot(e[0], e[1])
        if ln == 0:
            continue
        u = e / ln
        v = np.array([-u[1], u[0]])
        pu = ring @ u
        pv = ring @ v
        w = pu.max() - pu.min()
        h = pv.max() - pv.min()
        score = objective(w, h)
        if best is None or score < best[0]:
            best = (score, u, v, pu.min(), pu.max(), pv.min(), pv.max())
    if best is None:
        return hull
    _, u, v, umin, umax, vmin, vmax = best
    corners = [
        u * umin + v * vmin,
        u * umax + v * vmin,
        u * umax + v * vmax,
        u * umin + v * vmax,
        u * umin + v * vmin,
    ]
    return Geometry(POLYGON, 0, rings=[np.asarray(corners)])


def rotated_minimum_area_bounding_rectangle(g: Geometry) -> Geometry:
    return _calipers_best(g, lambda w, h: w * h)


def rotated_minimum_width_bounding_rectangle(g: Geometry) -> Geometry:
    """Minimize the rectangle's shorter side (reference
    alg_rotating_calipers.go RotatedMinimumWidthBoundingRectangle)."""
    return _calipers_best(g, lambda w, h: min(w, h))


# --------------------------------------------------------------------------- #
# point on surface (reference geom/alg_point_on_surface.go:39-152 —
# horizontal-bisector scan guaranteeing an interior point)
# --------------------------------------------------------------------------- #


def _polygon_interior_point(rings):
    """A point strictly inside the polygon (shell first ring)."""
    from .predicates import INTERIOR, point_in_polygon

    shell = rings[0]
    ys = np.unique(np.concatenate([r[:, 1] for r in rings]))
    # candidate scan lines: midpoints between consecutive distinct vertex
    # y-values (never passes exactly through a vertex)
    y_mids = (ys[:-1] + ys[1:]) / 2.0
    # try the middle scan line first, then outward
    order = np.argsort(np.abs(y_mids - (ys[0] + ys[-1]) / 2.0))
    for yi in order:
        y = y_mids[yi]
        xs = []
        for ring in rings:
            x1 = ring[:-1, 0]
            y1 = ring[:-1, 1]
            x2 = ring[1:, 0]
            y2 = ring[1:, 1]
            m = (y1 > y) != (y2 > y)
            if m.any():
                t = (y - y1[m]) / (y2[m] - y1[m])
                xs.append(x1[m] + t * (x2[m] - x1[m]))
        if not xs:
            continue
        xs = np.sort(np.concatenate(xs))
        # interior intervals are between even-odd crossing pairs
        for i in range(0, len(xs) - 1, 2):
            x = (xs[i] + xs[i + 1]) / 2.0
            if point_in_polygon(x, y, rings) == INTERIOR:
                return (float(x), float(y))
    # degenerate polygon: fall back to first vertex
    return (float(shell[0, 0]), float(shell[0, 1]))


def point_on_surface(g: Geometry):
    """(x, y) guaranteed on the geometry; interior for areal inputs."""
    t = g.tag
    if t == POLYGON:
        if not g.rings:
            return None
        return _polygon_interior_point(g.rings)
    if t == MULTIPOLYGON:
        best = None
        for p in g.geoms:
            if p.rings:
                return _polygon_interior_point(p.rings)
        return best
    if t == POINT:
        return None if g.coords is None else (float(g.coords[0]), float(g.coords[1]))
    if t == LINESTRING:
        if len(g.coords) == 0:
            return None
        mid = g.coords[len(g.coords) // 2]
        return (float(mid[0]), float(mid[1]))
    for sub in g.geoms:
        r = point_on_surface(sub)
        if r is not None:
            return r
    return None


# --------------------------------------------------------------------------- #
# summary (reference type_geometry.go:840-856 — human-readable description)
# --------------------------------------------------------------------------- #


def summary(g: Geometry) -> str:
    """e.g. 'Polygon[XY] with 2 ring(s) consisting of 10 total coordinate(s)'."""
    from .core import CTYPE_SUFFIX

    suffix = CTYPE_SUFFIX[g.ctype].strip() or "XY"
    name = f"{g.type_name}[{suffix}]"
    t = g.tag
    n_coords = sum(len(a) for a in g.coord_arrays())
    if t == POINT:
        return f"{name} {'with 1 point' if g.coords is not None else 'EMPTY'}"
    if t == LINESTRING:
        return f"{name} with {n_coords} point(s)"
    if t == POLYGON:
        return f"{name} with {len(g.rings)} ring(s) consisting of {n_coords} total coordinate(s)"
    kind = {MULTIPOINT: "point", MULTILINESTRING: "linestring",
            MULTIPOLYGON: "polygon", GEOMETRYCOLLECTION: "child geometr"}.get(t, "part")
    plural = "ies" if kind == "child geometr" else "(s)"
    return (f"{name} with {len(g.geoms)} {kind}{plural} consisting of "
            f"{n_coords} total coordinate(s)")


# --------------------------------------------------------------------------- #
# coordinate-shape coercions (reference type_geometry.go:634-656, 954)
# --------------------------------------------------------------------------- #


def flip_coordinates(g: Geometry) -> Geometry:
    """Swap X and Y ordinates (reference FlipCoordinates)."""

    def fn(a):
        out = a.copy()
        out[:, 0] = a[:, 1]
        out[:, 1] = a[:, 0]
        return out

    return g.map_coords(fn)


def force_coordinates_type(g: Geometry, ctype: int) -> Geometry:
    """Coerce to the given CoordinatesType: present ordinates are kept,
    missing Z/M are zero-filled, extra ones dropped (reference
    ForceCoordinatesType semantics)."""
    from .core import ctype_dimension

    src_ct = g.ctype
    dst_dim = ctype_dimension(ctype)
    has_z_src = bool(src_ct & 0b01)
    has_m_src = bool(src_ct & 0b10)
    has_z_dst = bool(ctype & 0b01)
    has_m_dst = bool(ctype & 0b10)

    def fn(a):
        n = len(a)
        out = np.zeros((n, dst_dim))
        out[:, 0] = a[:, 0]
        out[:, 1] = a[:, 1]
        col = 2
        if has_z_dst:
            if has_z_src:
                out[:, col] = a[:, 2]
            col += 1
        if has_m_dst:
            if has_m_src:
                out[:, col] = a[:, 2 + (1 if has_z_src else 0)]
        return out

    res = g.map_coords(fn)

    def fix(geom):
        geom.ctype = ctype
        for sub in geom.geoms:
            fix(sub)
        return geom

    return fix(res)


# --------------------------------------------------------------------------- #
# concave hull — k-nearest-neighbours (Moreira & Santos 2007, public
# literature; fills the reference's GEOS-only ConcaveHull slot,
# geos/entrypoints.go:331, with a different published algorithm)
# --------------------------------------------------------------------------- #


def concave_hull(g: Geometry, k: int = 3) -> Geometry:
    """Concave hull of the geometry's points. k controls tightness
    (3 = tightest); falls back to the convex hull when the walk cannot
    close. Deterministic."""
    from .predicates import points_in_polygon, segments_intersect

    pts = np.unique(g.all_xy(), axis=0)
    n = len(pts)
    if n < 3:
        return convex_hull(g)
    k = max(3, min(k, n - 1))

    while k < n:
        hull = _knn_hull_walk(pts, k)
        if hull is not None:
            ring = np.asarray(hull + [hull[0]], dtype=np.float64)
            inside = points_in_polygon(pts[:, 0], pts[:, 1], [ring])
            if (inside >= 0).all():
                if ring_signed_area(ring) < 0:
                    ring = ring[::-1].copy()
                return Geometry(POLYGON, 0, rings=[ring])
        k += 1
    return convex_hull(g)


def _knn_hull_walk(pts: np.ndarray, k: int):
    from .predicates import segments_intersect

    n = len(pts)
    start_idx = int(np.lexsort((pts[:, 0], pts[:, 1]))[0])  # lowest y, then x
    visited = np.zeros(n, dtype=bool)
    cur = start_idx
    visited[cur] = True
    hull = [tuple(pts[cur])]
    heading = 0.0  # incoming direction of travel; +x at the lowest point
    for _ in range(n * 2):
        cx, cy = pts[cur]
        cand = np.flatnonzero(~visited)
        if len(hull) > 3:
            cand = np.append(cand, start_idx)  # allow closing
        if len(cand) == 0:
            return None
        d = np.hypot(pts[cand, 0] - cx, pts[cand, 1] - cy)
        nearest = cand[np.argsort(d, kind="stable")[: k]]
        # walk with the interior on the LEFT: pick the candidate with the
        # MOST CLOCKWISE (minimum CCW) turn from the incoming heading
        angles = np.arctan2(pts[nearest, 1] - cy, pts[nearest, 0] - cx)
        turns = (angles - heading + np.pi) % (2 * np.pi) - np.pi  # (-pi, pi]
        order = nearest[np.argsort(turns, kind="stable")]
        chosen = None
        for idx in order:
            px, py = pts[idx]
            # candidate edge must not cross existing hull edges
            ok = True
            for i in range(len(hull) - 2):  # skip adjacent edge
                if segments_intersect((cx, cy), (px, py), hull[i], hull[i + 1]):
                    if (px, py) != hull[i] and (px, py) != hull[i + 1]:
                        ok = False
                        break
            if ok:
                chosen = int(idx)
                break
        if chosen is None:
            return None
        if chosen == start_idx:
            return hull
        hull.append(tuple(pts[chosen]))
        visited[chosen] = True
        heading = np.arctan2(pts[chosen, 1] - cy, pts[chosen, 0] - cx)
        cur = chosen
    return None
