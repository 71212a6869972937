"""Geometric primitives + binary predicates.

Point-in-polygon uses crossing-number ray casting, the same algorithm as
the reference (geom/alg_point_in_ring.go:19-41); Intersects mirrors the
type-pair dispatch of geom/alg_intersects.go. Point-vs-area work runs in
one flat kernel, pair_parity_on: (point, polygon) pairs are expanded over
a flat edge table (edge_table) and the crossing and on-edge tests run as
one numpy pass over the (point, edge) rows, with no per-edge or
per-polygon Python loop. The join's refinement and points_in_polygons
(every point against every part of a multipolygon in one call) share it.
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
)

# classification constants for point-vs-area
EXTERIOR = -1
BOUNDARY = 0
INTERIOR = 1


# --------------------------------------------------------------------------- #
# scalar primitives
# --------------------------------------------------------------------------- #


def orient(ox, oy, ax, ay, bx, by) -> float:
    """Sign of the cross product (o->a) x (o->b). Non-robust float math,
    matching the reference's native orientation (geom/alg_orientation.go:32-43)."""
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _on_tol(scale: float) -> float:
    """Distance tolerance for on-boundary tests: absorbs the 9-decimal
    noding snap (5e-10 abs) plus FP noise that grows ~linearly with
    coordinate magnitude, while staying far below real feature sizes
    (1e-6 at coords ~1e6) and the overlay side-probe offset (1e-7 at
    coords ~1)."""
    return 1e-9 + 1e-13 * scale


def on_segment(px, py, ax, ay, bx, by) -> bool:
    """Is p on closed segment ab (within the engine's snap tolerance)?"""
    cross = orient(ax, ay, bx, by, px, py)
    seg_len = math.hypot(bx - ax, by - ay)
    tol = _on_tol(max(abs(px), abs(py)))
    if abs(cross) > tol * max(seg_len, 1.0):
        return False
    return (
        min(ax, bx) - tol <= px <= max(ax, bx) + tol
        and min(ay, by) - tol <= py <= max(ay, by) + tol
    )


def segments_intersect(a, b, c, d) -> bool:
    """Closed segments ab and cd share at least one point."""
    d1 = orient(c[0], c[1], d[0], d[1], a[0], a[1])
    d2 = orient(c[0], c[1], d[0], d[1], b[0], b[1])
    d3 = orient(a[0], a[1], b[0], b[1], c[0], c[1])
    d4 = orient(a[0], a[1], b[0], b[1], d[0], d[1])
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and on_segment(a[0], a[1], c[0], c[1], d[0], d[1]):
        return True
    if d2 == 0 and on_segment(b[0], b[1], c[0], c[1], d[0], d[1]):
        return True
    if d3 == 0 and on_segment(c[0], c[1], a[0], a[1], b[0], b[1]):
        return True
    if d4 == 0 and on_segment(d[0], d[1], a[0], a[1], b[0], b[1]):
        return True
    return False


def segment_intersection(a, b, c, d):
    """Intersection of closed segments ab, cd.

    Returns (kind, data):
      ('none', None) | ('point', (x, y)) | ('overlap', ((x1,y1),(x2,y2)))
    Proper crossings computed by parametric solve (reference line.go:95-148).
    """
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    cx, cy = float(c[0]), float(c[1])
    dx_, dy_ = float(d[0]), float(d[1])
    r = (bx - ax, by - ay)
    s = (dx_ - cx, dy_ - cy)
    denom = r[0] * s[1] - r[1] * s[0]
    qp = (cx - ax, cy - ay)
    qpxr = qp[0] * r[1] - qp[1] * r[0]
    if denom == 0.0:
        if qpxr != 0.0:
            return ("none", None)
        # collinear: project onto dominant axis of r (or s if ab degenerate)
        rr = r[0] * r[0] + r[1] * r[1]
        if rr == 0.0:
            if on_segment(ax, ay, cx, cy, dx_, dy_):
                return ("point", (ax, ay))
            return ("none", None)
        t0 = (qp[0] * r[0] + qp[1] * r[1]) / rr
        t1 = t0 + (s[0] * r[0] + s[1] * r[1]) / rr
        lo, hi = min(t0, t1), max(t0, t1)
        lo = max(lo, 0.0)
        hi = min(hi, 1.0)
        if lo > hi:
            return ("none", None)
        p1 = (ax + lo * r[0], ay + lo * r[1])
        p2 = (ax + hi * r[0], ay + hi * r[1])
        if p1 == p2:
            return ("point", p1)
        return ("overlap", (p1, p2))
    # p = a + t r = c + u s:  t = (qp x s)/denom, u = (qp x r)/denom
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = qpxr / denom
    if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
        return ("point", (ax + t * r[0], ay + t * r[1]))
    return ("none", None)


# --------------------------------------------------------------------------- #
# flat crossing-number / on-edge kernel over (point, polygon) pairs
# --------------------------------------------------------------------------- #

# (point, edge) rows per vector pass; bounds the kernel's temporaries
PAIR_CHUNK = 1 << 18


def edge_table(xy, ring_len, poly_rings):
    """(V, 2) ring vertices, vertices per ring, rings per polygon -> (x1, y1,
    x2, y2, ring_edge_off, poly_ring_off): ring r's n >= 2 vertices give the
    n - 1 edges ring_edge_off[r]:ring_edge_off[r + 1]; polygon j's rings
    are poly_ring_off[j]:poly_ring_off[j + 1]."""
    poly_ring_off = np.zeros(len(poly_rings) + 1, dtype=np.int64)
    np.cumsum(np.asarray(poly_rings, dtype=np.int64), out=poly_ring_off[1:])
    ring_edge_off = np.zeros(len(ring_len) + 1, dtype=np.int64)
    np.cumsum(np.maximum(ring_len - 1, 0), out=ring_edge_off[1:])
    starts = np.ones(len(xy), dtype=bool)
    starts[np.cumsum(ring_len)[ring_len > 0] - 1] = False
    e = np.flatnonzero(starts)
    return xy[e, 0], xy[e, 1], xy[e + 1, 0], xy[e + 1, 1], ring_edge_off, poly_ring_off


def flat_edges(ring_sets):
    """Per-polygon ring lists (shell first) -> edge_table."""
    rings = [r for rs in ring_sets for r in rs]
    lens = np.fromiter((len(r) for r in rings), dtype=np.int64, count=len(rings))
    xy = np.concatenate([r[:, :2] for r in rings] + [np.zeros((0, 2))])
    return edge_table(xy, lens, [len(rs) for rs in ring_sets])


def pair_parity_on(px, py, pair_pt, pair_poly, edges, poly_edge_off):
    """Crossing parity and on-boundary flag per (point, polygon) pair.

    edges = (x1, y1, x2, y2) flat edge arrays; polygon j owns edges
    poly_edge_off[j]:poly_edge_off[j + 1] (all its rings). Each pair is
    expanded over its polygon's edges, both tests run in one vector pass
    per chunk of <= PAIR_CHUNK (point, edge) rows, and the rows reduce
    per pair: XOR of crossings (even-odd over all rings == shell minus
    holes) and OR of on-edge hits. Returns (parity bool[], on bool[]).
    Pairs whose polygon has no edges stay (False, False).
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    n = len(pair_pt)
    parity = np.zeros(n, dtype=bool)
    on = np.zeros(n, dtype=bool)
    start = poly_edge_off[pair_poly]
    count = poly_edge_off[pair_poly + 1] - start
    # an empty segment must not reach reduceat (it yields a[start] there)
    live = np.flatnonzero(count > 0)
    ends = np.cumsum(count[live])
    lo = 0
    while lo < len(live):
        done = ends[lo] - count[live[lo]]
        hi = max(int(np.searchsorted(ends, done + PAIR_CHUNK, side="right")), lo + 1)
        sel = live[lo:hi]
        pts = pair_pt[sel]
        parity[sel], on[sel] = _edge_pass(px[pts], py[pts], start[sel], count[sel], edges)
        lo = hi
    return parity, on


def _edge_pass(qx, qy, start, count, edges):
    """One vector pass over the (point, edge) rows of pairs with >= 1 edge.

    Per row the arithmetic is the scalar crossing-number test
    (geom/alg_point_in_ring.go:19-53, half-infinite ray to -x; horizontal
    edges never cross) and on_segment's box + cross-product test with its
    math.hypot edge length.
    """
    x1, y1, x2, y2 = edges
    seg = np.cumsum(count) - count  # first row of each pair
    rep = np.repeat(np.arange(len(count)), count)
    e = np.repeat(start - seg, count) + np.arange(int(seg[-1] + count[-1]))
    x, y = qx[rep], qy[rep]
    ex1, ey1, ex2, ey2 = x1[e], y1[e], x2[e], y2[e]
    dx = ex2 - ex1
    dy = ey2 - ey1
    with np.errstate(divide="ignore", invalid="ignore"):  # horizontal edges
        t = (y - ey1) / dy
        crosses = ((ey1 > y) != (ey2 > y)) & (x < ex1 + t * dx)
    tol = _on_tol(np.maximum(np.abs(qx), np.abs(qy)))[rep]
    box = ((x >= np.minimum(ex1, ex2) - tol) & (x <= np.maximum(ex1, ex2) + tol)
           & (y >= np.minimum(ey1, ey2) - tol) & (y <= np.maximum(ey1, ey2) + tol))
    ac = np.abs(dx * (y - ey1) - dy * (x - ex1))
    # np.hypot may differ from math.hypot by 1 ulp: decide with a
    # relative 1e-12 margin both ways, recheck the rows in between
    h = np.hypot(dx, dy)
    near = box & (ac <= tol * np.maximum(h * (1 + 1e-12), 1.0))
    on_edge = near & (ac <= tol * np.maximum(h * (1 - 1e-12), 1.0))
    amb = np.flatnonzero(near & ~on_edge)
    if len(amb):
        seg_len = [max(math.hypot(a, b), 1.0) for a, b in zip(dx[amb].tolist(), dy[amb].tolist())]
        on_edge[amb] = ac[amb] <= tol[amb] * np.asarray(seg_len)
    return np.logical_xor.reduceat(crosses, seg), np.logical_or.reduceat(on_edge, seg)


def _parity_on(px, py, ring_sets):
    """(parity, on), each shaped (len(ring_sets), len(px)), of every
    point against every ring list: one pair_parity_on call per run of
    <= PAIR_CHUNK (point, polygon) pairs over one flat edge table."""
    x1, y1, x2, y2, ring_edge_off, poly_ring_off = flat_edges(ring_sets)
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    k, n = len(ring_sets), len(px)
    parity = np.zeros((k, n), dtype=bool)
    on = np.zeros((k, n), dtype=bool)
    step = max(PAIR_CHUNK // max(k, 1), 1)
    for lo in range(0, n, step):
        m = min(step, n - lo)
        pair_pt = np.tile(np.arange(lo, lo + m), k)
        pair_poly = np.repeat(np.arange(k), m)
        p, o = pair_parity_on(px, py, pair_pt, pair_poly, (x1, y1, x2, y2),
                              ring_edge_off[poly_ring_off])
        parity[:, lo:lo + m] = p.reshape(k, m)
        on[:, lo:lo + m] = o.reshape(k, m)
    return parity, on


def points_on_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Boolean array: point lies on the ring's (or line's) edges, within
    the snap tolerance of on_segment."""
    return _parity_on(px, py, [[ring]])[1][0]


def points_in_polygons(px: np.ndarray, py: np.ndarray, ring_sets) -> np.ndarray:
    """Classify many points against many polygons (ring lists, shell
    first) in one flat pass. Returns int8 (len(ring_sets), len(px)) of
    EXTERIOR(-1) / BOUNDARY(0) / INTERIOR(1).
    Even-odd over all rings == shell minus holes for valid polygons.
    """
    parity, on = _parity_on(px, py, ring_sets)
    out = np.where(parity, INTERIOR, EXTERIOR).astype(np.int8)
    out[on] = BOUNDARY
    return out


def points_in_polygon(px: np.ndarray, py: np.ndarray, rings) -> np.ndarray:
    """Classify many points against one polygon (list of rings, shell first).

    Returns int8 array of EXTERIOR(-1) / BOUNDARY(0) / INTERIOR(1).
    """
    return points_in_polygons(px, py, [rings])[0]


def point_in_polygon(x: float, y: float, rings) -> int:
    return int(points_in_polygon(np.array([x]), np.array([y]), rings)[0])


def locate_point(x: float, y: float, g: Geometry) -> int:
    """Classify a point against any geometry's point set:
    INTERIOR / BOUNDARY / EXTERIOR of g (used by relate and intersects)."""
    t = g.tag
    if t == POINT:
        if g.coords is None:
            return EXTERIOR
        return INTERIOR if (g.coords[0] == x and g.coords[1] == y) else EXTERIOR
    if t == MULTIPOINT:
        for p in g.geoms:
            if p.coords is not None and p.coords[0] == x and p.coords[1] == y:
                return INTERIOR
        return EXTERIOR
    if t == LINESTRING:
        return _locate_point_lines(x, y, [g.coords])
    if t == MULTILINESTRING:
        return _locate_point_lines(x, y, [l.coords for l in g.geoms])
    if t == POLYGON:
        return point_in_polygon(x, y, g.rings)
    if t == MULTIPOLYGON:
        best = EXTERIOR
        for p in g.geoms:
            loc = point_in_polygon(x, y, p.rings)
            if loc == INTERIOR:
                return INTERIOR
            if loc == BOUNDARY:
                best = BOUNDARY
        return best
    # GC: interior wins, then boundary (mod-2 does not apply across mixed dims;
    # approximation: any part interior -> interior)
    best = EXTERIOR
    for sub in g.geoms:
        loc = locate_point(x, y, sub)
        if loc == INTERIOR:
            return INTERIOR
        if loc == BOUNDARY:
            best = BOUNDARY
    return best


def _linework_boundary_points(lines) -> set:
    """Mod-2 rule: endpoints appearing an odd number of times are boundary
    (OGC boundary of (Multi)LineString; reference type_line_string.go:222)."""
    from collections import Counter

    cnt = Counter()
    for c in lines:
        if len(c) == 0:
            continue
        if np.array_equal(c[0], c[-1]):
            continue  # closed: no boundary
        cnt[(float(c[0][0]), float(c[0][1]))] += 1
        cnt[(float(c[-1][0]), float(c[-1][1]))] += 1
    return {p for p, n in cnt.items() if n % 2 == 1}


def _locate_point_lines(x, y, lines) -> int:
    bnd = _linework_boundary_points(lines)
    if (x, y) in bnd:
        return BOUNDARY
    for c in lines:
        for i in range(len(c) - 1):
            if on_segment(x, y, c[i][0], c[i][1], c[i + 1][0], c[i + 1][1]):
                return INTERIOR
    return EXTERIOR


# --------------------------------------------------------------------------- #
# decomposition helpers
# --------------------------------------------------------------------------- #


def _segments_of(g: Geometry) -> np.ndarray:
    """All XY segments as an (n, 4) array [x1 y1 x2 y2]."""
    segs = []
    t = g.tag
    if t == LINESTRING:
        arrs = [g.coords]
    elif t == POLYGON:
        arrs = g.rings
    elif t in (MULTILINESTRING,):
        arrs = [l.coords for l in g.geoms]
    elif t == MULTIPOLYGON:
        arrs = [r for p in g.geoms for r in p.rings]
    elif t == GEOMETRYCOLLECTION:
        parts = [_segments_of(sub) for sub in g.geoms]
        parts = [p for p in parts if len(p)]
        return np.concatenate(parts, axis=0) if parts else np.zeros((0, 4))
    else:
        arrs = []
    for c in arrs:
        if len(c) >= 2:
            segs.append(np.concatenate([c[:-1, :2], c[1:, :2]], axis=1))
    return np.concatenate(segs, axis=0) if segs else np.zeros((0, 4))


def _points_of(g: Geometry) -> np.ndarray:
    """Point-geometry XYs only ((Multi)Point / points inside GC)."""
    pts = []
    for leaf in g.flatten():
        if leaf.tag == POINT and leaf.coords is not None:
            pts.append(leaf.coords[:2])
    return np.asarray(pts) if pts else np.zeros((0, 2))


def _candidate_pairs(segs_a: np.ndarray, segs_b: np.ndarray):
    """Bbox-filtered candidate index pairs between two segment sets,
    vectorized (replaces the reference's R-tree walk for moderate n)."""
    if len(segs_a) == 0 or len(segs_b) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    aminx = np.minimum(segs_a[:, 0], segs_a[:, 2])
    amaxx = np.maximum(segs_a[:, 0], segs_a[:, 2])
    aminy = np.minimum(segs_a[:, 1], segs_a[:, 3])
    amaxy = np.maximum(segs_a[:, 1], segs_a[:, 3])
    bminx = np.minimum(segs_b[:, 0], segs_b[:, 2])
    bmaxx = np.maximum(segs_b[:, 0], segs_b[:, 2])
    bminy = np.minimum(segs_b[:, 1], segs_b[:, 3])
    bmaxy = np.maximum(segs_b[:, 1], segs_b[:, 3])
    if len(segs_a) * len(segs_b) <= 4_000_000:
        hit = (
            (aminx[:, None] <= bmaxx[None, :])
            & (amaxx[:, None] >= bminx[None, :])
            & (aminy[:, None] <= bmaxy[None, :])
            & (amaxy[:, None] >= bminy[None, :])
        )
        ia, ib = np.nonzero(hit)
        return np.stack([ia, ib], axis=1)
    from ..rtree import STRtree

    tree = STRtree(np.stack([bminx, bminy, bmaxx, bmaxy], axis=1))
    pairs = []
    for i in range(len(segs_a)):
        for j in tree.query_box(aminx[i], aminy[i], amaxx[i], amaxy[i]):
            pairs.append((i, j))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _any_segment_intersection(segs_a, segs_b) -> bool:
    for i, j in _candidate_pairs(segs_a, segs_b):
        sa = segs_a[i]
        sb = segs_b[j]
        if segments_intersect(sa[:2], sa[2:], sb[:2], sb[2:]):
            return True
    return False


# --------------------------------------------------------------------------- #
# intersects / distance
# --------------------------------------------------------------------------- #


def _env_disjoint(a: Geometry, b: Geometry) -> bool:
    from .algorithms import envelope

    ea = envelope(a)
    eb = envelope(b)
    if ea is None or eb is None:
        return True
    return ea[2] < eb[0] or eb[2] < ea[0] or ea[3] < eb[1] or eb[3] < ea[1]


def intersects(a: Geometry, b: Geometry) -> bool:
    """Do the two geometries share any point?
    (reference geom/alg_intersects.go dispatch)"""
    if a.is_empty() or b.is_empty():
        return False
    if _env_disjoint(a, b):
        return False
    # any point-typed part of A in B / of B in A
    for pt in _points_of(a):
        if locate_point(pt[0], pt[1], b) != EXTERIOR:
            return True
    for pt in _points_of(b):
        if locate_point(pt[0], pt[1], a) != EXTERIOR:
            return True
    segs_a = _segments_of(a)
    segs_b = _segments_of(b)
    if len(segs_a) == 0 and len(segs_b) == 0:
        return False  # both purely points; already checked above
    if len(segs_a) and len(segs_b) and _any_segment_intersection(segs_a, segs_b):
        return True
    # containment without boundary contact: test one vertex each way
    if len(segs_a) and _has_area(b):
        v = segs_a[0, :2]
        if locate_point(v[0], v[1], b) != EXTERIOR:
            return True
    if len(segs_b) and _has_area(a):
        v = segs_b[0, :2]
        if locate_point(v[0], v[1], a) != EXTERIOR:
            return True
    return False


def _has_area(g: Geometry) -> bool:
    return any(leaf.tag == POLYGON and not leaf.is_empty() for leaf in g.flatten())


def _point_segment_dist_many(pts: np.ndarray, segs: np.ndarray) -> float:
    """Min distance between point set (n,2) and segment set (m,4)."""
    if len(pts) == 0 or len(segs) == 0:
        return math.inf
    a = segs[:, :2]
    d = segs[:, 2:] - a
    dd = (d * d).sum(axis=1)
    dd[dd == 0] = 1.0
    best = math.inf
    for chunk in np.array_split(pts, max(1, len(pts) * len(segs) // 4_000_000 + 1)):
        ap = chunk[:, None, :] - a[None, :, :]
        t = np.clip((ap * d[None, :, :]).sum(axis=2) / dd[None, :], 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
        diff = chunk[:, None, :] - proj
        dist = np.hypot(diff[:, :, 0], diff[:, :, 1])
        best = min(best, float(dist.min()))
    return best


def distance(a: Geometry, b: Geometry) -> float | None:
    """Euclidean distance between closest points (reference alg_distance.go:13).
    Returns None when either is empty (reference returns ok=false)."""
    if a.is_empty() or b.is_empty():
        return None
    if intersects(a, b):
        return 0.0
    pa = np.concatenate([_points_of(a), a.all_xy()], axis=0)
    pb = np.concatenate([_points_of(b), b.all_xy()], axis=0)
    segs_a = _segments_of(a)
    segs_b = _segments_of(b)
    best = math.inf
    if len(pa) and len(pb):
        # chunked all-pairs point distance
        for chunk in np.array_split(pa, max(1, len(pa) * len(pb) // 4_000_000 + 1)):
            diff = chunk[:, None, :] - pb[None, :, :]
            best = min(best, float(np.hypot(diff[:, :, 0], diff[:, :, 1]).min()))
    best = min(best, _point_segment_dist_many(pa, segs_b))
    best = min(best, _point_segment_dist_many(pb, segs_a))
    return best
