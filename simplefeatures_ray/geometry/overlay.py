"""Set operations: Union / Intersection / Difference / SymmetricDifference.

From-scratch planar-arrangement overlay (the reference delegates to its
JTS-port OverlayNG, /root/reference/geom/alg_overlay.go:223-239; we use
a different, sampling-based design):

  1. node all linework of both inputs at mutual intersections;
  2. classify each noded edge's two SIDES by sampling a point offset
     epsilon into each side and locating it against the ORIGINAL inputs
     (crossing-number PIP) — an edge belongs to the result boundary iff
     exactly one side is selected by the op;
  3. trace result rings from the selected-region-on-left directed edges
     with the clockwise-next rule; positive rings are shells, negative
     rings are holes, holes attach to the smallest containing shell;
  4. lower-dimensional pieces (shared edges / isolated touch points of an
     intersection) are collected from edges/vertices in both closures
     that bound no selected region.

Robustness model: vertices snap to 9 decimal places; side sampling uses
a relative epsilon (~1e-7). Inputs with features BELOW that scale
(hairline tongues, sub-epsilon slivers) defeat the sampled probes, so a
layered net keeps the result correct instead of returning a wrong
region set:
  * inputs whose distinct vertices collide at the 1e-6 grid are
    preconditioned upfront (snap + make_valid);
  * edges the probes cannot decide even at escalated scales classify
    EXACTLY via rational arithmetic (_exact_side_inside) — full
    precision is preserved, no input degradation;
  * exact per-op area bounds (union within [max, sum] etc.) backstop
    the result, and invalid traced outputs are repaired by
    _repair_result: make_valid, then an ESCALATING RESULT-side snap
    (1e-8 -> 1e-6) for crossing shared-edge artifacts, then a needle
    collapse (width < 1e-6) as last resort.
Residual floor: adversarial sub-epsilon inputs cost at most a 1e-8
output snap / 1e-6 feature-width floor — the nested mixed-precision
fuzz class that previously emitted invalid rings now reports zero
(tests/test_overlay.py TestNestedMixedPrecision).
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
from .predicates import (
    EXTERIOR,
    INTERIOR,
    _candidate_pairs,
    locate_point,
    segment_intersection,
)

SNAP = 9


def _key(x, y):
    return (round(x, SNAP) + 0.0, round(y, SNAP) + 0.0)


def _seg_param(p, seg):
    ax, ay, bx, by = seg
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    if denom == 0:
        return 0.0
    return ((p[0] - ax) * dx + (p[1] - ay) * dy) / denom


def _collect_segments(geoms):
    """All linework segments of the given geometries as one (n,4) array."""
    arrs = []
    for g in geoms:
        for leaf in g.flatten():
            if leaf.tag == LINESTRING and len(leaf.coords) >= 2:
                c = leaf.coords[:, :2]
                arrs.append(np.concatenate([c[:-1], c[1:]], axis=1))
            elif leaf.tag == POLYGON:
                for r in leaf.rings:
                    r2 = r[:, :2]
                    arrs.append(np.concatenate([r2[:-1], r2[1:]], axis=1))
    return np.concatenate(arrs, axis=0) if arrs else np.zeros((0, 4))


def _node_all(segs: np.ndarray, points=()):
    """Node a segment soup at all mutual intersections and at any of the
    given 0D points lying on a segment (otherwise a sub-segment midpoint
    can coincide with a point part and misclassify).

    Returns a set of undirected edges {(pkey, qkey)} (canonical order).
    """
    from .predicates import on_segment

    n = len(segs)
    cuts = [None] * n
    for p in points:
        for i in range(n):
            s = segs[i]
            if on_segment(p[0], p[1], s[0], s[1], s[2], s[3]):
                t = _seg_param(p, s)
                if 1e-9 < t < 1 - 1e-9:
                    if cuts[i] is None:
                        cuts[i] = set()
                    cuts[i].add(t)
    pairs = _candidate_pairs(segs, segs)
    for i, j in pairs:
        if j <= i:
            continue
        sa = segs[i]
        sb = segs[j]
        kind, data = segment_intersection(sa[:2], sa[2:], sb[:2], sb[2:])
        if kind == "none":
            continue
        points = [data] if kind == "point" else list(data)
        for p in points:
            for idx, seg in ((i, sa), (j, sb)):
                t = _seg_param(p, seg)
                if 0.0 < t < 1.0:
                    if cuts[idx] is None:
                        cuts[idx] = set()
                    cuts[idx].add(t)
    edges = set()
    for i in range(n):
        ax, ay, bx, by = segs[i]
        ts = [0.0, 1.0] if cuts[i] is None else sorted({0.0, 1.0} | cuts[i])
        prev = _key(ax, ay)
        for t in ts[1:]:
            cur = _key(ax + t * (bx - ax), ay + t * (by - ay))
            if cur != prev:
                edges.add((prev, cur) if prev <= cur else (cur, prev))
            prev = cur
    return edges


def _locate_in(g: Geometry, x: float, y: float) -> int:
    return locate_point(x, y, g)


def _inside_many(g: Geometry, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Vectorized: strictly-interior-of-areal-part test for many points.
    (Side probes sit epsilon off the arrangement edges, never exactly on a
    boundary, so interior/exterior is the only distinction needed.)"""
    from .predicates import points_in_polygon

    out = np.zeros(len(px), dtype=bool)
    for leaf in g.flatten():
        if leaf.tag == POLYGON and leaf.rings:
            out |= points_in_polygon(px, py, leaf.rings) == 1
    return out


def _closure_many(g: Geometry, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Vectorized: point in the CLOSURE of g (any part, any dimension)."""
    from .predicates import points_in_polygon, points_on_ring

    out = np.zeros(len(px), dtype=bool)
    for leaf in g.flatten():
        if leaf.tag == POLYGON and leaf.rings:
            out |= points_in_polygon(px, py, leaf.rings) >= 0
        elif leaf.tag == LINESTRING and len(leaf.coords) >= 2:
            out |= points_on_ring(px, py, leaf.coords[:, :2])
        elif leaf.tag == POINT and leaf.coords is not None:
            out |= (px == leaf.coords[0]) & (py == leaf.coords[1])
    return out


_OPS = {
    "intersection": lambda a, b: a and b,
    "union": lambda a, b: a or b,
    "difference": lambda a, b: a and not b,
    "symmetric_difference": lambda a, b: a != b,
}

# elementwise (numpy bool array) versions
_VOPS = {
    "intersection": lambda a, b: a & b,
    "union": lambda a, b: a | b,
    "difference": lambda a, b: a & ~b,
    "symmetric_difference": lambda a, b: a ^ b,
}


def _ring_area(coords) -> float:
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    s = 0.0
    for i in range(len(coords) - 1):
        s += xs[i] * ys[i + 1] - xs[i + 1] * ys[i]
    return s / 2.0


def _repair_directed(directed, tol: float):
    """Bridge near-coincident arrangement defects.

    Near-tangent crossings create slivers thinner than any probe epsilon;
    their edges get dropped, leaving dead-end vertices (in-degree !=
    out-degree). Greedily connect each arriving dead-end to the nearest
    departing dead-end within `tol` — the two vertices are two numerical
    images of the same topological point.
    """
    from collections import Counter

    outd = Counter(u for u, _v in directed)
    ind = Counter(v for _u, v in directed)
    verts = set(outd) | set(ind)
    need_out = []  # in > out: an edge arrives but nothing leaves
    need_in = []  # out > in
    for v in verts:
        d = ind[v] - outd[v]
        if d > 0:
            need_out.extend([v] * d)
        elif d < 0:
            need_in.extend([v] * (-d))
    if not need_out or not need_in:
        return directed
    added = set(directed)
    used = [False] * len(need_in)
    unmatched = []
    for y in need_out:
        best = None
        for i, x in enumerate(need_in):
            if used[i]:
                continue
            dist = math.hypot(x[0] - y[0], x[1] - y[1])
            if dist <= tol and (best is None or dist < best[0]):
                best = (dist, i)
        if best is not None:
            used[best[1]] = True
            x = need_in[best[1]]
            if x != y:
                added.add((y, x))
        else:
            unmatched.append(y)
    # second pass: hairline slivers (pinched rings from a prior snap-
    # rounded union) drop edges LONGER than the base tolerance; widen it
    # for whatever dead-ends remain rather than letting the walk collapse.
    # Bridge only when the candidate is UNIQUE within the widened radius
    # — several distant dead-ends with multiple candidates would risk
    # stitching unrelated endpoints into a wrong ring (ADVICE r2), and an
    # un-bridged dead-end just degrades to the peeling walk's handling.
    if unmatched:
        import logging

        wide = tol * 50.0
        log = logging.getLogger(__name__)
        for y in unmatched:
            cands = []
            for i, x in enumerate(need_in):
                if used[i]:
                    continue
                dist = math.hypot(x[0] - y[0], x[1] - y[1])
                if dist <= wide:
                    cands.append((dist, i))
            cands.sort()
            # ALWAYS bridge the nearest candidate: leaving a dead-end
            # unbridged collapses the whole ring walk (catastrophic area
            # loss — fuzz-verified on buffer offset-curve unions), while
            # a rare wrong bridge yields a locally-defective ring that
            # the downstream validity guard / area-bound net repairs.
            # Ambiguity (near-tied runner-up) is logged for
            # observability (ADVICE r2).
            if cands:
                d0, i = cands[0]
                used[i] = True
                x = need_in[i]
                if x != y:
                    if len(cands) > 1 and d0 > 0.5 * cands[1][0]:
                        log.debug("overlay repair: near-tied widened "
                                  "bridge %s -> %s (d0 %.3g, d1 %.3g)",
                                  y, x, d0, cands[1][0])
                    added.add((y, x))
    return added


def _trace_rings(directed):
    """Trace closed rings from selected-region-on-left directed edges.

    Walks with the clockwise-next rule and PEELS a ring whenever the walk
    revisits ANY vertex of the current path (not only the start) — robust
    to repaired/defect chains that merge several rings into one walk.
    directed: set of (u, v) vertex-key pairs. Returns list of vertex-key
    rings (closed: first == last).
    """
    out_edges: dict = {}
    for u, v in directed:
        out_edges.setdefault(u, []).append(v)
    ang = {}
    for u, targets in out_edges.items():
        targets.sort(key=lambda v: math.atan2(v[1] - u[1], v[0] - u[0]))
        ang[u] = [math.atan2(v[1] - u[1], v[0] - u[0]) for v in targets]
    unused = set(directed)
    rings = []
    for start in sorted(directed):
        if start not in unused:
            continue
        path = [start[0], start[1]]
        pos = {start[0]: 0, start[1]: 1}
        unused.discard(start)
        guard = len(directed) * 2 + 4
        while guard > 0:
            guard -= 1
            u, v = path[-2], path[-1]
            targets = out_edges.get(v, [])
            back = math.atan2(u[1] - v[1], u[0] - v[0])
            angles = ang.get(v, [])
            # clockwise-next from the reverse direction among UNUSED edges:
            # largest angle strictly below `back`, wrapping to the largest
            best_i = None
            fallback_i = None
            for i, a in enumerate(angles):
                if (v, targets[i]) not in unused:
                    continue
                if fallback_i is None or a > angles[fallback_i]:
                    fallback_i = i
                if a < back - 1e-12 and (best_i is None or a > angles[best_i]):
                    best_i = i
            if best_i is None:
                best_i = fallback_i
            if best_i is None:
                break  # dead end: drop the remaining (defect) chain
            nxt_v = targets[best_i]
            unused.discard((v, nxt_v))
            if nxt_v in pos:
                j = pos[nxt_v]
                ring = path[j:] + [nxt_v]
                if len(ring) >= 4:
                    rings.append(ring)
                for w in path[j + 1 :]:
                    pos.pop(w, None)
                path = path[: j + 1]
                if len(path) == 1:
                    break  # walk fully peeled
            else:
                path.append(nxt_v)
                pos[nxt_v] = len(path) - 1
    return rings


def _assemble_polygons(rings):
    """Rings (vertex-key lists) -> Geometry (Polygon / MultiPolygon)."""
    from .algorithms import _polygon_interior_point
    from .predicates import points_in_polygon

    shells = []
    holes = []
    for ring in rings:
        arr = np.asarray(ring, dtype=np.float64)
        a = _ring_area(ring)
        if abs(a) < 1e-15:
            continue
        if a > 0:
            shells.append((arr, a))
        else:
            holes.append((arr, -a))
    if not shells:
        return Geometry(POLYGON, 0, rings=[])
    shells.sort(key=lambda t: t[1])  # smallest first for hole assignment
    shell_holes = [[] for _ in shells]
    for hole, h_area in holes:
        hp = _polygon_interior_point([hole[::-1]])
        for i, (sh, s_area) in enumerate(shells):
            # a shell enclosing the hole must be larger than the hole
            # region (otherwise it is an island INSIDE the hole and merely
            # contains the representative point)
            if s_area <= h_area:
                continue
            if points_in_polygon(np.array([hp[0]]), np.array([hp[1]]), [sh])[0] == INTERIOR:
                shell_holes[i].append(hole)
                break
    polys = []
    for (sh, _a), hs in zip(shells, shell_holes):
        polys.append(Geometry(POLYGON, 0, rings=[sh] + hs))
    if len(polys) == 1:
        return polys[0]
    return Geometry(MULTIPOLYGON, 0, geoms=polys)


def _merge_lines(edge_list):
    """Undirected edges -> merged LineStrings (greedy path stitching)."""
    from collections import defaultdict

    adj = defaultdict(list)
    for p, q in edge_list:
        adj[p].append(q)
        adj[q].append(p)
    unused = set()
    for p, q in edge_list:
        unused.add((p, q) if p <= q else (q, p))

    def take(p, q):
        unused.discard((p, q) if p <= q else (q, p))

    lines = []
    # start at odd-degree vertices first (path endpoints)
    starts = [v for v in adj if len(adj[v]) % 2 == 1] + list(adj.keys())
    for s in starts:
        while True:
            nxt = None
            for q in adj[s]:
                if ((s, q) if s <= q else (q, s)) in unused:
                    nxt = q
                    break
            if nxt is None:
                break
            path = [s, nxt]
            take(s, nxt)
            cur = nxt
            prev = s
            while True:
                cont = None
                for q in adj[cur]:
                    if q != prev and ((cur, q) if cur <= q else (q, cur)) in unused:
                        cont = q
                        break
                if cont is None:
                    break
                path.append(cont)
                take(cur, cont)
                prev, cur = cur, cont
            lines.append(np.asarray(path, dtype=np.float64))
    return lines


def _typed_empty(dim: int) -> Geometry:
    if dim <= 0:
        return Geometry(POINT, 0, coords=None)
    if dim == 1:
        return Geometry(LINESTRING, 0, coords=np.zeros((0, 2)))
    return Geometry(POLYGON, 0, rings=[])


def _compose(points, lines, areal) -> Geometry:
    """Combine piece lists into a single geometry value."""
    parts = []
    for p in points:
        parts.append(Geometry.point(p[0], p[1]))
    for l in lines:
        parts.append(Geometry(LINESTRING, 0, coords=l))
    if areal is not None and not areal.is_empty():
        parts.extend(areal.flatten())
    if not parts:
        return None
    tags = {p.tag for p in parts}
    if tags == {POINT}:
        return parts[0] if len(parts) == 1 else Geometry(MULTIPOINT, 0, geoms=parts)
    if tags == {LINESTRING}:
        return parts[0] if len(parts) == 1 else Geometry(MULTILINESTRING, 0, geoms=parts)
    if tags == {POLYGON}:
        return parts[0] if len(parts) == 1 else Geometry(MULTIPOLYGON, 0, geoms=parts)
    return Geometry(GEOMETRYCOLLECTION, 0, geoms=parts)


_LOCAL_FRAME_LIMIT = 10000.0


def _frame_shift(geoms):
    """Integer translation bringing large coordinates near the origin.

    Far-from-origin inputs (UTM/web-mercator metres) break the fixed
    probe/snap epsilons: a near-tangent lens can be thinner than the
    scaled epsilon. Working in a local frame keeps epsilons at their
    ~1e-7 base resolution. Returns (dx, dy) or None when unneeded.
    """
    xs = []
    for g in geoms:
        xy = g.all_xy()
        if len(xy):
            xs.append(xy)
    if not xs:
        return None
    allxy = np.concatenate(xs, axis=0)
    mx = np.abs(allxy).max()
    if mx <= _LOCAL_FRAME_LIMIT:
        return None
    c = allxy.mean(axis=0)
    dx, dy = float(np.round(c[0])), float(np.round(c[1]))
    if dx == 0.0 and dy == 0.0:
        # input EXTENT exceeds the local-frame limit (already centred):
        # shifting cannot help and would recurse forever
        return None
    return (dx, dy)


def _shift_geom(g: Geometry, dx: float, dy: float) -> Geometry:
    def fn(arr):
        out = arr.copy()
        out[:, 0] += dx
        out[:, 1] += dy
        return out

    return g.map_coords(fn)


def _ill_conditioned(geoms) -> bool:
    """True when any geometry carries DISTINCT vertices closer than the
    ~1e-6 robustness floor (sub-epsilon features misclassify in the
    side-sampling model). Detection via 6-decimal bucket collisions of
    distinct 9-decimal vertex keys, hashed twice at half-grid offsets so
    straddling pairs can't hide on a bucket boundary. O(n)."""
    for g in geoms:
        for leaf in g.flatten():
            rings = leaf.rings if leaf.rings else (
                [leaf.coords] if leaf.tag == LINESTRING and leaf.coords is not None
                else [])
            for ring in rings:
                arr = np.asarray(ring, dtype=np.float64)[:, :2]
                if len(arr) < 2:
                    continue
                keys9 = np.round(arr, SNAP)
                for off in (0.0, 5e-7):
                    b6 = np.round(arr + off, 6)
                    # bucket -> set of distinct fine keys
                    seen: dict = {}
                    for (bx, by), (kx, ky) in zip(b6, keys9):
                        bucket = (bx, by)
                        prev = seen.get(bucket)
                        if prev is None:
                            seen[bucket] = (kx, ky)
                        elif prev != (kx, ky):
                            return True
    return False


def _exact_side_inside(g: Geometry, p, q):
    """EXACT side classification of edge (p, q) against g's areal part:
    is the limit point mid + t*n (t -> 0+) inside g, for n the left and
    right normals? Pure rational arithmetic (Fraction) — no epsilon, so
    sub-epsilon hairlines/slivers that defeat the sampled probes
    classify correctly. Even-odd crossing parity per POLYGON leaf
    (matching _inside_many), counted along the limit ray v = 0+/-,
    u > 0 in edge-aligned coordinates; ties at u = 0 resolved by the
    crossing's first-order drift in t. Cost is O(vertices of g) rational
    ops per edge — paid only for edges the float probes cannot decide."""
    from fractions import Fraction as Fr

    px_, py_ = Fr(p[0]), Fr(p[1])
    qx_, qy_ = Fr(q[0]), Fr(q[1])
    mx, my = (px_ + qx_) / 2, (py_ + qy_) / 2
    dx, dy = qx_ - px_, qy_ - py_

    left = False
    right = False
    for leaf in g.flatten():
        if leaf.tag != POLYGON or not leaf.rings:
            continue
        cl = 0
        cr = 0
        for ring in leaf.rings:
            pts = []
            for x, y in ring[:, :2]:
                rx, ry = Fr(float(x)) - mx, Fr(float(y)) - my
                pts.append((rx * dx + ry * dy, -rx * dy + ry * dx))
            for (ua, va), (ub, vb) in zip(pts[:-1], pts[1:]):
                if va == vb:
                    continue  # no v=0 crossing (incl. collinear overlap)
                crosses_l = (va > 0) != (vb > 0)
                crosses_r = (va < 0) != (vb < 0)
                if not (crosses_l or crosses_r):
                    continue
                uc = ua + (ub - ua) * (0 - va) / (vb - va)
                drift = (ub - ua) * (vb - va)  # sign of d(uc)/dt
                if crosses_l and (uc > 0 or (uc == 0 and drift > 0)):
                    cl ^= 1
                if crosses_r and (uc > 0 or (uc == 0 and drift < 0)):
                    cr ^= 1
        left |= bool(cl)
        right |= bool(cr)
    return left, right


def _precondition(g: Geometry) -> Geometry:
    """Collapse sub-epsilon features: snap to the 1e-6 robustness grid
    and repair the resulting topology."""
    from .algorithms import snap_to_grid as _snap

    return make_valid(_snap(g, 6))



def _repair_result(result: Geometry) -> Geometry:
    """Validity backstop for areal overlay outputs: make_valid, then —
    for the crossing-shared-edge artifacts the parity repair cannot see
    (adjacent parts traced from sub-epsilon linework carry
    near-coincident edges crossing at ~1e-8) — an ESCALATING
    RESULT-side snap. The snap floor applies to the output only and
    starts at 1e-8, far tighter than the 1e-6 input preconditioning."""
    if result.tag not in (POLYGON, MULTIPOLYGON):
        return result
    from .algorithms import snap_to_grid as _rsnap
    from .validate import validate as _validate

    ok, _ = _validate(result)
    if ok:
        return result
    result = make_valid(result)
    for nd in (8, 7, 6):
        if result.tag not in (POLYGON, MULTIPOLYGON):
            return result
        ok, _ = _validate(result)
        if ok:
            return result
        result = make_valid(_rsnap(result, nd))
    if result.tag not in (POLYGON, MULTIPOLYGON):
        return result
    ok, _ = _validate(result)
    if ok:
        return result
    # last resort: collapse NEEDLE elements (width ~ 2*area/perimeter
    # below the documented 1e-6 robustness floor) that even the 1e-6
    # snap preserves when their vertices land exactly one grid step
    # apart — the preconditioning contract collapses such features
    from .algorithms import area as _area
    from .algorithms import length as _length

    parts = [leaf for leaf in result.flatten()
             if leaf.tag == POLYGON and leaf.rings]
    kept = []
    for leaf in parts:
        a_ = _area(leaf)
        p_ = _length(Geometry(MULTILINESTRING, 0,
                              geoms=[Geometry(LINESTRING, 0, coords=r)
                                     for r in leaf.rings]))
        if p_ <= 0 or 2.0 * a_ / p_ >= 1e-6:
            kept.append(leaf)
    if len(kept) != len(parts):
        if not kept:
            return Geometry(POLYGON, 0, rings=[])
        result = kept[0] if len(kept) == 1 else Geometry(
            MULTIPOLYGON, 0, geoms=kept)
        result = make_valid(result)
    return result


def _overlay_preconditioned(a: Geometry, b: Geometry, op: str) -> Geometry:
    """Degraded-precision fallback: collapse sub-epsilon features, rerun
    once, and repair the (snapped) result if the snap produced touching/
    crossing rings. Accuracy floor ~1e-6 in coordinates — only reached
    for inputs below the documented robustness model."""
    res = overlay(_precondition(a), _precondition(b), op,
                  _precision_retry=False)
    return _repair_result(res)


def overlay(a: Geometry, b: Geometry, op: str,
            _precision_retry: bool = True) -> Geometry:
    """Point-set overlay of two geometries.

    Result composition follows JTS/OverlayNG conventions: highest- and
    lower-dimensional pieces are all emitted (mixed results become a
    GeometryCollection); empty results are typed by the op's natural
    dimension (reference alg_overlay.go:29-44).

    Robustness net: boundary features thinner than the side-sampling
    epsilon (~1e-7) misclassify silently (the documented robustness
    model). For areal inputs the result is checked against the exact
    area bounds every overlay satisfies (union within [max, sum] of the
    input areas, etc.); on violation the overlay reruns ONCE with both
    inputs snapped to the robustness grid and re-validated, collapsing
    sub-epsilon hairline tongues deterministically instead of returning
    a wrong region set.
    """
    if op not in _OPS:
        raise ValueError(f"unknown overlay op {op!r}")
    shift = _frame_shift([a, b])
    if shift is not None:
        res = overlay(_shift_geom(a, -shift[0], -shift[1]),
                      _shift_geom(b, -shift[0], -shift[1]), op,
                      _precision_retry=_precision_retry)
        return _shift_geom(res, shift[0], shift[1])
    if _precision_retry and _ill_conditioned([a, b]):
        return _overlay_preconditioned(a, b, op)
    sel = _OPS[op]

    dim_a = a.dimension() if not a.is_empty() else -1
    dim_b = b.dimension() if not b.is_empty() else -1
    if dim_a < 0 and dim_b < 0:
        return _typed_empty(_empty_dim(op, 0, 0))
    if dim_a < 0:
        return b if op in ("union", "symmetric_difference") else _typed_empty(
            _empty_dim(op, dim_b, dim_b))
    if dim_b < 0:
        if op in ("union", "symmetric_difference", "difference"):
            return a
        return _typed_empty(_empty_dim(op, dim_a, dim_a))

    # ---- noding of the combined linework ----------------------------------
    segs = _collect_segments([a, b])
    point_parts = [
        (float(leaf.coords[0]), float(leaf.coords[1]))
        for g in (a, b)
        for leaf in g.flatten()
        if leaf.tag == POINT and leaf.coords is not None
    ]
    edges = _node_all(segs, point_parts) if len(segs) else set()

    # ---- classify edge sides (vectorized over all edges) -------------------
    edge_list = sorted(edges)
    boundary_directed = set()
    leftover_edges = []  # undirected, in neither selected region
    if edge_list:
        E = np.asarray(edge_list, dtype=np.float64)  # (n, 2, 2)
        P = E[:, 0, :]
        Q = E[:, 1, :]
        mid = (P + Q) / 2.0
        d = Q - P
        ln = np.hypot(d[:, 0], d[:, 1])
        ln[ln == 0] = 1.0
        nx = -d[:, 1] / ln
        ny = d[:, 0] / ln
        eps = 1e-7 + 1e-9 * np.maximum(1.0, np.maximum(np.abs(mid[:, 0]), np.abs(mid[:, 1])))
        lx, ly = mid[:, 0] + nx * eps, mid[:, 1] + ny * eps
        rx, ry = mid[:, 0] - nx * eps, mid[:, 1] - ny * eps
        a_l = _inside_many(a, lx, ly)
        b_l = _inside_many(b, lx, ly)
        a_r = _inside_many(a, rx, ry)
        b_r = _inside_many(b, rx, ry)
        # Self-check of the sampling model: every noded edge lies on some
        # input ring, so it should separate SOME input locally. An edge
        # whose probes see NO difference on either input is indeterminate
        # — the probes straddle an adjacent boundary (staircase steps in
        # offset-curve unions put both 1e-7 probes within 1e-7 of the
        # neighbouring rail) or jumped a sub-epsilon hairline.
        # First ESCALATE the probe scale for just those edges (a bigger
        # offset resolves step corners while staying far below genuine
        # feature sizes); whatever remains indeterminate on purely-areal
        # inputs triggers the preconditioned rerun.
        sus = (a_l == a_r) & (b_l == b_r)
        if sus.any():
            for scale in (8.0, 64.0, 512.0, 4096.0):
                idx = np.nonzero(sus)[0]
                if not len(idx):
                    break
                ee = eps[idx] * scale
                lx2, ly2 = mid[idx, 0] + nx[idx] * ee, mid[idx, 1] + ny[idx] * ee
                rx2, ry2 = mid[idx, 0] - nx[idx] * ee, mid[idx, 1] - ny[idx] * ee
                a_l2 = _inside_many(a, lx2, ly2)
                b_l2 = _inside_many(b, lx2, ly2)
                a_r2 = _inside_many(a, rx2, ry2)
                b_r2 = _inside_many(b, rx2, ry2)
                resolved = (a_l2 != a_r2) | (b_l2 != b_r2)
                upd = idx[resolved]
                a_l[upd] = a_l2[resolved]
                b_l[upd] = b_l2[resolved]
                a_r[upd] = a_r2[resolved]
                b_r[upd] = b_r2[resolved]
                sus[upd] = False
        if sus.any():
            # exact-rational fallback: edges the sampled probes cannot
            # decide even at escalated scales (sub-epsilon hairlines,
            # nested mixed-precision slivers) classify EXACTLY — full
            # precision is preserved instead of degrading the whole
            # input to the 1e-6 precondition grid
            for i in np.nonzero(sus)[0]:
                p_, q_ = edge_list[i]
                a_l[i], a_r[i] = _exact_side_inside(a, p_, q_)
                b_l[i], b_r[i] = _exact_side_inside(b, p_, q_)
            sus[:] = False
        vop = _VOPS[op]
        s_l = vop(a_l, b_l)
        s_r = vop(a_r, b_r)
        for i, (p, q) in enumerate(edge_list):
            if s_l[i] and not s_r[i]:
                boundary_directed.add((p, q))
            elif s_r[i] and not s_l[i]:
                boundary_directed.add((q, p))
            elif not s_l[i] and not s_r[i]:
                leftover_edges.append((i, p, q))
        # s_l and s_r: interior edge of the result, drop

    if boundary_directed:
        diag = float(np.hypot(*(E.reshape(-1, 2).max(axis=0) - E.reshape(-1, 2).min(axis=0)))) if edge_list else 1.0
        boundary_directed = _repair_directed(boundary_directed, 1e-4 * max(diag, 1e-6))
    rings = _trace_rings(boundary_directed)
    areal = _assemble_polygons(rings) if rings else None

    # ---- 1D / 0D pieces ----------------------------------------------------
    lines = []
    points = []
    line_edges = []
    if leftover_edges:
        idx = np.asarray([i for i, _, _ in leftover_edges])
        mx = (P[idx, 0] + Q[idx, 0]) / 2.0
        my = (P[idx, 1] + Q[idx, 1]) / 2.0
        on_a = _closure_many(a, mx, my)
        on_b = _closure_many(b, mx, my)
        keep = _VOPS[op](on_a, on_b)
        line_edges = [(p, q) for k, (_, p, q) in zip(keep, leftover_edges) if k]
    if line_edges:
        lines = _merge_lines(line_edges)

    # 0D pieces: input point parts + isolated touch points
    cand_points = []
    for g, other, flip in ((a, b, False), (b, a, True)):
        for leaf in g.flatten():
            if leaf.tag == POINT and leaf.coords is not None:
                cand_points.append((float(leaf.coords[0]), float(leaf.coords[1])))
    if op == "intersection" and dim_a >= 1 and dim_b >= 1:
        # isolated vertex touches (e.g. corner-touching polygons)
        verts = set()
        for p, q in edges:
            verts.add(p)
            verts.add(q)
        used = set()
        for p, q in boundary_directed:
            used.add(p)
            used.add(q)
        for p, q in line_edges:
            used.add(p)
            used.add(q)
        for v in verts - used:
            if _locate_in(a, v[0], v[1]) != EXTERIOR and _locate_in(b, v[0], v[1]) != EXTERIOR:
                points.append(v)
    for p in cand_points:
        la = _locate_in(a, p[0], p[1]) != EXTERIOR
        lb = _locate_in(b, p[0], p[1]) != EXTERIOR
        keep = {
            "intersection": la and lb,
            "union": la or lb,
            "difference": la and not lb,
            "symmetric_difference": la != lb,
        }[op]
        if keep:
            # suppress points swallowed by higher-dim result pieces
            if areal is not None and _locate_in(areal, p[0], p[1]) != EXTERIOR:
                continue
            covered = False
            for l in lines:
                gl = Geometry(LINESTRING, 0, coords=l)
                if _locate_in(gl, p[0], p[1]) != EXTERIOR:
                    covered = True
                    break
            if not covered:
                points.append(p)

    points = sorted(set(points))
    result = _compose(points, lines, areal)
    if result is None:
        result = _typed_empty(_empty_dim(op, dim_a, dim_b))

    if _precision_retry and dim_a == 2 and dim_b == 2:
        from .algorithms import area as _area
        from .algorithms import snap_to_grid as _snap

        aa, ab_, ar = _area(a), _area(b), _area(result)
        tol = 1e-6 * max(1.0, aa, ab_)
        lo, hi = {
            "union": (max(aa, ab_) - tol, aa + ab_ + tol),
            "intersection": (-tol, min(aa, ab_) + tol),
            "difference": (aa - ab_ - tol, aa + tol),
            "symmetric_difference": (abs(aa - ab_) - tol, aa + ab_ + tol),
        }[op]
        if not (lo <= ar <= hi):
            # 1e-6 grid: comfortably above the ~1e-7 sampling epsilon, so
            # every surviving feature classifies reliably
            return _overlay_preconditioned(a, b, op)
    if _precision_retry:
        # sliver-adjacent inputs occasionally trace touching/crossing
        # rings; repair costs one validate on the common (valid) case
        result = _repair_result(result)
    return result


def _empty_dim(op: str, dim_a: int, dim_b: int) -> int:
    """Dimension for typed empty results (reference alg_overlay.go:29-44)."""
    if op == "intersection":
        return min(dim_a, dim_b)
    if op == "difference":
        return dim_a
    return max(dim_a, dim_b)


def union(a, b) -> Geometry:
    return overlay(a, b, "union")


def intersection(a, b) -> Geometry:
    return overlay(a, b, "intersection")


def difference(a, b) -> Geometry:
    return overlay(a, b, "difference")


def symmetric_difference(a, b) -> Geometry:
    return overlay(a, b, "symmetric_difference")


def union_many(geoms) -> Geometry:
    """n-way union. Areal inputs use ONE n-ary arrangement (all linework
    noded together, edges kept where inside-any flips across the edge) —
    much cheaper than cascaded pairwise union. Mixed-dimension input
    falls back to a balanced tree reduce (the engine's distributed
    variant is a groupby().map_groups aggregate, SURVEY §2.6)."""
    items = [g for g in geoms if g is not None and not g.is_empty()]
    if not items:
        return Geometry(GEOMETRYCOLLECTION, 0, geoms=[])
    if len(items) == 1:
        return items[0]
    shift = _frame_shift(items)
    if shift is not None:
        res = union_many([_shift_geom(g, -shift[0], -shift[1]) for g in items])
        return _shift_geom(res, shift[0], shift[1])
    all_areal = all(
        leaf.tag == POLYGON for g in items for leaf in g.flatten() if not leaf.is_empty()
    )
    if all_areal:
        segs = _collect_segments(items)
        edges = _node_all(segs)
        edge_list = sorted(edges)
        if not edge_list:
            return Geometry(POLYGON, 0, rings=[])
        E = np.asarray(edge_list, dtype=np.float64)
        P = E[:, 0, :]
        Q = E[:, 1, :]
        mid = (P + Q) / 2.0
        d = Q - P
        ln = np.hypot(d[:, 0], d[:, 1])
        ln[ln == 0] = 1.0
        nx = -d[:, 1] / ln
        ny = d[:, 0] / ln
        eps = 1e-7 + 1e-9 * np.maximum(1.0, np.maximum(np.abs(mid[:, 0]), np.abs(mid[:, 1])))
        lx, ly = mid[:, 0] + nx * eps, mid[:, 1] + ny * eps
        rx, ry = mid[:, 0] - nx * eps, mid[:, 1] - ny * eps
        in_l = np.zeros(len(edge_list), dtype=bool)
        in_r = np.zeros(len(edge_list), dtype=bool)
        for g in items:
            todo = ~(in_l & in_r)
            if not todo.any():
                break
            in_l |= _inside_many(g, lx, ly)
            in_r |= _inside_many(g, rx, ry)
        # an edge with BOTH probes outside every input is indeterminate
        # (it lies on some input ring, so one side must be inside) —
        # escalate the probe scale for just those edges (see overlay())
        sus = ~(in_l | in_r)
        if sus.any():
            for scale in (8.0, 64.0, 512.0, 4096.0):
                idx = np.nonzero(sus)[0]
                if not len(idx):
                    break
                ee = eps[idx] * scale
                l2 = np.zeros(len(idx), dtype=bool)
                r2 = np.zeros(len(idx), dtype=bool)
                for g in items:
                    l2 |= _inside_many(g, mid[idx, 0] + nx[idx] * ee,
                                       mid[idx, 1] + ny[idx] * ee)
                    r2 |= _inside_many(g, mid[idx, 0] - nx[idx] * ee,
                                       mid[idx, 1] - ny[idx] * ee)
                resolved = l2 != r2
                upd = idx[resolved]
                in_l[upd] = l2[resolved]
                in_r[upd] = r2[resolved]
                sus[upd] = False
        boundary_directed = set()
        for i, (p, q) in enumerate(edge_list):
            if in_l[i] and not in_r[i]:
                boundary_directed.add((p, q))
            elif in_r[i] and not in_l[i]:
                boundary_directed.add((q, p))
        allv = E.reshape(-1, 2)
        diag = float(np.hypot(*(allv.max(axis=0) - allv.min(axis=0))))
        boundary_directed = _repair_directed(boundary_directed, 1e-4 * max(diag, 1e-6))
        rings = _trace_rings(boundary_directed)
        out = _assemble_polygons(rings)
        return out
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(union(items[i], items[i + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def make_valid(g: Geometry) -> Geometry:
    """Repair an invalid polygonal geometry (GEOS MakeValid analog; the
    reference only offers this via its CGO wrapper, geos/entrypoints.go:266).

    Runs the geometry's own linework through the arrangement and keeps the
    regions whose even-odd crossing parity is inside — a bowtie becomes
    two triangles, overlapping rings dissolve, hole/shell crossings are
    re-noded. Non-areal geometries are returned unchanged.
    """
    from .validate import validate

    has_area = any(leaf.tag == POLYGON and leaf.rings for leaf in g.flatten())
    if not has_area:
        return g
    ok, _ = validate(g)
    if ok:
        return g
    shift = _frame_shift([g])
    if shift is not None:
        return _shift_geom(make_valid(_shift_geom(g, -shift[0], -shift[1])),
                           shift[0], shift[1])
    if _ill_conditioned([g]):
        # invalid AND carrying sub-epsilon features: the parity repair
        # below is epsilon-limited, so collapse them first (the repaired
        # output would otherwise "validate" while still hiding hairline
        # tongues that poison later overlays)
        from .algorithms import snap_to_grid as _snap

        g2 = _snap(g, 6)
        if not _ill_conditioned([g2]):
            return make_valid(g2)
    segs = _collect_segments([g])
    edges = _node_all(segs)
    edge_list = sorted(edges)
    if not edge_list:
        return Geometry(POLYGON, 0, rings=[])
    E = np.asarray(edge_list, dtype=np.float64)
    P = E[:, 0, :]
    Q = E[:, 1, :]
    mid = (P + Q) / 2.0
    d = Q - P
    ln = np.hypot(d[:, 0], d[:, 1])
    ln[ln == 0] = 1.0
    nx = -d[:, 1] / ln
    ny = d[:, 0] / ln
    eps = 1e-7 + 1e-9 * np.maximum(1.0, np.maximum(np.abs(mid[:, 0]), np.abs(mid[:, 1])))
    lx, ly = mid[:, 0] + nx * eps, mid[:, 1] + ny * eps
    rx, ry = mid[:, 0] - nx * eps, mid[:, 1] - ny * eps
    in_l = _inside_many(g, lx, ly)
    in_r = _inside_many(g, rx, ry)
    sus = ~(in_l | in_r)  # probe-indeterminate edges: escalate the scale
    if sus.any():
        for scale in (8.0, 64.0, 512.0, 4096.0):
            idx = np.nonzero(sus)[0]
            if not len(idx):
                break
            ee = eps[idx] * scale
            l2 = _inside_many(g, mid[idx, 0] + nx[idx] * ee,
                              mid[idx, 1] + ny[idx] * ee)
            r2 = _inside_many(g, mid[idx, 0] - nx[idx] * ee,
                              mid[idx, 1] - ny[idx] * ee)
            resolved = l2 != r2
            upd = idx[resolved]
            in_l[upd] = l2[resolved]
            in_r[upd] = r2[resolved]
            sus[upd] = False
    if sus.any():
        # exact-rational fallback (same as overlay's): probe-blind edges
        # previously dropped silently — region loss on hairline input
        for i in np.nonzero(sus)[0]:
            p_, q_ = edge_list[i]
            in_l[i], in_r[i] = _exact_side_inside(g, p_, q_)
        sus[:] = False
    boundary_directed = set()
    for i, (p, q) in enumerate(edge_list):
        if in_l[i] and not in_r[i]:
            boundary_directed.add((p, q))
        elif in_r[i] and not in_l[i]:
            boundary_directed.add((q, p))
    allv = E.reshape(-1, 2)
    diag = float(np.hypot(*(allv.max(axis=0) - allv.min(axis=0))))
    boundary_directed = _repair_directed(boundary_directed, 1e-4 * max(diag, 1e-6))
    rings = _trace_rings(boundary_directed)
    return _assemble_polygons(rings)
