"""The flat join-refinement kernel against a scalar per-edge oracle.

geometry/predicates.pair_parity_on expands (point, polygon) pairs over a
flat edge table and runs the crossing-number and on-edge tests in one
vector pass. The oracle below is the per-edge form of the same
arithmetic (loop over edges, vector over points, math.hypot edge
length), so the kernel's hits must match it bit for bit: the same
(point, polygon) pairs in the same order, and the same -1/0/1 classes.
"""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pytest

from simplefeatures_ray.geometry import predicates
from simplefeatures_ray.geometry.core import MULTIPOLYGON, POLYGON, Geometry
from simplefeatures_ray.geometry.predicates import (
    flat_edges, pair_parity_on, points_in_polygon, points_on_ring)
from simplefeatures_ray.geometry.wkb import from_wkb, to_wkb
from simplefeatures_ray.sources.polygons import make_polygons
from simplefeatures_ray.stages.join import BroadcastSpatialJoin, build_polygon_index

# --------------------------------------------------------------------------- #
# scalar oracle: the per-edge loops, one edge at a time
# --------------------------------------------------------------------------- #


def _oracle_in_ring(px, py, ring):
    inside = np.zeros(len(px), dtype=bool)
    for ex1, ey1, ex2, ey2 in zip(ring[:-1, 0], ring[:-1, 1], ring[1:, 0], ring[1:, 1]):
        if ey1 == ey2:
            continue
        cond = (ey1 > py) != (ey2 > py)
        t = (py - ey1) / (ey2 - ey1)
        xint = ex1 + t * (ex2 - ex1)
        inside ^= cond & (px < xint)
    return inside


def _oracle_on_ring(px, py, ring):
    on = np.zeros(len(px), dtype=bool)
    tol = 1e-9 + 1e-13 * np.maximum(np.abs(px), np.abs(py))
    for ex1, ey1, ex2, ey2 in zip(ring[:-1, 0], ring[:-1, 1], ring[1:, 0], ring[1:, 1]):
        lox, hix = (ex1, ex2) if ex1 <= ex2 else (ex2, ex1)
        loy, hiy = (ey1, ey2) if ey1 <= ey2 else (ey2, ey1)
        box = (px >= lox - tol) & (px <= hix + tol) & (py >= loy - tol) & (py <= hiy + tol)
        cross = (ex2 - ex1) * (py - ey1) - (ey2 - ey1) * (px - ex1)
        seg_len = math.hypot(ex2 - ex1, ey2 - ey1)
        on |= box & (np.abs(cross) <= tol * max(seg_len, 1.0))
    return on


def _oracle_classify(px, py, rings):
    parity = np.zeros(len(px), dtype=bool)
    on = np.zeros(len(px), dtype=bool)
    for ring in rings:
        if len(ring) > 1:
            parity ^= _oracle_in_ring(px, py, ring)
            on |= _oracle_on_ring(px, py, ring)
    out = np.where(parity, 1, -1).astype(np.int8)
    out[on] = 0
    return out


def _all_rings(wkb):
    return [r for leaf in from_wkb(wkb).flatten() for r in leaf.rings]


def _oracle_match(polygons: pa.Table, px, py):
    """(pt, poly_pos) hits by brute force, sorted by (pt, poly_id, pos)."""
    ids = np.asarray(polygons["poly_id"], dtype=np.int64)
    by_x = np.argsort(px, kind="stable")
    sx = px[by_x]
    hit_p, hit_i = [], []
    for j, w in enumerate(polygons["wkb"].to_pylist()):
        rings = _all_rings(w)
        xy = np.concatenate([r[:, :2] for r in rings])
        cand = by_x[np.searchsorted(sx, xy[:, 0].min(), "left"):
                    np.searchsorted(sx, xy[:, 0].max(), "right")]
        cand = np.sort(cand[(py[cand] >= xy[:, 1].min()) & (py[cand] <= xy[:, 1].max())])
        if len(cand):
            cand = cand[_oracle_classify(px[cand], py[cand], rings) >= 0]
            hit_p.append(cand)
            hit_i.append(np.full(len(cand), j))
    kp = np.concatenate(hit_p) if hit_p else np.zeros(0, np.int64)
    ki = np.concatenate(hit_i) if hit_i else np.zeros(0, np.int64)
    order = np.lexsort((ki, ids[ki], kp))
    return kp[order], ki[order]


# --------------------------------------------------------------------------- #
# polygon sets and probe points
# --------------------------------------------------------------------------- #


def _table(geoms, ids=None, with_env=False) -> pa.Table:
    ids = list(range(len(geoms))) if ids is None else ids
    cols = {"poly_id": pa.array(ids, pa.int64()),
            "name": pa.array([f"p{i}" for i in ids], pa.string()),
            "wkb": pa.array([to_wkb(g) for g in geoms], pa.binary())}
    if with_env:
        xy = [g.all_xy() for g in geoms]
        for k, col in enumerate(("minx", "miny")):
            cols[col] = [float(a[:, k].min()) for a in xy]
        for k, col in enumerate(("maxx", "maxy")):
            cols[col] = [float(a[:, k].max()) for a in xy]
    return pa.table(cols)


def _box(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], dtype=np.float64)


def _multipolygons() -> pa.Table:
    """MultiPolygons of 2-3 parts: axis-aligned boxes (horizontal edges),
    holes, and parts that overlap other parts and polygons."""
    rng = np.random.default_rng(3)
    geoms = []
    for i in range(24):
        if i % 2:  # a shifted copy of its twin: shared hits, lower in y
            geoms.append(Geometry(MULTIPOLYGON, 0, geoms=[
                Geometry(POLYGON, 0, rings=[r + [0.2, -0.1] for r in p.rings])
                for p in geoms[-1].geoms]))
            continue
        parts = []
        for k in range(2 + i % 4 // 2):
            x0, y0 = rng.uniform(-20, 20, 2).round(3)
            w, h = rng.uniform(0.5, 4.0, 2).round(3)
            rings = [_box(x0, y0, x0 + w, y0 + h)]
            if k == 0:  # a hole, wound the other way
                rings.append(_box(x0 + w / 4, y0 + h / 4, x0 + w / 2, y0 + h / 2)[::-1].copy())
            parts.append(Geometry(POLYGON, 0, rings=rings))
        geoms.append(Geometry(MULTIPOLYGON, 0, geoms=parts))
    # twins share a poly_id: equal poly_ids order by table position
    return _table(geoms, ids=[100 + 7 * (i // 2) for i in range(len(geoms))])


def _scaled(polygons: pa.Table, scale: float) -> pa.Table:
    geoms = [Geometry(POLYGON, 0, rings=[r * scale for r in _all_rings(w)])
             for w in polygons["wkb"].to_pylist()]
    return _table(geoms, ids=polygons["poly_id"].to_pylist(), with_env=True)


def _probe_points(polygons: pa.Table, rng, n_polys=None, n_uniform=2000,
                  extra_edges=()):
    """Vertices, points interpolated on edges, and both jittered by about
    the on-edge tolerance; uniform points over the set's extent; points
    on horizontal edges at their exact y."""
    wkbs = polygons["wkb"].to_pylist()
    pick = range(len(wkbs)) if n_polys is None else rng.choice(len(wkbs), n_polys, replace=False)
    rings = [r[:, :2] for j in pick for r in _all_rings(wkbs[j])]
    x1, y1, x2, y2, _, _ = flat_edges([rings])
    x1, y1, x2, y2 = (np.concatenate([c, [e[k] for e in extra_edges]]) for k, c in
                      enumerate((x1, y1, x2, y2)))
    s = rng.uniform(0, 1, len(x1))
    pts = [np.stack([x1, y1], 1),
           np.stack([x1 + s * (x2 - x1), y1 + s * (y2 - y1)], 1),
           np.stack([x1 + 0.5 * (x2 - x1), y1 + 0.5 * (y2 - y1)], 1)]
    flat = y1 == y2
    pts.append(np.stack([x1[flat] + s[flat] * (x2[flat] - x1[flat]), y1[flat]], 1))
    base = np.concatenate(pts)
    tol = 1e-9 + 1e-13 * np.abs(base).max(axis=1, keepdims=True)
    jit = [base + k * tol * rng.choice([-1.0, 1.0], base.shape) for k in (0.5, 1.0, 2.0)]
    lo, hi = base.min(axis=0), base.max(axis=0)
    uni = rng.uniform(lo, hi, (n_uniform, 2))
    xy = np.concatenate([base] + jit + [uni])
    return np.ascontiguousarray(xy[:, 0]), np.ascontiguousarray(xy[:, 1])


def _hypot_split_edges(polygons: pa.Table):
    """Edges of the set whose np.hypot length differs from math.hypot."""
    idx = build_polygon_index(polygons)
    x1, y1, x2, y2 = idx.edges
    dx, dy = x2 - x1, y2 - y1
    mh = np.array([math.hypot(a, b) for a, b in zip(dx.tolist(), dy.tolist())])
    sel = np.flatnonzero(mh != np.hypot(dx, dy))
    return [(x1[e], y1[e], x2[e], y2[e]) for e in sel]


def _hypot_split_points(rng, want=4):
    """Triangles with an edge (0,0)->(dx,dy) whose np.hypot and math.hypot
    lengths differ, plus points ~tol off that edge whose on-edge result
    flips between the two lengths (near the origin the cross product is
    fine-grained enough to land between the two thresholds)."""
    out = []
    while len(out) < want:
        dx, dy = rng.uniform(0.5, 3.0, 2)
        seg_len, np_len = math.hypot(dx, dy), float(np.hypot(dx, dy))
        if seg_len == np_len:
            continue
        ux, uy = dx / seg_len, dy / seg_len
        px0, py0 = 5e-9 * ux - 1e-9 * uy, 5e-9 * uy + 1e-9 * ux
        pxs = px0 + np.arange(-4000, 4000) * np.spacing(abs(px0))
        pys = np.full_like(pxs, py0)
        tol = 1e-9 + 1e-13 * np.maximum(np.abs(pxs), np.abs(pys))
        ac = np.abs(dx * pys - dy * pxs)
        flip = np.flatnonzero((ac <= tol * seg_len) != (ac <= tol * np_len))
        if len(flip):
            ring = np.array([[0.0, 0.0], [dx, dy], [dx + dy, dy - dx], [0.0, 0.0]])
            out.append((ring, pxs[flip], pys[flip]))
    return out


# --------------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------------- #


def _sets():
    rng = np.random.default_rng(17)
    p64 = make_polygons(64)
    p16k = make_polygons(16384)
    split = _hypot_split_edges(p16k)
    multi = _multipolygons()
    big = _scaled(p64, 1e4)
    return {
        "polys64": (p64, _probe_points(p64, rng)),
        "polys16384": (p16k, _probe_points(p16k, rng, n_polys=300, n_uniform=3000,
                                           extra_edges=split[:300])),
        "multipolygon": (multi, _probe_points(multi, rng)),
        "scaled_1e6": (big, _probe_points(big, rng)),
    }


@pytest.fixture(scope="module")
def sets():
    return _sets()


@pytest.mark.parametrize("name", ["polys64", "polys16384", "multipolygon", "scaled_1e6"])
def test_match_equals_scalar_oracle(sets, name, monkeypatch):
    polygons, (px, py) = sets[name]
    want_p, want_i = _oracle_match(polygons, px, py)
    assert len(want_p) > 100
    joiner = BroadcastSpatialJoin(index=build_polygon_index(polygons))
    kp, ki = joiner.match(px, py)
    assert np.array_equal(kp, want_p) and np.array_equal(ki, want_i)
    # chunk boundaries fall between pairs, never inside one
    monkeypatch.setattr(predicates, "PAIR_CHUNK", 7)
    kp, ki = joiner.match(px[:1500], py[:1500])
    head = want_p < 1500
    assert np.array_equal(kp, want_p[head]) and np.array_equal(ki, want_i[head])


def test_hypot_split_edges_are_probed(sets):
    polygons, _ = sets["polys16384"]
    assert len(_hypot_split_edges(polygons)) > 100


@pytest.mark.parametrize("name", ["polys64", "multipolygon", "scaled_1e6"])
def test_points_in_polygon_classes(sets, name):
    polygons, (px, py) = sets[name]
    px = np.concatenate([px, [np.nan, 0.5, np.nan]])
    py = np.concatenate([py, [0.5, np.nan, np.nan]])
    seen = set()
    for w in polygons["wkb"].to_pylist():
        g = from_wkb(w)
        for leaf in g.flatten():
            got = points_in_polygon(px, py, leaf.rings)
            assert np.array_equal(got, _oracle_classify(px, py, leaf.rings))
            seen.update(got.tolist())
        rings = _all_rings(w)  # the join's even-odd over all parts' rings
        got = points_in_polygon(px, py, rings)
        assert np.array_equal(got, _oracle_classify(px, py, rings))
        assert (got[-3:] == -1).all()  # NaN rows are exterior
    assert seen == {-1, 0, 1}


def test_hypot_split_points_follow_math_hypot():
    for ring, px, py in _hypot_split_points(np.random.default_rng(11)):
        want = _oracle_classify(px, py, [ring])
        assert np.array_equal(points_in_polygon(px, py, [ring]), want)
        assert np.array_equal(points_on_ring(px, py, ring), want == 0)


def test_points_on_ring_open_line():
    rng = np.random.default_rng(2)
    line = np.cumsum(rng.uniform(-1, 1, (40, 2)), axis=0)
    x1, y1, x2, y2 = line[:-1, 0], line[:-1, 1], line[1:, 0], line[1:, 1]
    s = rng.uniform(0, 1, len(x1))
    px = np.concatenate([line[:, 0], x1 + s * (x2 - x1), rng.uniform(-5, 5, 500)])
    py = np.concatenate([line[:, 1], y1 + s * (y2 - y1), rng.uniform(-5, 5, 500)])
    assert np.array_equal(points_on_ring(px, py, line), _oracle_on_ring(px, py, line))


def test_zero_edge_polygons_never_reach_reduceat():
    polys = [[_box(0, 0, 2, 2)], [], [np.zeros((1, 2))], [_box(1, 1, 3, 3)]]
    x1, y1, x2, y2, ring_off, poly_off = flat_edges(polys)
    assert (np.diff(ring_off[poly_off]) == [4, 0, 0, 4]).all()
    px = np.array([0.5, 1.5, 2.5, 1.5, 0.0])
    py = np.array([0.5, 1.5, 2.5, 1.5, 0.0])
    pair_pt = np.array([0, 1, 1, 2, 3, 4, 0])
    pair_poly = np.array([0, 1, 0, 3, 2, 0, 3])
    parity, on = pair_parity_on(px, py, pair_pt, pair_poly, (x1, y1, x2, y2),
                                ring_off[poly_off])
    for k, (i, j) in enumerate(zip(pair_pt, pair_poly)):
        rings = [r for r in polys[j] if len(r) > 1]
        want_par = any(_oracle_in_ring(px[i:i + 1], py[i:i + 1], r)[0] for r in rings)
        want_on = any(_oracle_on_ring(px[i:i + 1], py[i:i + 1], r)[0] for r in rings)
        assert (parity[k], on[k]) == (want_par, want_on)
    assert parity.tolist() == [True, False, True, True, False, True, False]
    assert on.tolist() == [False, False, False, False, False, True, False]


def test_call_nan_rows_names_and_empty_batch():
    polygons = make_polygons(64)
    index = build_polygon_index(polygons)
    rng = np.random.default_rng(9)
    px, py = _probe_points(polygons, rng)
    px[::5] = np.nan
    py[1::7] = np.nan
    batch = pa.table({"lon": px, "lat": py, "row": np.arange(len(px))})
    ok = ~(np.isnan(px) | np.isnan(py))
    want_p, want_i = _oracle_match(polygons, px[ok], py[ok])
    want_rows = np.flatnonzero(ok)[want_p]

    out = BroadcastSpatialJoin(index=index)(batch)
    assert out["row"].to_pylist() == want_rows.tolist()
    assert out["poly_id"].to_pylist() == polygons["poly_id"].to_numpy()[want_i].tolist()
    assert out["poly_name"].to_pylist() == [polygons["name"][int(i)].as_py() for i in want_i]
    assert out.schema.field("poly_name").type == pa.string()

    semi = BroadcastSpatialJoin(index=index, mode="semi")(batch)
    assert semi["row"].to_pylist() == sorted(set(want_rows.tolist()))
    anti = BroadcastSpatialJoin(index=index, mode="anti")(batch)
    no_hit = set(np.flatnonzero(ok).tolist()) - set(want_rows.tolist())
    assert anti["row"].to_pylist() == sorted(no_hit)

    empty = BroadcastSpatialJoin(index=index)(batch.slice(0, 0))
    assert empty.num_rows == 0
    assert empty.column_names == ["lon", "lat", "row", "poly_id", "poly_name"]


def _parts(w):
    return [leaf.rings for leaf in from_wkb(w).flatten()]


def test_multipart_probes_equal_per_part_oracle(sets, monkeypatch):
    """points_in_polygons, PreparedGeometry.locate_points and
    cells.polyfill classify every point against all parts of a
    (holed) MultiPolygon in one call; the result equals the per-part
    oracle loop."""
    from simplefeatures_ray.cells import cell_center_lonlat, polyfill
    from simplefeatures_ray.geometry.prepared import PreparedGeometry
    from simplefeatures_ray.geometry.predicates import points_in_polygons

    polygons, (px, py) = sets["multipolygon"]
    seen = set()
    for w in polygons["wkb"].to_pylist():
        parts = _parts(w)
        assert len(parts) >= 2 and any(len(r) > 1 for r in parts)
        want = np.stack([_oracle_classify(px, py, rings) for rings in parts])
        assert np.array_equal(points_in_polygons(px, py, parts), want)
        assert np.array_equal(PreparedGeometry(from_wkb(w)).locate_points(px, py),
                              want.max(axis=0))
        seen.update(want.max(axis=0).tolist())
    assert seen == {-1, 0, 1}
    # point runs of PAIR_CHUNK // parts pairs: 3 points per call here
    monkeypatch.setattr(predicates, "PAIR_CHUNK", 7)
    w = polygons["wkb"][0].as_py()
    parts = _parts(w)
    want = np.stack([_oracle_classify(px[:500], py[:500], rings) for rings in parts])
    assert np.array_equal(points_in_polygons(px[:500], py[:500], parts), want)
    monkeypatch.undo()

    for w in polygons["wkb"].to_pylist()[:6]:
        g = from_wkb(w)
        got = polyfill(g, 11, chunk=1000)
        per_part = np.unique(np.concatenate([polyfill(p, 11) for p in g.flatten()]))
        assert len(got) > 10 and np.array_equal(got, per_part)
        lon, lat = cell_center_lonlat(got)
        inside = np.stack([_oracle_classify(lon, lat, rings) for rings in _parts(w)])
        assert (inside == 1).any(axis=0).all()
