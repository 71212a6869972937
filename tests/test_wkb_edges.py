"""The columnar WKB polygon reader against the per-polygon path it replaced.

geometry/wkb.polygon_edges decodes a whole Arrow column of polygonal WKB
into the join's flat edge table. The expected value below is the old
path: decode each row with from_wkb, collect the rings of every part
(shell first) and build the table with a copy of the old flat_edges.
polygon_edges, and the library's flat_edges over the same ring lists,
must both equal it bit for bit, on every byte order, coordinate stride
and container shape; a row the reader cannot decode must raise
GeometryError naming it, whatever bytes follow it in the buffer.
"""
from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa
import pytest

from simplefeatures_ray.geometry import wkb as wkb_mod
from simplefeatures_ray.geometry.core import (
    GEOMETRYCOLLECTION, LINESTRING, MULTIPOLYGON, POINT, POLYGON, Geometry, GeometryError)
from simplefeatures_ray.geometry.predicates import flat_edges, pair_parity_on
from simplefeatures_ray.geometry.wkb import from_wkb, polygon_edges, to_wkb
from simplefeatures_ray.sources.polygons import make_polygons


def _old_flat_edges(ring_sets):
    rings = [r for rs in ring_sets for r in rs]
    poly_ring_off = np.zeros(len(ring_sets) + 1, dtype=np.int64)
    np.cumsum([len(rs) for rs in ring_sets], out=poly_ring_off[1:])
    lens = np.fromiter((len(r) for r in rings), dtype=np.int64, count=len(rings))
    ring_edge_off = np.zeros(len(rings) + 1, dtype=np.int64)
    np.cumsum(np.maximum(lens - 1, 0), out=ring_edge_off[1:])
    if not lens.sum():
        empty = np.zeros(0, dtype=np.float64)
        return empty, empty, empty, empty, ring_edge_off, poly_ring_off
    v = np.concatenate([r[:, :2] for r in rings if len(r)])
    starts = np.ones(len(v), dtype=bool)
    starts[np.cumsum(lens[lens > 0]) - 1] = False
    e = np.flatnonzero(starts)
    return v[e, 0], v[e, 1], v[e + 1, 0], v[e + 1, 1], ring_edge_off, poly_ring_off


def _ring_sets(wkbs) -> list:
    return [[r for leaf in from_wkb(w).flatten() for r in leaf.rings] for w in wkbs.to_pylist()]


def _old_edges(wkbs) -> tuple:
    """The per-polygon path: from_wkb, every part's rings, flat_edges."""
    return _old_flat_edges(_ring_sets(wkbs))


def _assert_bit_equal(got, want):
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g.view(np.uint8), w.view(np.uint8))


def _enc(g: Geometry, bo: str = "<", part_bo=()) -> bytes:
    """WKB of `g` in byte order `bo` ('<' or '>'); a container's part i is
    written in part_bo[i] when given, else in `bo`."""
    out = bytearray([1 if bo == "<" else 0])
    out += struct.pack(bo + "I", g.tag + 1000 * g.ctype)
    if g.tag == POINT:
        return bytes(out + np.asarray(g.coords, dtype=bo + "f8").tobytes())
    if g.tag == LINESTRING:
        out += struct.pack(bo + "I", len(g.coords))
        return bytes(out + np.asarray(g.coords, dtype=bo + "f8").tobytes())
    if g.tag == POLYGON:
        out += struct.pack(bo + "I", len(g.rings))
        for r in g.rings:
            out += struct.pack(bo + "I", len(r)) + np.asarray(r, dtype=bo + "f8").tobytes()
        return bytes(out)
    out += struct.pack(bo + "I", len(g.geoms))
    for i, p in enumerate(g.geoms):
        out += _enc(p, part_bo[i] if i < len(part_bo) else bo)
    return bytes(out)


def _ring(rng, n=6, dim=2, cx=0.0, cy=0.0, r=1.0):
    ang = np.sort(rng.uniform(0, 2 * np.pi, n - 1))
    xy = np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)
    xy = np.concatenate([xy, xy[:1]])
    extra = rng.uniform(-5, 5, (n, dim - 2))
    return np.concatenate([xy, extra], axis=1)


def _poly(rng, holes=0, ctype=0):
    dim = 2 + (ctype & 1) + (ctype >> 1 & 1)
    cx, cy = rng.uniform(-50, 50, 2)
    rings = [_ring(rng, int(rng.integers(4, 12)), dim, cx, cy, 3.0)]
    rings += [_ring(rng, int(rng.integers(4, 8)), dim, cx, cy, 0.5)[::-1].copy()
              for _ in range(holes)]
    return Geometry(POLYGON, ctype, rings=rings)


def _multi(rng, parts=3, ctype=0):
    return Geometry(MULTIPOLYGON, ctype,
                    geoms=[_poly(rng, holes=k % 2 + 1, ctype=ctype) for k in range(parts)])


def _arr(blobs) -> pa.Array:
    return pa.array(blobs, pa.binary())


# --------------------------------------------------------------------------- #
# equality with the per-polygon path
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("n", [64, 16384])
def test_make_polygons(n):
    col = make_polygons(n)["wkb"]
    _assert_bit_equal(polygon_edges(col), _old_edges(col))


def _cases():
    rng = np.random.default_rng(20)
    holes = [_enc(_poly(rng, holes=k % 3)) for k in range(20)]
    multis = [_enc(_multi(rng, parts=2 + k % 3)) for k in range(10)]
    dims = [_enc(_poly(rng, holes=1, ctype=c)) for c in (0, 1, 2, 3) for _ in range(3)]
    dims += [_enc(_multi(rng, ctype=c)) for c in (1, 2, 3)]
    big = [_enc(_poly(rng, holes=1, ctype=c), ">") for c in (0, 1, 2, 3)]
    big += [_enc(_multi(rng, 3), ">")]
    mixed = [_enc(_poly(rng, holes=k % 2), "<>"[k % 2]) for k in range(8)]
    mixed += [_enc(_multi(rng, 3), "<", part_bo=">"), _enc(_multi(rng, 3), ">", part_bo="<><"),
              _enc(_multi(rng, 2, ctype=3), ">", part_bo="<>")]
    # bit patterns a float conversion would alter or canonicalise
    odd = _poly(rng, holes=1)
    odd.rings[0][1, 0] = -0.0
    odd.rings[0][2, 1] = np.frombuffer(struct.pack("<Q", 0x7FF0000000000123), "<f8")[0]
    odd.rings[1][1, 0] = np.inf
    special = [_enc(odd, "<"), _enc(odd, ">")]
    gc = Geometry(GEOMETRYCOLLECTION, 0, geoms=[
        _poly(rng, holes=1), _multi(rng, 2),
        Geometry(GEOMETRYCOLLECTION, 0, geoms=[_poly(rng), _multi(rng, 2)])])
    collections = [_enc(gc), _enc(gc, ">", part_bo="<><"),
                   _enc(Geometry(GEOMETRYCOLLECTION, 0, geoms=[]))]
    empties = [
        _enc(Geometry(POLYGON, 0, rings=[])),  # POLYGON EMPTY
        _enc(Geometry(MULTIPOLYGON, 0, geoms=[])),
        _enc(Geometry(POLYGON, 0, rings=[np.zeros((1, 2))])),  # a 1-point ring
        _enc(Geometry(POLYGON, 0, rings=[np.zeros((0, 2)), _ring(rng)])),  # a 0-point ring
        _enc(Geometry(POLYGON, 1, rings=[np.ones((1, 3))]), ">"),
        _enc(Geometry(MULTIPOLYGON, 0, geoms=[Geometry(POLYGON, 0, rings=[]), _poly(rng)])),
    ]
    return {"holes": holes, "multipolygons": multis, "xy_z_m_zm": dims, "big_endian": big,
            "mixed_endian": mixed, "special_floats": special, "collections": collections,
            "empty_and_short": empties,
            "everything": holes + multis + dims + big + mixed + special + collections + empties}


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_per_polygon_path(name):
    col = _arr(CASES[name])
    want = _old_edges(col)
    _assert_bit_equal(polygon_edges(col), want)
    _assert_bit_equal(flat_edges(_ring_sets(col)), want)


def test_sliced_chunked_large_and_empty_arrays():
    col = _arr(CASES["everything"])
    want = _old_edges(col)
    sliced = col.slice(7, 30)
    assert sliced.offset == 7
    _assert_bit_equal(polygon_edges(sliced), _old_edges(sliced))
    chunked = pa.chunked_array([col.slice(0, 11), col.slice(11, 5), col.slice(16)])
    _assert_bit_equal(polygon_edges(chunked), want)
    _assert_bit_equal(polygon_edges(col.cast(pa.large_binary())), want)
    _assert_bit_equal(polygon_edges(pa.table({"w": col})["w"]), want)
    for empty in (_arr([]), col.slice(3, 0), pa.chunked_array([], pa.binary())):
        got = polygon_edges(empty)
        assert [len(c) for c in got] == [0, 0, 0, 0, 1, 1]


def test_offsets_and_counts_of_a_known_row():
    shell = np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], dtype=np.float64)
    hole = np.array([[1, 1], [1, 2], [2, 2], [1, 1]], dtype=np.float64)
    g = Geometry(MULTIPOLYGON, 0, geoms=[Geometry(POLYGON, 0, rings=[shell, hole]),
                                         Geometry(POLYGON, 0, rings=[shell + 10])])
    x1, y1, x2, y2, ring_off, poly_off = polygon_edges(_arr([to_wkb(g), _enc(g, ">")]))
    assert ring_off.tolist() == [0, 4, 7, 11, 15, 18, 22]
    assert poly_off.tolist() == [0, 3, 6]
    assert x1[:4].tolist() == [0, 4, 4, 0] and y2[:4].tolist() == [0, 4, 4, 0]
    assert x1[7:11].tolist() == [10, 14, 14, 10]
    assert np.array_equal(x1[:11], x1[11:]) and np.array_equal(y2[:11], y2[11:])


# --------------------------------------------------------------------------- #
# rows the reader must refuse
# --------------------------------------------------------------------------- #

_GOOD = to_wkb(Geometry(POLYGON, 0, rings=[np.array([[0, 0], [1, 0], [1, 1], [0, 0]], float)]))
_POINT = Geometry(POINT, 0, coords=np.array([1.0, 2.0]))


def _bad_rows():
    multi = _enc(Geometry(MULTIPOLYGON, 0, geoms=[
        Geometry(POLYGON, 0, rings=[np.zeros((4, 2))])]))
    wrong_multi = bytearray(multi)
    wrong_multi[9:] = _enc(_POINT)  # the part is a Point
    return {
        "byte_order": bytes([2]) + _GOOD[1:],
        "point": _enc(_POINT),
        "linestring": _enc(Geometry(LINESTRING, 0, coords=np.zeros((3, 2)))),
        "unknown_type": _GOOD[:1] + struct.pack("<I", 4003) + _GOOD[5:],
        "multi_element_type": bytes(wrong_multi),
        "multi_element_collection": _enc(Geometry(MULTIPOLYGON, 0, geoms=[
            Geometry(GEOMETRYCOLLECTION, 0, geoms=[])])),
        "point_in_collection": _enc(Geometry(GEOMETRYCOLLECTION, 0, geoms=[_POINT])),
        "empty_row": b"",
        "in_header": _GOOD[:7],
        "in_ring_count": _GOOD[:11],
        "in_coordinates": _GOOD[:-3],
        "missing_ring": _GOOD[:5] + struct.pack("<I", 2) + _GOOD[9:],
        "missing_part": multi[:5] + struct.pack("<I", 2) + multi[9:],
        "huge_count": _GOOD[:9] + struct.pack("<I", 0xFFFFFFFF) + _GOOD[13:],
    }


@pytest.mark.parametrize("case", sorted(_bad_rows()))
def test_bad_row_raises_naming_it(case):
    # between good rows a read past the bad row's end would find valid
    # bytes; as the last row, it would run off the data buffer
    bad = _bad_rows()[case]
    for rows in ([_GOOD, _GOOD, bad, _GOOD, _GOOD], [_GOOD, _GOOD, bad]):
        with pytest.raises(GeometryError, match=r"WKB row 2\b"):
            polygon_edges(_arr(rows))


# --------------------------------------------------------------------------- #
# the join decodes no polygon one at a time
# --------------------------------------------------------------------------- #


class _Capture:
    """Stands in for a Dataset: keeps the function of its last map_batches."""

    def map_batches(self, fn, **kwargs):
        self.fn = fn
        return self


def test_join_never_decodes_per_polygon(monkeypatch):
    from simplefeatures_ray.functions import relational
    from simplefeatures_ray.stages import join

    def refuse(*args, **kwargs):
        raise AssertionError("a polygon was decoded one at a time")

    monkeypatch.setattr(wkb_mod, "from_wkb", refuse)
    monkeypatch.setattr(wkb_mod, "_read_geometry", refuse)

    polygons = make_polygons(300)
    index = join.build_polygon_index(polygons)
    assert len(index.poly_ids) == 300 and len(index.tree) == 300

    joined = _Capture()
    monkeypatch.setattr(relational, "bucketed_join", lambda *a, **k: joined)
    join.cell_polygon_join(_Capture(), _Capture(), cell_size=1.0)
    rng = np.random.default_rng(4)
    pick = rng.integers(0, 300, 2000)
    box = [np.asarray(polygons[c])[pick] for c in ("minx", "miny", "maxx", "maxy")]
    px = rng.uniform(box[0], box[2])
    py = rng.uniform(box[1], box[3])
    batch = pa.table({"x": px, "y": py, "poly_id": polygons["poly_id"].take(pick),
                      "wkb": polygons["wkb"].take(pick), "__cell": np.zeros(2000, np.int64)})
    out = joined.fn(batch)

    parity, on = pair_parity_on(px, py, np.arange(2000), pick, index.edges,
                                index.poly_edge_off())
    hit = parity | on
    assert 0 < hit.sum() < 2000
    assert out.column_names == ["x", "y", "poly_id"]
    assert out["x"].to_pylist() == px[hit].tolist()
    assert out["poly_id"].to_pylist() == pick[hit].tolist()


def test_boxes_without_envelope_columns_are_edge_extents():
    """Without minx/miny/maxx/maxy the index boxes are the polygons' edge
    extents; a polygon without edges gets an empty box and never matches."""
    from simplefeatures_ray.stages.join import BroadcastSpatialJoin, build_polygon_index

    polygons = make_polygons(300)
    env = np.stack([np.asarray(polygons[c]) for c in ("minx", "miny", "maxx", "maxy")], 1)
    empty = _enc(Geometry(POLYGON, 0, rings=[]))
    t = pa.table({"poly_id": pa.array(list(range(300)) + [999], pa.int64()),
                  "wkb": pa.array(polygons["wkb"].to_pylist() + [empty], pa.binary())})
    index = build_polygon_index(t)
    assert np.array_equal(index.tree.boxes[:300], env)
    assert index.tree.boxes[300].tolist() == [np.inf, np.inf, -np.inf, -np.inf]
    px = (env[:, 0] + env[:, 2]) / 2
    py = (env[:, 1] + env[:, 3]) / 2
    with_env = BroadcastSpatialJoin(build_polygon_index(polygons))
    without = BroadcastSpatialJoin(index)
    batch = pa.table({"lon": px, "lat": py})
    assert without(batch)["poly_id"].to_pylist() == with_env(batch)["poly_id"].to_pylist()
