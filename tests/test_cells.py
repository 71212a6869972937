"""Cell index (Web-Mercator quadtree Morton codes) tests."""
import numpy as np
import pytest

from simplefeatures_ray.cells import (
    cell_bounds_xy,
    cell_center_lonlat,
    cell_children,
    cell_parent,
    cell_res,
    cell_token,
    lonlat_to_cell,
    mercator_xy,
    token_to_cell,
)


def test_mercator_center():
    x, y = mercator_xy(np.array([0.0]), np.array([0.0]))
    assert x[0] == pytest.approx(0.5)
    assert y[0] == pytest.approx(0.5)


def test_res_and_parent():
    lon = np.array([-122.4, 2.35, 151.2])
    lat = np.array([37.77, 48.85, -33.86])
    for res in [0, 1, 5, 12, 20, 30]:
        c = lonlat_to_cell(lon, lat, res)
        assert list(cell_res(c)) == [res] * 3
    c12 = lonlat_to_cell(lon, lat, 12)
    c11 = lonlat_to_cell(lon, lat, 11)
    assert np.array_equal(cell_parent(c12), c11)
    assert np.array_equal(cell_parent(c12, 12), lonlat_to_cell(lon, lat, 0))


def test_children_cover_parent():
    c = lonlat_to_cell(np.array([10.0]), np.array([20.0]), 8)[0]
    kids = cell_children(c)
    assert len(set(kids)) == 4
    assert all(cell_parent(np.array([k], dtype=np.uint64))[0] == c for k in kids)


def test_bounds_contain_point():
    lon = np.array([-122.4194, 2.3522, 151.2093])
    lat = np.array([37.7749, 48.8566, -33.8688])
    c = lonlat_to_cell(lon, lat, 15)
    x, y = mercator_xy(lon, lat)
    x0, y0, x1, y1 = cell_bounds_xy(c)
    assert np.all((x >= x0) & (x < x1))
    assert np.all((y >= y0) & (y < y1))


def test_center_round_trip():
    lon = np.linspace(-179, 179, 37)
    lat = np.linspace(-80, 80, 37)
    c = lonlat_to_cell(lon, lat, 14)
    clon, clat = cell_center_lonlat(c)
    c2 = lonlat_to_cell(clon, clat, 14)
    assert np.array_equal(c, c2)


def test_tokens():
    c = lonlat_to_cell(np.array([5.0]), np.array([5.0]), 10)[0]
    assert token_to_cell(cell_token(c)) == int(c)


def test_determinism_and_locality():
    # nearby points at high res share a low-res ancestor
    lon = np.array([2.3522, 2.3525])
    lat = np.array([48.8566, 48.8568])
    c = lonlat_to_cell(lon, lat, 10)
    assert c[0] == c[1]
    far = lonlat_to_cell(np.array([100.0]), np.array([-40.0]), 10)
    assert far[0] != c[0]


# ---------------------------------------------------------------- new ops


def _grid(res):
    from simplefeatures_ray.cells import cell_from_xy

    n = 1 << res
    ix, iy = np.meshgrid(np.arange(n), np.arange(n))
    return cell_from_xy(ix.ravel().astype(np.uint64), iy.ravel().astype(np.uint64), res)


def test_cell_xy_roundtrip():
    from simplefeatures_ray.cells import cell_from_xy, cell_xy

    rng = np.random.default_rng(3)
    for res in (0, 1, 6, 15, 30):
        n = 1 << res
        ix = rng.integers(0, n, size=50).astype(np.uint64)
        iy = rng.integers(0, n, size=50).astype(np.uint64)
        c = cell_from_xy(ix, iy, res)
        r2, x2, y2 = cell_xy(c)
        assert np.all(r2 == res)
        assert np.array_equal(x2, ix)
        assert np.array_equal(y2, iy)


def test_k_ring_interior_and_wrap():
    from simplefeatures_ray.cells import cell_from_xy, cell_xy, k_ring

    res = 5
    n = 1 << res
    # interior cell: full (2k+1)^2 disk, Chebyshev-bounded
    c = cell_from_xy(np.array([7]), np.array([9]), res)
    idx, ring = k_ring(c, 2)
    assert len(ring) == 25 and len(np.unique(ring)) == 25
    _, rx, ry = cell_xy(ring)
    assert np.all(np.maximum(np.abs(rx.astype(int) - 7), np.abs(ry.astype(int) - 9)) <= 2)
    # x wraps around the antimeridian; y clamps at the top edge
    c = cell_from_xy(np.array([0]), np.array([0]), res)
    idx, ring = k_ring(c, 1)
    _, rx, ry = cell_xy(ring)
    assert n - 1 in rx.tolist()  # wrapped column
    assert len(ring) == 6  # 3x3 minus the 3 cells above the top row
    assert np.all(ry.astype(int) >= 0)


def test_k_ring_batch_index():
    from simplefeatures_ray.cells import cell_from_xy, k_ring

    res = 4
    c = cell_from_xy(np.array([3, 8, 12]), np.array([5, 5, 2]), res)
    idx, ring = k_ring(c, 1)
    assert set(idx.tolist()) == {0, 1, 2}
    assert np.all(np.bincount(idx) == 9)


def test_compact_uncompact_roundtrip():
    from simplefeatures_ray.cells import cell_res, compact, uncompact

    rng = np.random.default_rng(11)
    res = 6
    full = _grid(res)
    for frac in (0.2, 0.8, 1.0):
        sub = rng.choice(full, size=int(len(full) * frac), replace=False)
        comp = compact(sub)
        back = uncompact(comp, res)
        assert np.array_equal(back, np.sort(np.unique(sub)))
        # compactness: no complete quartet survives at res
        at_res = comp[cell_res(comp) == res]
        par, cnt = np.unique(at_res >> np.uint64(2), return_counts=True)
        assert np.all(cnt < 4)
    # the full grid compacts to the single root cell
    comp = compact(full)
    assert len(comp) == 1 and cell_res(comp)[0] == 0


def test_compact_mixed_res_rejected():
    from simplefeatures_ray.cells import cell_from_xy, compact, uncompact

    mixed = np.concatenate(
        [cell_from_xy(np.array([0]), np.array([0]), 3),
         cell_from_xy(np.array([0]), np.array([0]), 4)]
    )
    with pytest.raises(ValueError):
        compact(mixed)
    with pytest.raises(ValueError):
        uncompact(cell_from_xy(np.array([0]), np.array([0]), 4), 3)


def test_polyfill_matches_brute_force():
    from simplefeatures_ray.cells import cell_center_lonlat, polyfill
    from simplefeatures_ray.geometry.core import (MULTIPOLYGON, POLYGON,
                                                  Geometry)

    res = 6
    allc = _grid(res)
    lon, lat = cell_center_lonlat(allc)

    ring = np.array([[-50.0, -20.0], [40.0, -20.0], [40.0, 30.0],
                     [-50.0, 30.0], [-50.0, -20.0]])
    g = Geometry(POLYGON, rings=[ring])
    got = polyfill(g, res)
    want = np.sort(allc[(lon > -50) & (lon < 40) & (lat > -20) & (lat < 30)])
    assert np.array_equal(got, want)

    # polygon with a hole: annulus keeps the rim, drops the middle
    hole = np.array([[-20.0, -5.0], [10.0, -5.0], [10.0, 15.0],
                     [-20.0, 15.0], [-20.0, -5.0]])
    g2 = Geometry(POLYGON, rings=[ring, hole])
    got2 = polyfill(g2, res)
    inside_hole = (lon > -20) & (lon < 10) & (lat > -5) & (lat < 15)
    want2 = np.sort(allc[(lon > -50) & (lon < 40) & (lat > -20) & (lat < 30)
                         & ~inside_hole])
    assert np.array_equal(got2, want2)

    # multipolygon unions element coverages
    ring_b = np.array([[100.0, -40.0], [140.0, -40.0], [140.0, -10.0],
                       [100.0, -40.0]])
    mp = Geometry(
        MULTIPOLYGON,
        geoms=[Geometry(POLYGON, rings=[ring]), Geometry(POLYGON, rings=[ring_b])],
    )
    got3 = polyfill(mp, res)
    assert set(got.tolist()) <= set(got3.tolist())
    assert len(got3) > len(got)
    # chunked scan is identical to the one-shot scan
    got4 = polyfill(mp, res, chunk=37)
    assert np.array_equal(got3, got4)


def test_polyfill_empty_and_offgrid():
    from simplefeatures_ray.cells import polyfill
    from simplefeatures_ray.geometry.core import POLYGON, Geometry

    # tiny sliver between centers -> no covered cells
    ring = np.array([[0.01, 0.01], [0.02, 0.01], [0.02, 0.02], [0.01, 0.01]])
    g = Geometry(POLYGON, rings=[ring])
    assert len(polyfill(g, 4)) == 0
    with pytest.raises(ValueError):
        polyfill(Geometry(1, coords=np.array([0.0, 0.0])), 4)


def test_encode_cells_nan_rows_get_null_cells():
    import pyarrow as pa

    from simplefeatures_ray.stages.tiling import encode_cells

    rng = np.random.default_rng(5)
    lon = rng.uniform(-180, 180, 500)
    lat = rng.uniform(-80, 80, 500)
    lon[::7] = np.nan
    lat[3::11] = np.nan
    bad = np.isnan(lon) | np.isnan(lat)
    out = encode_cells(12)(pa.table({"lon": lon, "lat": lat}))
    cell = out["cell"]
    assert cell.type == pa.uint64()
    assert np.array_equal(np.asarray(cell.is_null()), bad)
    got = np.asarray(cell.drop_null(), dtype=np.uint64)
    assert np.array_equal(got, lonlat_to_cell(lon[~bad], lat[~bad], 12))
    # an all-valid batch carries no nulls
    ok = encode_cells(12)(pa.table({"lon": lon[~bad], "lat": lat[~bad]}))
    assert ok["cell"].null_count == 0
    assert np.array_equal(np.asarray(ok["cell"], dtype=np.uint64), got)


@pytest.mark.parametrize("res", [0, 3, 12, 30])
def test_edge_coordinates_stay_at_their_resolution(res):
    """Latitudes at or past the Mercator clamp and longitudes at or past
    the antimeridian give an index just below 0 or at the edge; it is
    clamped in float, so no negative index wraps in the uint64 cast."""
    lon = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 180.0, -180.0, -181.0, 181.0])
    lat = np.array([86.0, -86.0, 90.0, -90.0, 85.0511, 0.0, 0.0, 0.0, 0.0])
    cells = lonlat_to_cell(lon, lat, res)
    assert (cell_res(cells) == res).all()
    # the clamped rows sit in the edge rows/columns of the grid
    x0, y0, x1, y1 = cell_bounds_xy(cells)
    assert y0[2] == 0.0 and y1[3] == 1.0
    assert x1[5] == 1.0 and x0[7] == 0.0 and x1[8] == 1.0


@pytest.mark.parametrize("lon, lat", [(np.nan, 7.0), (5.0, np.nan), (np.nan, np.nan)])
def test_nan_coordinate_lies_in_no_cell(lon, lat):
    """A NaN lon or lat raises instead of landing in cell index 0."""
    with pytest.raises(ValueError, match="NaN"):
        lonlat_to_cell(np.array([5.0, lon]), np.array([7.0, lat]), 3)
