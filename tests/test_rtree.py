"""R-tree tests (reference style: rtree/rtree_test.go, nearest tests)."""
import math

import numpy as np
import pytest

from simplefeatures_ray.rtree import LEAF_CAP, NODE_CAP, STRtree


@pytest.fixture(scope="module")
def random_boxes():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 100, size=(2000, 2))
    sizes = rng.uniform(0.1, 3, size=(2000, 2))
    return np.concatenate([pts, pts + sizes], axis=1)


def brute_range(boxes, q):
    return set(
        np.nonzero(
            (boxes[:, 0] <= q[2])
            & (boxes[:, 2] >= q[0])
            & (boxes[:, 1] <= q[3])
            & (boxes[:, 3] >= q[1])
        )[0].tolist()
    )


def test_empty_tree():
    t = STRtree(np.zeros((0, 4)))
    assert len(t.query_box(0, 0, 1, 1)) == 0
    assert t.nearest(0, 0, 3) == []
    assert t.extent() is None


def test_single_item():
    t = STRtree(np.array([[1, 1, 2, 2]], dtype=float))
    assert t.query_box(0, 0, 3, 3).tolist() == [0]
    assert t.query_box(5, 5, 6, 6).tolist() == []
    assert t.nearest(0, 0, 1)[0][1] == 0
    assert t.extent() == (1, 1, 2, 2)


@pytest.mark.parametrize(
    "q", [(20, 20, 25, 25), (0, 0, 100, 100), (50, 50, 50, 50), (-10, -10, -5, -5)]
)
def test_range_search_matches_brute_force(random_boxes, q):
    t = STRtree(random_boxes)
    assert set(t.query_box(*q).tolist()) == brute_range(random_boxes, q)


def test_query_many_points_matches_brute_force(random_boxes):
    t = STRtree(random_boxes)
    rng = np.random.default_rng(11)
    qp = rng.uniform(-5, 105, size=(500, 2))
    pi, ii = t.query_many_points(qp[:, 0], qp[:, 1])
    got = set(zip(pi.tolist(), ii.tolist()))
    want = set()
    for i, (x, y) in enumerate(qp):
        for j in brute_range(random_boxes, (x, y, x, y)):
            want.add((i, j))
    assert got == want


def test_nearest_matches_brute_force(random_boxes):
    t = STRtree(random_boxes)

    def boxdist(x, y, b):
        dx = max(b[0] - x, 0.0, x - b[2])
        dy = max(b[1] - y, 0.0, y - b[3])
        return float(np.hypot(dx, dy))

    for x, y in [(50, 50), (0, 0), (120, 120), (33.3, 66.6)]:
        got = t.nearest(x, y, k=7)
        want = sorted((boxdist(x, y, b), i) for i, b in enumerate(random_boxes))[:7]
        assert [round(d, 9) for d, _ in got] == [round(d, 9) for d, _ in want]


def test_nearest_refine_callback():
    boxes = np.array([[0, 0, 1, 1], [10, 10, 11, 11]], dtype=float)
    t = STRtree(boxes)
    # refine flips the winner: give item 0 a huge exact distance
    res = t.nearest(0, 0, k=1, refine=lambda i: 100.0 if i == 0 else 1.0)
    assert res[0][1] == 1


def test_deterministic_structure(random_boxes):
    """Same input -> identical packed layout (determinism matters for
    reproducible broadcast joins; cf. reference golden tree tests)."""
    t1 = STRtree(random_boxes)
    t2 = STRtree(random_boxes)
    assert np.array_equal(t1.items, t2.items)
    assert np.array_equal(t1.node_boxes, t2.node_boxes)


def test_pickle_broadcast_friendly(random_boxes):
    import pickle

    t = STRtree(random_boxes)
    t2 = pickle.loads(pickle.dumps(t))
    q = (10, 10, 30, 30)
    assert set(t2.query_box(*q).tolist()) == set(t.query_box(*q).tolist())


def test_knn_large_path_matches_all_pairs():
    """KNNJoin's >VECTOR_BOUND path (MBR-pruned vectorized sweep) must
    be bit-identical to the all-pairs small path, including (dist,
    poly_id) tie order."""
    import pyarrow as pa

    from simplefeatures_ray.geometry.wkb import to_wkb
    from simplefeatures_ray.geometry.wkt import from_wkt
    from simplefeatures_ray.stages.join import KNNJoin, build_polygon_index

    rng = np.random.default_rng(5)
    polys, ids = [], []
    for i in range(700):
        cx, cy = rng.uniform(-50, 50, 2)
        r = rng.uniform(0.5, 3.0)
        nv = int(rng.integers(3, 9))
        ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
        xs = cx + r * np.cos(ang)
        ys = cy + r * np.sin(ang)
        coords = ",".join(
            f"{x} {y}" for x, y in zip(np.append(xs, xs[0]),
                                       np.append(ys, ys[0])))
        polys.append(to_wkb(from_wkt(f"POLYGON(({coords}))")))
        ids.append(i * 3 + 1)
    tbl = pa.table({"poly_id": pa.array(ids, pa.int64()),
                    "wkb": pa.array(polys, pa.binary())})
    index = build_polygon_index(tbl)
    pts = rng.uniform(-60, 60, (800, 2))
    batch = pa.table({"lon": pts[:, 0], "lat": pts[:, 1],
                      "pid": np.arange(800)})
    for k in (1, 3):
        small = KNNJoin(index=index, k=k)
        small.VECTOR_BOUND = 10 ** 9
        large = KNNJoin(index=index, k=k)
        large.VECTOR_BOUND = 0
        a, b = small(batch), large(batch)
        assert a["poly_id"].to_pylist() == b["poly_id"].to_pylist()
        assert a["knn_rank"].to_pylist() == b["knn_rank"].to_pylist()
        assert np.array_equal(a["knn_dist"].to_numpy(),
                              b["knn_dist"].to_numpy())


# --------------------------------------------------------------------------- #
# the loop-free bulk load against the per-chunk builder it replaced
# --------------------------------------------------------------------------- #


def _old_str_chunks(boxes, cap):
    n = len(boxes)
    cx = (boxes[:, 0] + boxes[:, 2]) * 0.5
    cy = (boxes[:, 1] + boxes[:, 3]) * 0.5
    num_leaves = max(1, math.ceil(n / cap))
    s = max(1, math.ceil(math.sqrt(num_leaves)))
    slab_size = s * cap
    by_x = np.argsort(cx, kind="stable")
    chunks = []
    for i in range(0, n, slab_size):
        slab = by_x[i : i + slab_size]
        slab = slab[np.argsort(cy[slab], kind="stable")]
        for j in range(0, len(slab), cap):
            chunks.append(slab[j : j + cap])
    return chunks


def _old_build(boxes):
    """The per-chunk STR builder: one Python min/max per tile."""
    chunks = _old_str_chunks(boxes, LEAF_CAP)
    nb, ns, nc, nl, children, level, pos = [], [], [], [], [], [], 0
    for ch in chunks:
        b = boxes[ch]
        nb.append([b[:, 0].min(), b[:, 1].min(), b[:, 2].max(), b[:, 3].max()])
        ns.append(pos)
        nc.append(len(ch))
        nl.append(True)
        level.append(len(nb) - 1)
        pos += len(ch)
    while len(level) > 1:
        lvl_boxes = np.asarray([nb[i] for i in level])
        new_level = []
        for grp in _old_str_chunks(lvl_boxes, NODE_CAP):
            b = lvl_boxes[grp]
            nb.append([b[:, 0].min(), b[:, 1].min(), b[:, 2].max(), b[:, 3].max()])
            ns.append(len(children))
            nc.append(len(grp))
            nl.append(False)
            children.extend(level[k] for k in grp)
            new_level.append(len(nb) - 1)
        level = new_level
    return {"node_boxes": np.asarray(nb, dtype=np.float64),
            "node_start": np.asarray(ns, dtype=np.int64),
            "node_count": np.asarray(nc, dtype=np.int64),
            "node_leaf": np.asarray(nl, dtype=bool),
            "items": np.concatenate(chunks).astype(np.int64),
            "children": np.asarray(children, dtype=np.int64),
            "root": int(level[0])}


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 257, 16384])
@pytest.mark.parametrize("kind", ["random", "identical", "ties_and_nan"])
def test_bulk_load_matches_per_chunk_builder(n, kind):
    rng = np.random.default_rng(n)
    if kind == "identical":
        boxes = np.tile([1.0, 2.0, 3.0, 4.0], (n, 1))
    else:
        lo = rng.uniform(-100, 100, (n, 2))
        boxes = np.concatenate([lo, lo + rng.uniform(0, 5, (n, 2))], axis=1)
        if kind == "ties_and_nan" and n:
            boxes = boxes.round(0)  # many equal centres: the stable order decides
            boxes[rng.random(n) < 0.05, 0] = np.nan
    t = STRtree(boxes)
    if n == 0:
        assert t.root == -1 and len(t.items) == len(t.node_boxes) == 0
        return
    want = _old_build(boxes)
    for name, arr in want.items():
        got = getattr(t, name)
        if name == "root":
            assert got == arr
        else:
            assert got.dtype == arr.dtype and got.shape == arr.shape, name
            assert np.array_equal(got.view(np.uint8), arr.view(np.uint8)), name
