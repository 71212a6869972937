"""Broadcast spatial join: pages (points) x polygons (broadcast R-tree).

The big side streams through map_batches; the small polygon side is
packed on the driver into a flat PolygonIndex (build_polygon_index): an
STRtree over the polygon boxes plus one flat edge table (four contiguous
float64 edge arrays with ring->edge and polygon->ring offsets), poly_ids
and the names as an Arrow string array, built with no per-polygon Python
(geometry/wkb polygon_edges). It is `ray.put` ONCE and fetched
once per worker process by the task functions (spatial_join_batch,
knn_join_batch) through stages/worker_cache, which also caches the
kernel built from it — never per batch. Candidate generation is the
vectorized R-tree descent; refinement is one flat array pass over all
(point, polygon) candidates of a batch (geometry/predicates
pair_parity_on: crossing-number parity + on-edge test per (point, edge)
row, reference alg_point_in_ring.go semantics). This is the engine's
analog of the reference's PreparedGeometry reused against many probes
(alg_prepared.go:17-92).

Modes:
  inner — one output row per (point, polygon) hit, poly_id attached
  semi  — points with >= 1 hit, single row, lowest poly_id attached
  anti  — points with no hit
"""
from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
import pyarrow as pa

from ..geometry.predicates import pair_parity_on
from ..geometry.wkb import polygon_edges
from ..rtree import STRtree


class PolygonIndex(NamedTuple):
    """The broadcast side of the join (build_polygon_index output).

    Polygon j's rings are poly_ring_off[j]:poly_ring_off[j + 1]; ring r's
    edges are ring_edge_off[r]:ring_edge_off[r + 1] of x1/y1/x2/y2.
    """

    tree: STRtree
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    ring_edge_off: np.ndarray
    poly_ring_off: np.ndarray
    poly_ids: np.ndarray
    names: Optional[pa.Array]

    @property
    def edges(self):
        return self.x1, self.y1, self.x2, self.y2

    def poly_edge_off(self) -> np.ndarray:
        """Polygon j's edges are poly_edge_off[j]:poly_edge_off[j + 1]."""
        return self.ring_edge_off[self.poly_ring_off]


def build_polygon_index(polygons: pa.Table) -> PolygonIndex:
    """Driver-side: polygon table -> PolygonIndex.

    One columnar pass decodes the WKB column (geometry/wkb polygon_edges).
    Boxes: the envelope columns, else each polygon's edge extent (empty for
    a polygon without edges). Plain arrays, cheap to ray.put."""
    edges = polygon_edges(polygons["wkb"])
    poly_ids = np.asarray(polygons["poly_id"], dtype=np.int64)
    names = (polygons["name"].combine_chunks().cast(pa.string())
             if "name" in polygons.column_names else None)
    env = ("minx", "miny", "maxx", "maxy")
    if all(c in polygons.column_names for c in env):
        boxes = np.stack([np.asarray(polygons[c], dtype=np.float64) for c in env], axis=1)
    else:
        x1, y1, x2, y2, ring_edge_off, poly_ring_off = edges
        off = ring_edge_off[poly_ring_off[:-1]]
        at = off + np.arange(len(off))  # each polygon's run opens with +-inf
        lo = np.insert(np.stack([np.minimum(x1, x2), np.minimum(y1, y2)], 1), off, np.inf, 0)
        hi = np.insert(np.stack([np.maximum(x1, x2), np.maximum(y1, y2)], 1), off, -np.inf, 0)
        boxes = np.hstack([np.minimum.reduceat(lo, at), np.maximum.reduceat(hi, at)])
    return PolygonIndex(STRtree(boxes), *edges, poly_ids, names)


class BroadcastSpatialJoin:
    """Batch kernel for the pages x polygons join.

    index: build_polygon_index(...) output.
    x_col/y_col: names of the lon/lat (or x/y) columns in the batch;
    rows with a NaN coordinate never match.
    """

    def __init__(self, index: PolygonIndex, mode: str = "inner", x_col: str = "lon",
                 y_col: str = "lat"):
        self.tree = index.tree
        self.edges = index.edges
        self.poly_edge_off = index.poly_edge_off()
        self.poly_ids = index.poly_ids
        self.names = index.names
        self.mode = mode
        self.x_col = x_col
        self.y_col = y_col

    def match(self, px: np.ndarray, py: np.ndarray):
        """Return (pt_idx, poly_pos) exact-hit pairs, sorted by (pt, poly_id)."""
        cand_p, cand_i = self.tree.query_many_points(px, py)
        parity, on = pair_parity_on(px, py, cand_p, cand_i, self.edges, self.poly_edge_off)
        hit = parity | on  # interior or boundary intersects
        kp, ki = cand_p[hit], cand_i[hit]
        # deterministic output order: by (point, poly_id, polygon position)
        order = np.lexsort((ki, self.poly_ids[ki], kp))
        return kp[order], ki[order]

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = np.asarray(batch[self.x_col], dtype=np.float64)
        py = np.asarray(batch[self.y_col], dtype=np.float64)
        valid = ~(np.isnan(px) | np.isnan(py))
        vidx = np.flatnonzero(valid)
        kp, ki = self.match(px[vidx], py[vidx])
        kp = vidx[kp] if len(kp) else kp
        if self.mode == "inner":
            out = batch.take(pa.array(kp))
            out = out.append_column("poly_id", pa.array(self.poly_ids[ki], pa.int64()))
            if self.names is not None:
                out = out.append_column("poly_name", self.names.take(pa.array(ki)))
            return out
        hit_mask = np.zeros(len(px), dtype=bool)
        hit_mask[kp] = True
        if self.mode == "anti":
            return batch.filter(pa.array(valid & ~hit_mask))
        if self.mode == "semi":
            # lowest poly_id per point (kp sorted by (pt, poly_id) already)
            first = np.zeros(len(kp), dtype=bool)
            if len(kp):
                first[0] = True
                first[1:] = kp[1:] != kp[:-1]
            sel = kp[first]
            out = batch.take(pa.array(sel))
            return out.append_column("poly_id", pa.array(self.poly_ids[ki[first]], pa.int64()))
        raise ValueError(f"unknown join mode {self.mode!r}")


class KNNJoin:
    """k nearest polygons per point (the reference's nearest-neighbour
    query, rtree/nearest.go:12-55, recast as batch kernels), exact
    point-to-polygon distance; 0 inside. flat_map-style: k rows per
    point. Ties broken by lowest poly_id (engine-defined total order).
    Segments and the inside test both read the index's flat edge table."""

    # polygon counts up to this bound use the fully vectorized
    # all-pairs distance matrix; larger sets use the MBR-lower-bound
    # pruned sweep (_knn_large) — both loop-free over points
    VECTOR_BOUND = 512

    def __init__(self, index: PolygonIndex, k: int = 1, x_col: str = "lon",
                 y_col: str = "lat"):
        self.tree = index.tree
        self.edges = index.edges
        self.poly_edge_off = index.poly_edge_off()
        self.poly_ids = index.poly_ids
        self.k = k
        self.x_col = x_col
        self.y_col = y_col

    def _poly_dist_vec(self, px: np.ndarray, py: np.ndarray, j: int) -> np.ndarray:
        """Exact point-to-polygon-j distances for a point VECTOR (0 when
        inside); one vectorized segment sweep, no per-point Python."""
        s, e = self.poly_edge_off[j], self.poly_edge_off[j + 1]
        if s == e:
            return np.full(len(px), np.inf)
        x1, y1, x2, y2 = (c[s:e] for c in self.edges)
        a = np.stack([x1, y1], axis=1)
        d = np.stack([x2, y2], axis=1) - a
        dd = (d * d).sum(axis=1)
        dd[dd == 0] = 1.0
        pts = np.stack([px, py], axis=1)
        ap = pts[:, None, :] - a[None, :, :]
        t = np.clip((ap * d[None, :, :]).sum(axis=2) / dd[None, :], 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
        diff = pts[:, None, :] - proj
        dist = np.sqrt(diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2).min(axis=1)
        parity, on = pair_parity_on(px, py, np.arange(len(px)), np.full(len(px), j),
                                    self.edges, self.poly_edge_off)
        dist[parity | on] = 0.0
        return dist

    def _dist_matrix(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """(n_points, n_polys) exact distances, vectorized per polygon."""
        n = len(px)
        out = np.empty((n, len(self.poly_ids)), dtype=np.float64)
        for j in range(len(self.poly_ids)):
            out[:, j] = self._poly_dist_vec(px, py, j)
        return out

    TILE = 2048

    def _knn_large(self, x: np.ndarray, y: np.ndarray, kk: int):
        """Large-corpus path: the batch is SPATIALLY TILED (sorted by a
        coarse grid key, processed in runs of TILE points) and each
        tile runs the MBR-pruned polygon sweep. The tiling is what
        makes the prune bite: a tile's bounding box is small, so once
        its points hold k nearby candidates, the tile-bbox-to-polygon
        lower bound eliminates the rest of the corpus in O(1) per
        polygon. Deterministic: results are per-point and
        order-independent."""
        n = len(x)
        best_d = np.full((n, kk), np.inf)
        best_p = np.full((n, kk), np.iinfo(np.int64).max, dtype=np.int64)
        best_pos = np.full((n, kk), -1, dtype=np.int64)
        if n == 0:
            return best_d, best_p, best_pos
        span = max(x.max() - x.min(), y.max() - y.min(), 1e-9)
        cell = span / 16.0
        gx = np.floor((x - x.min()) / cell).astype(np.int64)
        gy = np.floor((y - y.min()) / cell).astype(np.int64)
        order_pts = np.lexsort((y, x, gy, gx))
        for s in range(0, n, self.TILE):
            sel = order_pts[s:s + self.TILE]
            d_, p_, pos_ = self._knn_tile(x[sel], y[sel], kk)
            best_d[sel] = d_
            best_p[sel] = p_
            best_pos[sel] = pos_
        return best_d, best_p, best_pos

    def _knn_tile(self, x: np.ndarray, y: np.ndarray, kk: int):
        """One tile's MBR-lower-bound pruned polygon sweep,
        nearest-box-first from the tile median, maintaining each
        point's running top-k by a vectorized insertion (kk is small).
        Replaces the old per-point tree-heap Python loop — all work is
        numpy over point vectors; the only Python loop is over POLYGONS
        that survive the box-bound prunes against the current kth-best."""
        n = len(x)
        boxes = self.tree.boxes
        best_d = np.full((n, kk), np.inf)
        best_p = np.full((n, kk), np.iinfo(np.int64).max, dtype=np.int64)
        best_pos = np.full((n, kk), -1, dtype=np.int64)
        if n == 0:
            return best_d, best_p, best_pos
        cx, cy = float(np.median(x)), float(np.median(y))
        ox = np.maximum(0.0, np.maximum(boxes[:, 0] - cx, cx - boxes[:, 2]))
        oy = np.maximum(0.0, np.maximum(boxes[:, 1] - cy, cy - boxes[:, 3]))
        order = np.argsort(np.hypot(ox, oy), kind="stable")
        bx0, by0, bx1, by1 = x.min(), y.min(), x.max(), y.max()
        max_kth = np.inf
        dirty = False
        for j in order:
            # O(1) tile-level skip: polygon-box to tile-bbox distance vs
            # the WORST kth-best in the tile (recomputed lazily; it only
            # tightens when insertions happen)
            bb = np.hypot(
                max(0.0, max(boxes[j, 0] - bx1, bx0 - boxes[j, 2])),
                max(0.0, max(boxes[j, 1] - by1, by0 - boxes[j, 3])))
            if bb > max_kth:
                continue
            if dirty:
                max_kth = float(best_d[:, kk - 1].max())
                dirty = False
                if bb > max_kth:
                    continue
            lbx = np.maximum(0.0, np.maximum(boxes[j, 0] - x, x - boxes[j, 2]))
            lby = np.maximum(0.0, np.maximum(boxes[j, 1] - y, y - boxes[j, 3]))
            lb = np.hypot(lbx, lby)
            # <= : a candidate tying the kth distance can still win on
            # poly_id (the engine's (dist, poly_id) total order)
            live = np.flatnonzero(lb <= best_d[:, kk - 1])
            if len(live) == 0:
                continue
            d = self._poly_dist_vec(x[live], y[live], j)
            pid = int(self.poly_ids[j])
            bd, bp = best_d[live], best_p[live]
            pos = ((bd < d[:, None])
                   | ((bd == d[:, None]) & (bp < pid))).sum(axis=1)
            ins = pos < kk
            if not ins.any():
                continue
            ii, pp, dd2 = live[ins], pos[ins], d[ins]
            for col in range(kk - 1, 0, -1):
                mv = ii[pp <= col - 1]
                best_d[mv, col] = best_d[mv, col - 1]
                best_p[mv, col] = best_p[mv, col - 1]
                best_pos[mv, col] = best_pos[mv, col - 1]
            best_d[ii, pp] = dd2
            best_p[ii, pp] = pid
            best_pos[ii, pp] = j
            dirty = True
        return best_d, best_p, best_pos

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = np.asarray(batch[self.x_col], dtype=np.float64)
        py = np.asarray(batch[self.y_col], dtype=np.float64)
        valid = ~(np.isnan(px) | np.isnan(py))
        vidx = np.flatnonzero(valid)
        k = self.k
        if len(self.poly_ids) <= self.VECTOR_BOUND:
            # fully vectorized all-pairs path (small broadcast side)
            dm = self._dist_matrix(px[vidx], py[vidx])
            # ties -> lowest poly_id: secondary key is poly_id
            order = np.lexsort((np.broadcast_to(self.poly_ids, dm.shape), dm), axis=1)
            kk = min(k, dm.shape[1])
            top = order[:, :kk]
            rows = np.repeat(vidx, kk)
            pids = self.poly_ids[top].reshape(-1)
            dists = np.take_along_axis(dm, top, axis=1).reshape(-1)
            ranks = np.tile(np.arange(kk, dtype=np.int32), len(vidx))
        else:
            kk = min(k, len(self.poly_ids))
            best_d, best_p, _ = self._knn_large(px[vidx], py[vidx], kk)
            rows = np.repeat(vidx, kk)
            pids = best_p.reshape(-1)
            dists = best_d.reshape(-1)
            ranks = np.tile(np.arange(kk, dtype=np.int32), len(vidx))
        out = batch.take(pa.array(rows))
        out = out.append_column("poly_id", pa.array(pids, pa.int64()))
        out = out.append_column("knn_dist", pa.array(dists, pa.float64()))
        out = out.append_column("knn_rank", pa.array(ranks, pa.int32()))
        return out


# --------------------------------------------------------------------------- #
# task functions: the kernel is built once per worker process from the
# index behind `index_ref` (stages/worker_cache.py)
# --------------------------------------------------------------------------- #


def spatial_join_batch(batch: pa.Table, *, index_ref, mode="inner",
                       x_col="lon", y_col="lat") -> pa.Table:
    from .worker_cache import get_cached

    def build(index):
        return BroadcastSpatialJoin(index=index, mode=mode, x_col=x_col, y_col=y_col)

    build.__cache_token__ = f"bsj-{mode}-{x_col}-{y_col}"
    return get_cached(index_ref, build)(batch)


def knn_join_batch(batch: pa.Table, *, index_ref, k=1,
                   x_col="lon", y_col="lat") -> pa.Table:
    from .worker_cache import get_cached

    def build(index):
        return KNNJoin(index=index, k=k, x_col=x_col, y_col=y_col)

    build.__cache_token__ = f"knn-{k}-{x_col}-{y_col}"
    return get_cached(index_ref, build)(batch)


# --------------------------------------------------------------------------- #
# cell-bucketed large x large spatial join (shuffle path)
# --------------------------------------------------------------------------- #


def _pack_cell(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """(cell_x, cell_y) int32-range pair -> one int64 key (two's complement
    pack: cx in the high 32 bits, cy in the low 32). Collision-free for
    |cell| < 2^31, so the bucket join can key on a single int64 column."""
    return (cx.astype(np.int64) << 32) | (cy.astype(np.int64) & 0xFFFFFFFF)


def _floats(t: pa.Table, *cols) -> list:
    return [np.asarray(t[c], dtype=np.float64) for c in cols]


def _tag_cells(t: pa.Table, x_col: str, y_col: str, cell_size: float) -> pa.Table:
    """`t` plus the packed id of the one grid cell holding each point,
    as int64 column `__cell`."""
    x, y = _floats(t, x_col, y_col)
    cx = np.floor(x / cell_size).astype(np.int64)
    cy = np.floor(y / cell_size).astype(np.int64)
    return t.append_column("__cell", pa.array(_pack_cell(cx, cy)))


def _cover_cells(t: pa.Table, x0, y0, x1, y1, cell_size: float) -> pa.Table:
    """`t` with row i repeated once per grid cell that the closed box
    [x0[i], x1[i]] x [y0[i], y1[i]] covers, that cell's packed id in
    int64 column `__cell` (vectorized np.repeat explosion, no Python
    loop)."""
    cx0 = np.floor(x0 / cell_size).astype(np.int64)
    cy0 = np.floor(y0 / cell_size).astype(np.int64)
    nx = np.floor(x1 / cell_size).astype(np.int64) - cx0 + 1
    ny = np.floor(y1 / cell_size).astype(np.int64) - cy0 + 1
    n = nx * ny
    rep = np.repeat(np.arange(len(t), dtype=np.int64), n)
    offs = np.zeros(len(t) + 1, dtype=np.int64)
    np.cumsum(n, out=offs[1:])
    local = np.arange(int(offs[-1]), dtype=np.int64) - offs[rep]
    cellx = cx0[rep] + local // ny[rep]
    celly = cy0[rep] + local % ny[rep]
    out = t.take(pa.array(rep))
    return out.append_column("__cell", pa.array(_pack_cell(cellx, celly)))


def cell_spatial_join(points_ds, boxes_ds, cell_size: float,
                      x_col: str = "x", y_col: str = "y",
                      box_cols=("minx", "miny", "maxx", "maxy"),
                      n_buckets: int = 32, n_salts: int = 1):
    """Large x large point-in-box join via grid-cell co-partitioning.

    The broadcast R-tree join (BroadcastSpatialJoin above) requires the
    polygon side to fit in one object; when BOTH sides are large the
    scale shape is instead: cover each box with the grid cells it
    intersects at a fixed resolution (bounded fan-out, vectorized
    np.repeat explosion — no Python loop), tag each point with its single
    cell, then hash-bucket both sides on the packed cell key and join per
    bucket (functions.relational.bucketed_join — one two-input
    hash_exchange). Because a point lies in exactly one cell, every surviving
    (point, box) pair is emitted exactly once — no post-join dedup pass.
    An exact vectorized bbox refine follows the equi-join, mirroring the
    reference's filter-then-refine structure (rtree search + exact test,
    /root/reference/rtree/rtree.go RangeSearch + alg_point_in_ring.go).

    cell_size tuning: pick ~ the median box extent so the per-box cell
    fan-out stays O(1); the exchange volume is then |points| + O(|boxes|)
    rows regardless of cluster size.
    """
    from ..functions.relational import bucketed_join

    def tag_points(t: pa.Table) -> pa.Table:
        return _tag_cells(t, x_col, y_col, cell_size)

    def explode_boxes(t: pa.Table) -> pa.Table:
        return _cover_cells(t, *_floats(t, *box_cols), cell_size)

    pts = points_ds.map_batches(tag_points, batch_format="pyarrow")
    bxs = boxes_ds.map_batches(explode_boxes, batch_format="pyarrow")
    # n_salts > 1: spread a hot cell (urban point pile-up) across salt
    # shards — results invariant, right side replicated n_salts x
    joined = bucketed_join(pts, bxs, key="__cell", n_buckets=n_buckets,
                           n_salts=n_salts)

    def refine(t: pa.Table) -> pa.Table:
        x, y, x0, y0, x1, y1 = _floats(t, x_col, y_col, *box_cols)
        keep = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        return t.filter(pa.array(keep)).drop_columns(["__cell"])

    return joined.map_batches(refine, batch_format="pyarrow")


def cell_overlap_join(left_ds, right_ds, cell_size: float,
                      left_cols=("minx", "miny", "maxx", "maxy"),
                      n_buckets: int = 32, n_salts: int = 1):
    """Large x large BOX-OVERLAP join via grid cells with REFERENCE-POINT
    deduplication: both sides explode to their covering cells, meet in a
    hash-bucket equi-join, and a pair is kept only in the single cell
    containing the top-left corner (max of the min corners) of the
    boxes' intersection — so each overlapping pair is emitted EXACTLY
    once with no dedup shuffle (the standard distributed spatial-join
    trick; cf. the partition-dedup discussion in SpatialHadoop/GeoSpark
    literature). Envelope overlap is closed (touching edges join).

    Both sides carry their box in the `left_cols` columns. Returns the
    joined rows: all left columns, then the right columns, those whose
    name is also a left column (the box columns among them) suffixed
    `_r` by the join.
    """
    from ..functions.relational import bucketed_join

    right_cols = [c + "_r" for c in left_cols]

    def explode(t: pa.Table) -> pa.Table:
        return _cover_cells(t, *_floats(t, *left_cols), cell_size)

    joined = bucketed_join(left_ds.map_batches(explode, batch_format="pyarrow"),
                           right_ds.map_batches(explode, batch_format="pyarrow"),
                           key="__cell", n_buckets=n_buckets, n_salts=n_salts)

    def refine(t: pa.Table) -> pa.Table:
        ax0, ay0, ax1, ay1 = _floats(t, *left_cols)
        bx0, by0, bx1, by1 = _floats(t, *right_cols)
        overlap = (ax0 <= bx1) & (bx0 <= ax1) & (ay0 <= by1) & (by0 <= ay1)
        # reference point: top-left corner of the intersection
        refx = np.maximum(ax0, bx0)
        refy = np.maximum(ay0, by0)
        ref_cell = _pack_cell(np.floor(refx / cell_size).astype(np.int64),
                              np.floor(refy / cell_size).astype(np.int64))
        keep = overlap & (ref_cell == np.asarray(t["__cell"]))
        return t.filter(pa.array(keep)).drop_columns(["__cell"])

    return joined.map_batches(refine, batch_format="pyarrow")


def cell_polygon_join(points_ds, polys_ds, cell_size: float,
                      x_col: str = "x", y_col: str = "y",
                      poly_id_col: str = "poly_id", wkb_col: str = "wkb",
                      n_buckets: int = 32, n_salts: int = 1):
    """Large x large point-in-POLYGON join: envelope cells co-partition
    the sides exactly like cell_spatial_join (a point is in one cell —
    exactly-once pairs, no dedup), but the refine stage decodes the WKB
    of each distinct candidate polygon of a batch ONCE, in one columnar
    pass (geometry/wkb polygon_edges), into a flat edge table and runs
    the flat crossing-number kernel
    (geometry/predicates pair_parity_on, reference alg_point_in_ring.go
    semantics) over all (point, polygon) rows at once. This is the
    shuffle-path complement to BroadcastSpatialJoin for polygon corpora
    too large to ray.put; the polygon table must carry envelope columns
    (minx/miny/maxx/maxy — the engine's standard polygon-table schema).
    """
    from ..functions.relational import bucketed_join

    def tag_points(t: pa.Table) -> pa.Table:
        return _tag_cells(t, x_col, y_col, cell_size)

    def explode_polys(t: pa.Table) -> pa.Table:
        return _cover_cells(t, *_floats(t, "minx", "miny", "maxx", "maxy"),
                            cell_size)

    pts = points_ds.map_batches(tag_points, batch_format="pyarrow")
    pls = polys_ds.map_batches(explode_polys, batch_format="pyarrow")
    joined = bucketed_join(pts, pls, key="__cell", n_buckets=n_buckets,
                           n_salts=n_salts)

    def refine(t: pa.Table) -> pa.Table:
        if not len(t):
            return t.drop_columns(["__cell", wkb_col])
        px = np.asarray(t[x_col], dtype=np.float64)
        py = np.asarray(t[y_col], dtype=np.float64)
        pid = np.asarray(t[poly_id_col], dtype=np.int64)
        _, first, poly = np.unique(pid, return_index=True, return_inverse=True)
        x1, y1, x2, y2, ring_edge_off, poly_ring_off = polygon_edges(
            t[wkb_col].take(pa.array(first)))
        parity, on = pair_parity_on(px, py, np.arange(len(t)), poly.reshape(-1),
                                    (x1, y1, x2, y2), ring_edge_off[poly_ring_off])
        keep = parity | on
        return t.filter(pa.array(keep)).drop_columns(["__cell", wkb_col])

    return joined.map_batches(refine, batch_format="pyarrow")


def cell_knn_join(points_ds, boxes_ds, k: int, radius: float,
                  cell_size: float, x_col: str = "x", y_col: str = "y",
                  point_id_col: str = "event_id", box_id_col: str = "box_id",
                  box_cols=("minx", "miny", "maxx", "maxy"),
                  n_buckets: int = 32, n_salts: int = 1):
    """Bounded kNN join, shuffle path: for each point, the k nearest
    boxes within `radius` (Euclidean point-to-box distance, 0 inside) —
    the practical distributed kNN formulation (a max radius makes the
    join single-round and exact; unbounded kNN needs iterative ring
    expansion, which is the broadcast KNNJoin's territory).

    Shape: each point explodes to the cells covering its radius-bbox,
    each box to its envelope cells; candidates meet in the hash-bucket
    equi-join and a pair is kept only in the REFERENCE-POINT cell of the
    two bboxes' intersection (exactly-once, no dedup shuffle). The
    radius filter then bounds candidates and grouped_topk (per-batch
    partial top-k + coarse-partition final, never a task per point)
    selects k per point with deterministic (dist, box_id) ties.

    Distances are bit-identical to the SQL twin by construction:
    dx/dy are exact max/0 clamps, dx*dx + dy*dy is evaluated in the
    same order, and IEEE sqrt is correctly rounded.
    """
    from ..functions.relational import bucketed_join, grouped_topk

    def explode_points(t: pa.Table) -> pa.Table:
        x, y = _floats(t, x_col, y_col)
        return _cover_cells(t, x - radius, y - radius, x + radius, y + radius,
                            cell_size)

    def explode_boxes(t: pa.Table) -> pa.Table:
        return _cover_cells(t, *_floats(t, *box_cols), cell_size)

    pts = points_ds.map_batches(explode_points, batch_format="pyarrow")
    bxs = boxes_ds.map_batches(explode_boxes, batch_format="pyarrow")
    joined = bucketed_join(pts, bxs, key="__cell", n_buckets=n_buckets,
                           n_salts=n_salts)

    def refine(t: pa.Table) -> pa.Table:
        x, y, x0, y0, x1, y1 = _floats(t, x_col, y_col, *box_cols)
        # reference point of (query-bbox ∩ box-bbox): exactly-once guard
        refx = np.maximum(x - radius, x0)
        refy = np.maximum(y - radius, y0)
        ref_cell = _pack_cell(np.floor(refx / cell_size).astype(np.int64),
                              np.floor(refy / cell_size).astype(np.int64))
        dx = np.maximum(np.maximum(x0 - x, 0.0), x - x1)
        dy = np.maximum(np.maximum(y0 - y, 0.0), y - y1)
        dist = np.sqrt(dx * dx + dy * dy)
        keep = (dist <= radius) & (ref_cell == np.asarray(t["__cell"]))
        t = t.filter(pa.array(keep))
        return pa.table({
            point_id_col: t[point_id_col],
            box_id_col: t[box_id_col],
            "knn_dist": pa.array(dist[keep], pa.float64()),
        })

    cands = joined.map_batches(refine, batch_format="pyarrow")
    return grouped_topk(cands, point_id_col, "knn_dist", k,
                        descending=False, tie_col=box_id_col)
