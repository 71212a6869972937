"""STR-packed R-tree over numpy arrays.

Fills the role of the reference's rtree package (bulk load
rtree/bulk.go:12-70, RangeSearch rtree/rtree.go:48-74, best-first
Nearest/PrioritySearch rtree/nearest.go:12-55) but is designed for the
engine's broadcast pattern: the whole tree is a handful of flat numpy
arrays, cheap to pickle, `ray.put` once and share across every actor in
a map_batches pool. Packing is Sort-Tile-Recursive (Leutenegger et al.,
1997 — public literature), not a copy of the reference's median-split.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

LEAF_CAP = 16
NODE_CAP = 16


def _str_order(boxes: np.ndarray, cap: int) -> np.ndarray:
    """Item indices in STR order. Every slab holds a multiple of cap items
    (the last one aside), so the tiles of <= cap are the runs that start
    at 0, cap, 2 * cap, ..."""
    n = len(boxes)
    with np.errstate(invalid="ignore"):  # an empty (+inf, -inf) box has no centre
        cx = (boxes[:, 0] + boxes[:, 2]) * 0.5
        cy = (boxes[:, 1] + boxes[:, 3]) * 0.5
    num_leaves = max(1, math.ceil(n / cap))
    s = max(1, math.ceil(math.sqrt(num_leaves)))
    by_x = np.argsort(cx, kind="stable")
    # stable sort by (slab, cy): each slab of s * cap x-neighbours by cy
    return by_x[np.lexsort((cy[by_x], np.arange(n) // (s * cap)))]


def _tile_boxes(boxes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Bounding box of each run boxes[starts[i]:starts[i + 1]]."""
    return np.concatenate([np.minimum.reduceat(boxes[:, :2], starts, axis=0),
                           np.maximum.reduceat(boxes[:, 2:], starts, axis=0)], axis=1)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over (starts, counts), loop-free."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


class STRtree:
    """Static R-tree. `boxes` is an (n, 4) float64 array [minx,miny,maxx,maxy].

    Flat layout (pickle/broadcast friendly):
      node_boxes  (m, 4)   bbox per node
      node_start  (m,)     child range start
      node_count  (m,)     child range length
      node_leaf   (m,)     bool; leaf children index `items`, else nodes
      items       (n,)     permutation of input indices (leaf order)
      root        int      root node index (-1 when empty)
    """

    def __init__(self, boxes: np.ndarray):
        boxes = np.ascontiguousarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.boxes = boxes
        n = len(boxes)
        if n == 0:
            self.node_boxes = np.zeros((0, 4))
            self.node_start = np.zeros(0, dtype=np.int64)
            self.node_count = np.zeros(0, dtype=np.int64)
            self.node_leaf = np.zeros(0, dtype=bool)
            self.items = np.zeros(0, dtype=np.int64)
            self.root = -1
            return
        items = _str_order(boxes, LEAF_CAP)
        starts = np.arange(0, n, LEAF_CAP)
        lvl_boxes = _tile_boxes(boxes[items], starts)
        nb, ns, nc, children = [lvl_boxes], [starts], [np.diff(starts, append=n)], []
        level = np.arange(len(starts))  # node ids of the level under construction
        while len(level) > 1:
            perm = _str_order(lvl_boxes, NODE_CAP)
            starts = np.arange(0, len(level), NODE_CAP)
            lvl_boxes = _tile_boxes(lvl_boxes[perm], starts)
            nb.append(lvl_boxes)
            ns.append(sum(map(len, children)) + starts)
            nc.append(np.diff(starts, append=len(level)))
            children.append(level[perm])
            level = level[-1] + 1 + np.arange(len(starts))
        self.node_boxes = np.concatenate(nb)
        self.node_start = np.concatenate(ns)
        self.node_count = np.concatenate(nc)
        self.node_leaf = np.arange(len(self.node_count)) < len(nc[0])
        self.items = items
        self.children = np.concatenate(children or [np.zeros(0, dtype=np.int64)])
        self.root = int(level[0])

    def __len__(self):
        return len(self.boxes)

    # ---- range search --------------------------------------------------------

    def query_box(self, minx, miny, maxx, maxy) -> np.ndarray:
        """Item indices whose boxes intersect the query box
        (reference RangeSearch, rtree/rtree.go:48-74)."""
        if self.root < 0:
            return np.zeros(0, dtype=np.int64)
        out = []
        stack = [self.root]
        nb = self.node_boxes
        while stack:
            nid = stack.pop()
            s = self.node_start[nid]
            c = self.node_count[nid]
            if self.node_leaf[nid]:
                idx = self.items[s : s + c]
                b = self.boxes[idx]
                hit = (b[:, 0] <= maxx) & (b[:, 2] >= minx) & (b[:, 1] <= maxy) & (b[:, 3] >= miny)
                if hit.any():
                    out.append(idx[hit])
            else:
                kids = self.children[s : s + c]
                b = nb[kids]
                hit = (b[:, 0] <= maxx) & (b[:, 2] >= minx) & (b[:, 1] <= maxy) & (b[:, 3] >= miny)
                stack.extend(kids[hit].tolist())
        if not out:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(out)

    def query_many_points(self, px: np.ndarray, py: np.ndarray):
        """Candidate (point_idx, item_idx) pairs for many query points.

        Vectorized level-by-level descent: at each level keep an array of
        (point, node) frontier pairs and expand them with numpy box tests.
        This is the join hot path — no per-point Python recursion.
        Returns (pt_idx int64[], item_idx int64[]).
        """
        if self.root < 0 or len(px) == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        pts = np.arange(len(px), dtype=np.int64)
        nodes = np.full(len(px), self.root, dtype=np.int64)
        rb = self.node_boxes[self.root]
        keep = (px >= rb[0]) & (px <= rb[2]) & (py >= rb[1]) & (py <= rb[3])
        pts = pts[keep]
        nodes = nodes[keep]
        out_p, out_i = [], []
        while len(pts):
            leaf_mask = self.node_leaf[nodes]
            # expand leaves
            if leaf_mask.any():
                lp = pts[leaf_mask]
                ln = nodes[leaf_mask]
                starts = self.node_start[ln]
                counts = self.node_count[ln]
                reps = np.repeat(np.arange(len(lp)), counts)
                item_pos = _ranges(starts, counts)
                cand_items = self.items[item_pos]
                cand_pts = lp[reps]
                b = self.boxes[cand_items]
                qx = px[cand_pts]
                qy = py[cand_pts]
                hit = (qx >= b[:, 0]) & (qx <= b[:, 2]) & (qy >= b[:, 1]) & (qy <= b[:, 3])
                out_p.append(cand_pts[hit])
                out_i.append(cand_items[hit])
            # expand internal nodes
            imask = ~leaf_mask
            if not imask.any():
                break
            ip = pts[imask]
            inn = nodes[imask]
            starts = self.node_start[inn]
            counts = self.node_count[inn]
            reps = np.repeat(np.arange(len(ip)), counts)
            child_pos = _ranges(starts, counts)
            kids = self.children[child_pos]
            cand_pts = ip[reps]
            b = self.node_boxes[kids]
            qx = px[cand_pts]
            qy = py[cand_pts]
            hit = (qx >= b[:, 0]) & (qx <= b[:, 2]) & (qy >= b[:, 1]) & (qy <= b[:, 3])
            pts = cand_pts[hit]
            nodes = kids[hit]
        if not out_p:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return np.concatenate(out_p), np.concatenate(out_i)

    # ---- nearest -------------------------------------------------------------

    def _box_dist(self, x, y, box) -> float:
        dx = max(box[0] - x, 0.0, x - box[2])
        dy = max(box[1] - y, 0.0, y - box[3])
        return math.hypot(dx, dy)

    def nearest(self, x: float, y: float, k: int = 1, refine=None):
        """k nearest item indices by best-first traversal with a min-heap
        (reference rtree/nearest.go:12-55). Ties broken by lowest item index
        (engine-defined total order; the reference picks arbitrarily).

        refine(item_idx) -> float may supply an exact distance used in place
        of the item's box distance (e.g. exact point-to-polygon distance).
        Returns list of (dist, item_idx) sorted ascending.
        """
        if self.root < 0 or k <= 0:
            return []
        heap = [(self._box_dist(x, y, self.node_boxes[self.root]), 1, self.root)]
        results: list[tuple[float, int]] = []
        worst = math.inf
        while heap:
            d, kind, ident = heapq.heappop(heap)
            if d > worst and len(results) >= k:
                break
            if kind == 0:  # concrete item
                results.append((d, ident))
                results.sort()
                if len(results) > k:
                    results = results[:k]
                if len(results) == k:
                    worst = results[-1][0]
                continue
            s = self.node_start[ident]
            c = self.node_count[ident]
            if self.node_leaf[ident]:
                for it in self.items[s : s + c]:
                    it = int(it)
                    bd = self._box_dist(x, y, self.boxes[it])
                    dist = float(refine(it)) if refine is not None else bd
                    if dist <= worst or len(results) < k:
                        heapq.heappush(heap, (dist, 0, it))
            else:
                for nid in self.children[s : s + c]:
                    nid = int(nid)
                    bd = self._box_dist(x, y, self.node_boxes[nid])
                    if bd <= worst or len(results) < k:
                        heapq.heappush(heap, (bd, 1, nid))
        return results

    def extent(self):
        if self.root < 0:
            return None
        b = self.node_boxes[self.root]
        return (float(b[0]), float(b[1]), float(b[2]), float(b[3]))
