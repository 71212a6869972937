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


def _str_order(boxes: np.ndarray, cap: int) -> list[np.ndarray]:
    """Group item indices into STR tiles of <= cap, returning index chunks."""
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
        chunks = _str_order(boxes, LEAF_CAP)
        items = np.concatenate(chunks)
        nb, ns, nc, nl = [], [], [], []
        children: list[int] = []
        level = []  # node ids of the level under construction
        pos = 0
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
            groups = _str_order(lvl_boxes, NODE_CAP)
            new_level = []
            for grp in groups:
                child_ids = [level[k] for k in grp]
                b = lvl_boxes[grp]
                nb.append([b[:, 0].min(), b[:, 1].min(), b[:, 2].max(), b[:, 3].max()])
                ns.append(len(children))
                nc.append(len(child_ids))
                nl.append(False)
                children.extend(child_ids)
                new_level.append(len(nb) - 1)
            level = new_level
        self.node_boxes = np.asarray(nb, dtype=np.float64)
        self.node_start = np.asarray(ns, dtype=np.int64)
        self.node_count = np.asarray(nc, dtype=np.int64)
        self.node_leaf = np.asarray(nl, dtype=bool)
        self.items = items.astype(np.int64)
        self.children = np.asarray(children, dtype=np.int64)
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
