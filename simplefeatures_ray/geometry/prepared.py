"""PreparedGeometry: index once, test many (reference geom/alg_prepared.go:17-92
— the reference's only stateful stage, and the archetype for the
engine's actor-pool / worker-cached join stages).

Prepare(g) precomputes ring arrays, segment arrays, an STR-tree over the
segments, and the linework boundary set; the per-probe predicates are
then vectorized (points) or reuse the generic relate (geometry pairs)
without re-deriving the indexes.
"""
from __future__ import annotations

import numpy as np

from .core import Geometry, LINESTRING, POINT, POLYGON
from .predicates import BOUNDARY, EXTERIOR, INTERIOR, points_in_polygons, points_on_ring
from ..rtree import STRtree


class PreparedGeometry:
    def __init__(self, g: Geometry):
        self.geom = g
        self.poly_rings = []  # list of ring-lists (one per polygon part)
        self.lines = []
        self.points = []
        for leaf in g.flatten():
            if leaf.tag == POLYGON and leaf.rings:
                self.poly_rings.append(leaf.rings)
            elif leaf.tag == LINESTRING and len(leaf.coords) >= 2:
                self.lines.append(leaf.coords[:, :2])
            elif leaf.tag == POINT and leaf.coords is not None:
                self.points.append((float(leaf.coords[0]), float(leaf.coords[1])))
        segs = []
        for rings in self.poly_rings:
            for r in rings:
                segs.append(np.concatenate([r[:-1, :2], r[1:, :2]], axis=1))
        for l in self.lines:
            segs.append(np.concatenate([l[:-1], l[1:]], axis=1))
        self.segs = np.concatenate(segs, axis=0) if segs else np.zeros((0, 4))
        if len(self.segs):
            boxes = np.stack(
                [
                    np.minimum(self.segs[:, 0], self.segs[:, 2]),
                    np.minimum(self.segs[:, 1], self.segs[:, 3]),
                    np.maximum(self.segs[:, 0], self.segs[:, 2]),
                    np.maximum(self.segs[:, 1], self.segs[:, 3]),
                ],
                axis=1,
            )
            self.seg_tree = STRtree(boxes)
        else:
            self.seg_tree = STRtree(np.zeros((0, 4)))

    # ---- vectorized point probes ------------------------------------------

    def locate_points(self, px, py) -> np.ndarray:
        """INTERIOR/BOUNDARY/EXTERIOR per point, vectorized."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        loc = np.full(len(px), EXTERIOR, dtype=np.int8)
        if self.poly_rings:
            loc = points_in_polygons(px, py, self.poly_rings).max(axis=0)
        on_line = np.zeros(len(px), dtype=bool)
        for l in self.lines:
            on_line |= points_on_ring(px, py, l)
        # line interiors count as INTERIOR unless at a boundary endpoint
        if on_line.any():
            from .predicates import _linework_boundary_points

            bnd = _linework_boundary_points(self.lines)
            for i in np.flatnonzero(on_line):
                if loc[i] == EXTERIOR:
                    loc[i] = BOUNDARY if (px[i], py[i]) in bnd else INTERIOR
        for p in self.points:
            hit = (px == p[0]) & (py == p[1])
            loc[hit & (loc == EXTERIOR)] = INTERIOR
        return loc

    def contains_points(self, px, py) -> np.ndarray:
        return self.locate_points(px, py) == INTERIOR

    def covers_points(self, px, py) -> np.ndarray:
        return self.locate_points(px, py) >= 0

    def intersects_points(self, px, py) -> np.ndarray:
        return self.covers_points(px, py)

    # ---- pairwise predicates (delegate to relate on the cached geometry) ---

    def relate(self, other: Geometry) -> str:
        from .relate import relate

        return relate(self.geom, other)

    def intersects(self, other: Geometry) -> bool:
        from .predicates import intersects

        return intersects(self.geom, other)

    def contains(self, other: Geometry) -> bool:
        from .relate import contains

        return contains(self.geom, other)

    def covers(self, other: Geometry) -> bool:
        from .relate import covers

        return covers(self.geom, other)

    def within(self, other: Geometry) -> bool:
        from .relate import within

        return within(self.geom, other)

    def disjoint(self, other: Geometry) -> bool:
        return not self.intersects(other)


def prepare(g: Geometry) -> PreparedGeometry:
    return PreparedGeometry(g)
