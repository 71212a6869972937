"""WKB codec (reference: geom/wkb_parser.go:14, geom/wkb_marshal.go:10-24).

ISO WKB: type code = base + 1000*Z + 2000*M + 3000*ZM. Both endiannesses
accepted on read (the reference accepts both, wkb_parser.go); writes are
little-endian. Empty points round-trip as NaN ordinates (PostGIS
convention, matched by the reference parser). Bulk float decode uses
numpy frombuffer (the reference has the same fast path,
wkb_parser.go:253-269). from_wkb decodes one value; polygon_edges
decodes a whole Arrow column of polygonal WKB into the join's flat edge
table, with no per-row Python.
"""
from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .core import (
    DIM_XY,
    GEOMETRYCOLLECTION,
    LINESTRING,
    MULTILINESTRING,
    MULTIPOINT,
    MULTIPOLYGON,
    POINT,
    POLYGON,
    Geometry,
    GeometryError,
    ctype_dimension,
)
from .predicates import edge_table

_CTYPE_TO_OFFSET = {0b00: 0, 0b01: 1000, 0b10: 2000, 0b11: 3000}
_OFFSET_TO_CTYPE = {0: 0b00, 1000: 0b01, 2000: 0b10, 3000: 0b11}


class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def byte(self) -> int:
        b = self.buf[self.pos]
        self.pos += 1
        return b

    def u32(self, little: bool) -> int:
        v = struct.unpack_from("<I" if little else ">I", self.buf, self.pos)[0]
        self.pos += 4
        return v

    def floats(self, n: int, little: bool) -> np.ndarray:
        end = self.pos + 8 * n
        if end > len(self.buf):
            raise GeometryError("WKB truncated")
        arr = np.frombuffer(self.buf, dtype="<f8" if little else ">f8", count=n, offset=self.pos)
        self.pos = end
        return arr.astype(np.float64, copy=False)


def from_wkb(buf: bytes) -> Geometry:
    if isinstance(buf, memoryview):
        buf = bytes(buf)
    r = _Reader(buf)
    return _read_geometry(r)


def _read_geometry(r: _Reader) -> Geometry:
    order = r.byte()
    if order not in (0, 1):
        raise GeometryError(f"invalid WKB byte order {order}")
    little = order == 1
    code = r.u32(little)
    base = code % 1000
    off = code - base
    if base not in (1, 2, 3, 4, 5, 6, 7) or off not in _OFFSET_TO_CTYPE:
        raise GeometryError(f"invalid WKB geometry type {code}")
    ctype = _OFFSET_TO_CTYPE[off]
    dim = ctype_dimension(ctype)

    if base == POINT:
        vals = r.floats(dim, little)
        if np.all(np.isnan(vals)):
            return Geometry(POINT, ctype, coords=None)
        return Geometry(POINT, ctype, coords=np.array(vals))

    if base == LINESTRING:
        n = r.u32(little)
        arr = r.floats(n * dim, little).reshape(n, dim)
        return Geometry(LINESTRING, ctype, coords=np.array(arr))

    if base == POLYGON:
        nr = r.u32(little)
        rings = []
        for _ in range(nr):
            n = r.u32(little)
            rings.append(np.array(r.floats(n * dim, little).reshape(n, dim)))
        return Geometry(POLYGON, ctype, rings=rings)

    n = r.u32(little)
    geoms = [_read_geometry(r) for _ in range(n)]
    want = {MULTIPOINT: POINT, MULTILINESTRING: LINESTRING, MULTIPOLYGON: POLYGON}.get(base)
    if want is not None:
        for g in geoms:
            if g.tag != want:
                raise GeometryError("WKB multi element of wrong type")
    return Geometry(base, ctype, geoms=geoms)


def _check(ok: np.ndarray, rows: np.ndarray, what: str):
    if not ok.all():
        raise GeometryError(f"WKB row {int(rows[np.argmin(ok)])}: {what}")


def polygon_edges(wkbs):
    """Arrow binary column of polygonal WKB (Polygon, MultiPolygon or a
    GeometryCollection of those; either byte order; XY/Z/M/ZM) ->
    predicates.edge_table, row j's rings being every part's, shell first.
    Every row's cursor steps over one header or ring count at a time, all
    rows at once; then one gather reads every vertex. A read past a row's
    end or a non-polygonal row raises GeometryError naming the row."""
    if isinstance(wkbs, pa.ChunkedArray):
        wkbs = wkbs.combine_chunks()
    n = len(wkbs)
    itype = np.int64 if pa.types.is_large_binary(wkbs.type) else np.int32
    _, obuf, dbuf = wkbs.buffers()
    offs = (np.frombuffer(obuf, itype, n + 1, wkbs.offset * itype().itemsize).astype(np.int64)
            if n else np.zeros(1, dtype=np.int64))
    u8 = np.frombuffer(dbuf or b"", np.uint8)
    # element i of these views is the u32 / the 16 bytes starting at byte i
    le, be, v16 = (np.ndarray((max(len(u8) - k + 1, 0),), t, u8, strides=(1,))
                   for t, k in (("<u4", 4), (">u4", 4), ("V16", 16)))

    def read_u32(p, little):
        return np.where(little, le[p], be[p]).astype(np.int64)

    pos, end = offs[:-1].copy(), offs[1:]
    _check((pos <= end) & (end <= len(u8)), np.arange(n), "offsets outside the data buffer")
    # per row: headers still to read, rings left in the current polygon,
    # headers left that must be Polygons, and that polygon's byte order and stride
    heads, rings, parts = np.ones(n, np.int64), np.zeros(n, np.int64), np.zeros(n, np.int64)
    little, dim = np.ones(n, bool), np.full(n, 2, np.int64)
    found = []  # per ring: (row, coordinate byte offset, vertices, little, dim)
    act = np.arange(n)
    while len(act):
        r, h = act[rings[act] > 0], act[rings[act] == 0]
        p = pos[r]
        _check(p + 4 <= end[r], r, "truncated in a ring count")
        cnt = read_u32(p, little[r])
        pos[r] = p + 4 + 8 * dim[r] * cnt
        _check(pos[r] <= end[r], r, "truncated in the coordinates")
        found.append((r, p + 4, cnt, little[r], dim[r]))
        rings[r] -= 1
        if len(h):
            p = pos[h]
            _check(p + 9 <= end[h], h, "truncated in a header")
            _check(u8[p] <= 1, h, "invalid WKB byte order")
            lt = u8[p] == 1
            code = read_u32(p + 1, lt)
            base, ext = code % 1000, code // 1000
            poly, multi = base == POLYGON, base == MULTIPOLYGON
            _check((poly | multi | (base == GEOMETRYCOLLECTION)) & (ext <= 3), h,
                   "not a polygonal WKB type")
            _check((parts[h] == 0) | poly, h, "WKB multi element of wrong type")
            cnt = read_u32(p + 5, lt)
            parts[h] = np.where(multi, cnt, np.maximum(parts[h] - 1, 0))
            rings[h] = np.where(poly, cnt, 0)
            heads[h] += np.where(poly, 0, cnt) - 1
            little[h], dim[h] = lt, 2 + (ext > 0) + (ext == 3)
            pos[h] = p + 9
        act = act[(rings[act] > 0) | (heads[act] > 0)]

    cols = [np.concatenate(c) for c in zip(*found)] if found else [np.zeros(0, np.int64)] * 5
    by_row = np.argsort(cols[0], kind="stable")  # each row's rings in byte order
    r_row, r_pos, r_cnt, r_little, r_dim = (c[by_row] for c in cols)
    # each vertex's x and y: one 16-byte read at its byte offset
    step, first = 8 * r_dim, np.cumsum(r_cnt) - r_cnt
    at = np.repeat(r_pos - step * first, r_cnt) + np.repeat(step, r_cnt) * np.arange(r_cnt.sum())
    xy = v16[at].view("<f8").reshape(-1, 2)
    big = np.repeat(~r_little.astype(bool), r_cnt)
    xy[big] = xy[big].byteswap()
    return edge_table(xy, r_cnt, np.bincount(r_row, minlength=n))


# --------------------------------------------------------------------------- #
# writer (little-endian)
# --------------------------------------------------------------------------- #


def _w_header(out: bytearray, tag: int, ctype: int):
    out.append(1)
    out += struct.pack("<I", tag + _CTYPE_TO_OFFSET[ctype])


def _w_floats(out: bytearray, arr: np.ndarray):
    out += np.ascontiguousarray(arr, dtype="<f8").tobytes()


def to_wkb(g: Geometry) -> bytes:
    out = bytearray()
    _write_geometry(out, g)
    return bytes(out)


def _write_geometry(out: bytearray, g: Geometry):
    t = g.tag
    _w_header(out, t, g.ctype)
    dim = g.dim
    if t == POINT:
        if g.coords is None:
            _w_floats(out, np.full(dim, np.nan))
        else:
            _w_floats(out, g.coords)
        return
    if t == LINESTRING:
        out += struct.pack("<I", len(g.coords))
        _w_floats(out, g.coords)
        return
    if t == POLYGON:
        out += struct.pack("<I", len(g.rings))
        for ring in g.rings:
            out += struct.pack("<I", len(ring))
            _w_floats(out, ring)
        return
    out += struct.pack("<I", len(g.geoms))
    for sub in g.geoms:
        _write_geometry(out, sub)
