"""Seeded workload inputs and their brute-force ground truth.

Each workload is a pages table written to parquet plus a polygon count.
Pages come from `sources.pages.gen_pages_batch` with page ids offset by
the seed, so the same (workload, seed) always yields the same bytes. The
program under test only ever sees the parquet files and
`sources.polygons.make_polygons(n)`.

Ground truth for the join is computed here without the engine: the
generator's own `page_coords` give each page's true geotag, and every
point is tested against every polygon ring read straight from the WKB,
with a bounding-box prefilter. It is cached next to the parquet input.
"""
from __future__ import annotations

import os
import shutil
import struct
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# rows per generated parquet file (two pipeline batches of 2048)
FILE_ROWS = 4096
# distance between the page-id ranges of consecutive seeds
SEED_STRIDE = 100_000_000
# input directories kept in the cache; the oldest are evicted first
CACHE_KEEP = 12


@dataclass(frozen=True)
class Workload:
    name: str
    pages: int
    n_words: int  # gen_pages_batch draws 30 + (h % n_words) words per page
    intl: bool
    polygons: int


# why each workload exists: perfbench/README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("flagship", 12_000, 270, False, 64),
        Workload("flagship_intl", 12_000, 270, True, 64),
        Workload("dense_join", 12_000, 1, False, 16384),
    )
}


def page_ids(seed: int, n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64) + np.int64(seed) * SEED_STRIDE


def _evict(cache_root: str, keep: int) -> None:
    entries = [os.path.join(cache_root, e) for e in os.listdir(cache_root)
               if not e.startswith(".")]
    entries.sort(key=os.path.getmtime, reverse=True)
    for old in entries[keep:]:
        shutil.rmtree(old, ignore_errors=True)


def ensure_input(w: Workload, seed: int, cache_root: str, pages: int | None = None) -> str:
    """Generate the input unless cached; return its directory.

    The directory holds pages/part-*.parquet (the program's input) and
    truth.parquet (brute-force (url, poly_id) pairs)."""
    from simplefeatures_ray.sources.pages import gen_pages_batch

    n = pages or w.pages
    path = os.path.join(cache_root, f"{w.name}-s{seed}-n{n}")
    if os.path.exists(os.path.join(path, "_SUCCESS")):
        os.utime(path)
        return path
    os.makedirs(cache_root, exist_ok=True)
    tmp = path + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "pages"))
    ids = page_ids(seed, n)
    urls = []
    for k, lo in enumerate(range(0, n, FILE_ROWS)):
        tbl = gen_pages_batch({"id": ids[lo:lo + FILE_ROWS]},
                              n_words=w.n_words, intl=w.intl)
        urls.append(tbl["url"])
        pq.write_table(tbl, os.path.join(tmp, "pages", f"part-{k:05d}.parquet"))
    url = pa.chunked_array(urls).combine_chunks()
    pq.write_table(brute_force_pairs(ids, url, w.polygons),
                   os.path.join(tmp, "truth.parquet"))
    open(os.path.join(tmp, "_SUCCESS"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    _evict(cache_root, CACHE_KEEP)
    return path


def pages_dir(input_dir: str) -> str:
    return os.path.join(input_dir, "pages")


def page_files(input_dir: str) -> list[str]:
    d = pages_dir(input_dir)
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))


def read_truth(input_dir: str) -> set:
    t = pq.read_table(os.path.join(input_dir, "truth.parquet"))
    return set(zip(t["url"].to_pylist(), t["poly_id"].to_pylist()))


# ---- brute-force join ----------------------------------------------------


def polygon_rings(wkb: bytes) -> list[np.ndarray]:
    """Rings of a WKB Polygon as (k, 2) float64 arrays, parsed here so the
    oracle shares no code with the engine's WKB reader."""
    order = "<" if wkb[0] == 1 else ">"
    (gtype,) = struct.unpack_from(order + "I", wkb, 1)
    if gtype != 3:
        raise ValueError(f"oracle handles Polygon WKB only, got type {gtype}")
    (n_rings,) = struct.unpack_from(order + "I", wkb, 5)
    pos = 9
    rings = []
    for _ in range(n_rings):
        (k,) = struct.unpack_from(order + "I", wkb, pos)
        pos += 4
        xy = np.frombuffer(wkb, dtype=order + "f8", count=2 * k, offset=pos)
        rings.append(xy.reshape(k, 2).astype(np.float64))
        pos += 16 * k
    return rings


def covers(px: np.ndarray, py: np.ndarray, rings) -> np.ndarray:
    """Points inside or on the boundary of the polygon (even-odd over rings)."""
    inside = np.zeros(len(px), dtype=bool)
    on = np.zeros(len(px), dtype=bool)
    x, y = px[:, None], py[:, None]
    for ring in rings:
        x0, y0 = ring[:-1, 0][None, :], ring[:-1, 1][None, :]
        x1, y1 = ring[1:, 0][None, :], ring[1:, 1][None, :]
        straddle = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= (np.count_nonzero(straddle & (x < xcross), axis=1) % 2).astype(bool)
        cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        within = ((np.minimum(x0, x1) <= x) & (x <= np.maximum(x0, x1))
                  & (np.minimum(y0, y1) <= y) & (y <= np.maximum(y0, y1)))
        on |= ((cross == 0) & within).any(axis=1)
    return inside | on


def brute_force_pairs(ids: np.ndarray, url: pa.Array, n_polygons: int) -> pa.Table:
    """Every (url, poly_id) with the page's true geotag inside the polygon."""
    from simplefeatures_ray.sources.pages import page_coords
    from simplefeatures_ray.sources.polygons import make_polygons

    has_geo, lon, lat = page_coords(ids.astype(np.uint64))
    rows = np.flatnonzero(has_geo)
    order = rows[np.argsort(lon[rows], kind="stable")]
    xs = lon[order]
    polys = make_polygons(n_polygons)
    out_rows, out_pid = [], []
    for pid, wkb in zip(polys["poly_id"].to_pylist(), polys["wkb"].to_pylist()):
        rings = polygon_rings(wkb)
        shell = rings[0]
        lo = np.searchsorted(xs, shell[:, 0].min(), side="left")
        hi = np.searchsorted(xs, shell[:, 0].max(), side="right")
        cand = order[lo:hi]
        cand = cand[(lat[cand] >= shell[:, 1].min()) & (lat[cand] <= shell[:, 1].max())]
        if len(cand) == 0:
            continue
        hit = cand[covers(lon[cand], lat[cand], rings)]
        out_rows.append(hit)
        out_pid.append(np.full(len(hit), pid, dtype=np.int64))
    hit_rows = np.concatenate(out_rows) if out_rows else np.zeros(0, np.int64)
    pids = np.concatenate(out_pid) if out_pid else np.zeros(0, np.int64)
    return pa.table({"url": url.take(pa.array(hit_rows)),
                     "poly_id": pa.array(pids, pa.int64())})
