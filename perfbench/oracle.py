"""Checks one job's written output.

A job passes when every partition verifies against its manifest, the
row count matches, its (url, poly_id) pairs equal the brute-force join,
and its order-insensitive digest of (url, poly_id, tile_id) equals the
Ray-free kernel pass (and so every other rep's).
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

KEY = ("url", "poly_id", "tile_id")


@dataclass(frozen=True)
class Expected:
    pairs: frozenset  # brute-force (url, poly_id)
    digest: str  # kernel pass digest of KEY rows
    rows: int


def digest(tbl: pa.Table) -> str:
    rows = sorted(zip(*(tbl[c].to_pylist() for c in KEY)))
    h = hashlib.sha256()
    for r in rows:
        h.update(("%s\t%d\t%d\n" % r).encode())
    return h.hexdigest()[:16]


def pairs(tbl: pa.Table) -> frozenset:
    return frozenset(zip(tbl["url"].to_pylist(), tbl["poly_id"].to_pylist()))


def read_output(out_dir: str, manifest: dict) -> pa.Table:
    files = [os.path.join(out_dir, f"part={b}", "data.parquet")
             for b in sorted(manifest["partitions"], key=int)]
    tables = [pq.read_table(f, columns=list(KEY)) for f in files]
    return pa.concat_tables(tables) if tables else pa.table(
        {"url": pa.array([], pa.string()), "poly_id": pa.array([], pa.int64()),
         "tile_id": pa.array([], pa.int64())})


def problems(tbl: pa.Table, expected: Expected) -> list[str]:
    """What is wrong with an output table; empty when it is right."""
    found = []
    if tbl.num_rows != expected.rows:
        found.append(f"rows {tbl.num_rows} != {expected.rows}")
    got = pairs(tbl)
    if got != expected.pairs:
        found.append(f"(url, poly_id) differs from brute force: "
                     f"{len(got - expected.pairs)} extra, "
                     f"{len(expected.pairs - got)} missing")
    d = digest(tbl)
    if d != expected.digest:
        found.append(f"digest {d} != kernel pass {expected.digest}")
    return found


def judge(out_dir: str, manifest: dict, status: dict, expected: Expected) -> list[str]:
    """Problems with one job: manifest verification, then its content."""
    found = [f"partition {b}: {s}" for b, s in sorted(status.items()) if s != "ok"]
    if not status:
        found.append("manifest lists no partitions")
    if int(manifest["total_rows"]) != expected.rows:
        found.append(f"manifest total_rows {manifest['total_rows']} != {expected.rows}")
    return found + problems(read_output(out_dir, manifest), expected)
