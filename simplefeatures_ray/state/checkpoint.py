"""Checkpointed, resumable partitioned output with per-partition lineage.

North-rule requirement: "resumable from checkpoint with per-partition
lineage + metrics ... any partition can resume idempotently".

Design:
  * rows are bucketed by a deterministic hash of an integer column mod
    n_buckets. That domain is known up front, so
    stages/exchange.hash_exchange co-partitions them (no sampling pass,
    no sort shuffle), computing each row's bucket in its split tasks,
    and runs ONE Arrow kernel per non-empty bucket: it recomputes the
    bucket id from its first row, sorts by all columns and writes
    `<out>/part=<bucket>/data.parquet` via tmp file + atomic rename —
    task retries are idempotent. Each reduce task writes a contiguous
    range of buckets in turn;
  * the kernel returns a typed lineage row: bucket, rows, bytes,
    content_hash, wall seconds. content_hash is the sha256 of the
    parquet bytes, taken from the in-memory buffer that is then written
    to the tmp file — no file is read back. A sorted, chunk-combined
    table writes the same bytes (for one pyarrow version) whatever its
    input row order or block layout, so verify_manifest re-hashes the
    file bytes without parsing parquet;
  * the driver fetches the reduce tasks' lineage tables straight from
    their refs (no Dataset round trip) and merges the rows into
    `<out>/_manifest.json` (atomic rename). The manifest also records
    the bucket layout, `partition_col` and `n_buckets`. Once it is
    saved, every `part=<bucket>` directory it does not list is removed,
    so a write over another layout leaves no stale rows in the
    directory. A resumed run loads the manifest, refuses it with
    ValueError unless it names the same layout (other buckets would
    hold the completed rows a second time), filters already-completed
    buckets out of the stream before the exchange (the only map the
    sink adds, and only then), and only writes the missing buckets.

Manifest (version 3): {"version", "partition_col", "n_buckets",
"partitions": {bucket: {rows, bytes, content_hash, seconds}},
"n_partitions", "total_rows"}.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.exchange import launch_exchange

MANIFEST = "_manifest.json"

LINEAGE = pa.schema([("bucket", pa.int64()), ("rows", pa.int64()),
                     ("bytes", pa.int64()), ("content_hash", pa.string()),
                     ("seconds", pa.float64())])


def _bucket_of(values, n_buckets: int) -> np.ndarray:
    """Deterministic bucket from an integer column (stable across
    runs/processes)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in ("i", "u"):
        raise TypeError(f"partition column must be integer, not {arr.dtype}")
    return (arr.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(40)).astype(
        np.int64
    ) % n_buckets


def _load_doc(out_dir: str) -> dict:
    path = os.path.join(out_dir, MANIFEST)
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def _partitions(doc: dict) -> dict:
    return {int(k): v for k, v in doc.get("partitions", {}).items()}


def load_manifest(out_dir: str) -> dict:
    return _partitions(_load_doc(out_dir))


def _save_manifest(out_dir: str, layout: dict, partitions: dict):
    path = os.path.join(out_dir, MANIFEST)
    tmp = path + ".tmp"
    doc = {
        # 2: content_hash is the sha256 of the file bytes; 3: the layout
        "version": 3,
        **layout,
        "partitions": {str(k): v for k, v in sorted(partitions.items())},
        "n_partitions": len(partitions),
        "total_rows": int(sum(p["rows"] for p in partitions.values())),
    }
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return doc


def _file_hash(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def _write_partition(t: pa.Table, part_dir: str) -> dict:
    """Write one bucket's rows, sorted by all columns, to
    part_dir/data.parquet; returns its rows, bytes, content_hash and
    seconds."""
    t0 = time.time()
    t = t.sort_by([(c, "ascending") for c in sorted(t.column_names)])
    # one chunk per column and no schema metadata: the bytes depend on
    # the rows alone
    t = t.combine_chunks().replace_schema_metadata(None)
    buf = pa.BufferOutputStream()
    pq.write_table(t, buf)
    data = buf.getvalue()
    os.makedirs(part_dir, exist_ok=True)
    final = os.path.join(part_dir, "data.parquet")
    tmp = final + f".tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, final)  # idempotent under retry
    return {"rows": t.num_rows, "bytes": data.size,
            "content_hash": hashlib.sha256(data).hexdigest()[:16],
            "seconds": round(time.time() - t0, 3)}


def write_buckets(ds, n_buckets: int, by, part_dir, stats=None,
                  schema: pa.Schema = LINEAGE) -> list[dict]:
    """hash_exchange `ds` into n_buckets buckets by `by` (a function
    pa.Table -> bucket ids ∈ [0, n_buckets)) and write every non-empty
    bucket to `part_dir(bucket)`. Returns one lineage row per written
    bucket, in bucket order; `stats(rows)` supplies the fields `schema`
    adds to LINEAGE."""
    import ray

    def kernel(t: pa.Table) -> pa.Table:
        # empty_out: only non-empty buckets get here
        bucket = int(np.asarray(by(t.slice(0, 1)))[0])
        row = {"bucket": bucket, **_write_partition(t, part_dir(bucket))}
        if stats is not None:
            row.update(stats(t))
        return pa.Table.from_pylist([row], schema=schema)

    outs = launch_exchange(ds, n_buckets, kernel, by, empty_out=schema.empty_table())
    return pa.concat_tables(ray.get(outs)).to_pylist()


def checkpointed_write(ds, out_dir: str, partition_col: str,
                       n_buckets: int = 64, resume: bool = True) -> dict:
    """Write `ds` to bucketed parquet under out_dir with lineage manifest.

    Returns the manifest document. Safe to re-run with the same
    partition_col and n_buckets: completed buckets are skipped (their
    rows are filtered out before the exchange); resuming a manifest of
    another layout raises ValueError.
    """
    os.makedirs(out_dir, exist_ok=True)
    layout = {"partition_col": partition_col, "n_buckets": n_buckets}
    doc = _load_doc(out_dir) if resume else {}
    found = {k: doc.get(k) for k in layout}
    if doc and found != layout:
        raise ValueError(f"{out_dir} holds buckets of layout {found}; resuming "
                         f"with {layout} would write their rows again")
    done = _partitions(doc)
    done_ids = np.fromiter(done, dtype=np.int64)

    def bucket(t: pa.Table) -> np.ndarray:
        return _bucket_of(t[partition_col], n_buckets)

    if len(done_ids):
        ds = ds.map_batches(lambda t: t.filter(pa.array(~np.isin(bucket(t), done_ids))),
                            batch_format="pyarrow")
    lineage = write_buckets(ds, n_buckets, bucket,
                            lambda b: os.path.join(out_dir, f"part={b}"))
    partitions = dict(done)
    for row in lineage:
        partitions[row.pop("bucket")] = row
    doc = _save_manifest(out_dir, layout, partitions)
    for name in os.listdir(out_dir):
        m = re.fullmatch(r"part=(\d+)", name)
        if m and int(m[1]) not in partitions:
            shutil.rmtree(os.path.join(out_dir, name))
    return doc


def verify_manifest(out_dir: str) -> dict:
    """Re-hash every partition file's bytes and compare against the
    manifest. Returns {bucket: 'ok' | 'missing' | 'hash-mismatch'}."""
    result = {}
    for bucket, entry in load_manifest(out_dir).items():
        path = os.path.join(out_dir, f"part={bucket}", "data.parquet")
        if not os.path.exists(path):
            result[bucket] = "missing"
        elif _file_hash(path) == entry["content_hash"]:
            result[bucket] = "ok"
        else:
            result[bucket] = "hash-mismatch"
    return result


def read_checkpointed(out_dir: str):
    """Dataset over all completed partitions."""
    import ray.data as rd

    manifest = load_manifest(out_dir)
    paths = [
        os.path.join(out_dir, f"part={b}", "data.parquet") for b in sorted(manifest)
    ]
    # partitioning=None: don't infer a hive 'part' column from the bucket
    # directory names — the data columns are the contract
    return rd.read_parquet(paths, partitioning=None)
