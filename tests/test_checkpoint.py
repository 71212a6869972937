"""Checkpoint/lineage tests: idempotent resume, per-partition manifest."""
import json
import os
import shutil

import pytest


@pytest.fixture
def tmp_out(tmp_path):
    return str(tmp_path / "ckpt")


def _make_ds(n=2000):
    import numpy as np
    import ray.data as rd

    ds = rd.range(n)
    return ds.map_batches(
        lambda b: {
            "key": b["id"] % 37,
            "value": b["id"].astype(float) * 1.5,
            "id": b["id"],
        },
        batch_format="numpy",
    )


def test_write_and_manifest(ray_session, tmp_out):
    from simplefeatures_ray.state.checkpoint import (
        checkpointed_write,
        load_manifest,
        read_checkpointed,
        verify_manifest,
    )

    doc = checkpointed_write(_make_ds(), tmp_out, partition_col="key", n_buckets=8)
    assert doc["total_rows"] == 2000
    manifest = load_manifest(tmp_out)
    assert len(manifest) >= 1
    assert all(v["rows"] > 0 and v["content_hash"] for v in manifest.values())
    # every partition verifies
    assert set(verify_manifest(tmp_out).values()) == {"ok"}
    # read back the full dataset
    back = read_checkpointed(tmp_out)
    assert back.count() == 2000


def test_resume_skips_completed(ray_session, tmp_out):
    from simplefeatures_ray.state.checkpoint import checkpointed_write, load_manifest

    checkpointed_write(_make_ds(), tmp_out, partition_col="key", n_buckets=8)
    m1 = load_manifest(tmp_out)
    # delete one partition and its manifest entry -> only that one rewrites
    victim = sorted(m1)[0]
    path = os.path.join(tmp_out, f"part={victim}")
    shutil.rmtree(path)
    mpath = os.path.join(tmp_out, "_manifest.json")
    doc = json.load(open(mpath))
    del doc["partitions"][str(victim)]
    json.dump(doc, open(mpath, "w"))

    before_mtimes = {
        b: os.path.getmtime(os.path.join(tmp_out, f"part={b}", "data.parquet"))
        for b in m1
        if b != victim
    }
    checkpointed_write(_make_ds(), tmp_out, partition_col="key", n_buckets=8)
    m2 = load_manifest(tmp_out)
    assert set(m2) == set(m1)
    assert m2[victim]["content_hash"] == m1[victim]["content_hash"]
    # untouched partitions were NOT rewritten
    for b, mt in before_mtimes.items():
        assert os.path.getmtime(os.path.join(tmp_out, f"part={b}", "data.parquet")) == mt


@pytest.mark.parametrize("n_blocks", [1, 6, 24])
def test_deterministic_hashes_across_runs(ray_session, tmp_path, n_blocks):
    """Per-bucket content_hash is the same at any input block count,
    equals that of a driver-side _write_partition over the bucket's
    rows, and is the sha256 of the file on disk."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from simplefeatures_ray.state.checkpoint import (
        _bucket_of, _write_partition, checkpointed_write, load_manifest)

    d1 = str(tmp_path / "a")
    d2 = str(tmp_path / "b")
    checkpointed_write(_make_ds(), d1, partition_col="key", n_buckets=8)
    checkpointed_write(_make_ds().repartition(n_blocks), d2, partition_col="key",
                       n_buckets=8)
    m1 = load_manifest(d1)
    m2 = load_manifest(d2)
    hashes = {k: v["content_hash"] for k, v in m2.items()}
    assert {k: v["content_hash"] for k, v in m1.items()} == hashes

    ids = np.arange(2000, dtype=np.int64)
    rows = pa.table({"key": ids % 37, "value": ids.astype(float) * 1.5, "id": ids})
    bucket = _bucket_of(rows["key"], 8)
    assert set(hashes) == set(bucket.tolist())
    for b, h in hashes.items():
        drv = _write_partition(rows.filter(pa.array(bucket == b)),
                               str(tmp_path / "driver" / f"part={b}"))
        assert (drv["content_hash"], drv["rows"], drv["bytes"]) == \
            (h, m2[b]["rows"], m2[b]["bytes"])
        with open(os.path.join(d2, f"part={b}", "data.parquet"), "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest()[:16] == h


def test_spatial_sink_bbox_pruning(ray_session, tmp_path):
    """write_spatial partitions by Morton cell; read_spatial opens only
    bbox-intersecting buckets and row-filters exactly."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.state.spatial_sink import (
        pruned_fraction,
        read_spatial,
        write_spatial,
    )

    rng = np.random.default_rng(11)
    lon = rng.uniform(-170, 170, 5000)
    lat = rng.uniform(-60, 60, 5000)
    t = pa.table({"pid": pa.array(np.arange(5000)),
                  "lon": pa.array(lon), "lat": pa.array(lat)})
    ds = rd.from_arrow(t).repartition(8)
    out = str(tmp_path / "spatial")
    doc = write_spatial(ds, out, res=3)
    assert doc["total_rows"] == 5000
    assert len(doc["partitions"]) > 10

    bbox = (-10.0, -10.0, 30.0, 25.0)
    got = read_spatial(out, bbox).to_pandas()
    keep = (lon >= bbox[0]) & (lon <= bbox[2]) & (lat >= bbox[1]) & (lat <= bbox[3])
    assert sorted(got["pid"]) == sorted(np.arange(5000)[keep])
    # pruning actually skips most rows before any read
    assert pruned_fraction(out, bbox) > 0.5
    # full read round-trips
    assert read_spatial(out).count() == 5000
    # the cell=<hex> directory names add no column
    for box in (None, bbox):
        assert read_spatial(out, box).schema().base_schema == t.schema


def test_spatial_sink_keeps_polar_rows(ray_session, tmp_path):
    """A row past the Mercator latitude clamp lands in its edge cell,
    not in a bucket outside the cell range (which the exchange rejects)."""
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.state.spatial_sink import read_spatial, write_spatial

    ds = rd.from_arrow(pa.table({"pid": pa.array([0, 1, 2]),
                                 "lon": pa.array([10.0, -181.0, 0.0]),
                                 "lat": pa.array([89.9, 0.0, -90.0])}))
    out = str(tmp_path / "polar")
    doc = write_spatial(ds, out, res=3)
    assert doc["total_rows"] == 3
    assert sorted(read_spatial(out).to_pandas()["pid"]) == [0, 1, 2]


def test_spatial_sink_refuses_nan_coordinates(ray_session, tmp_path):
    """A NaN or null lon/lat lies in no cell: the write fails loudly and
    leaves no manifest, instead of filing the row under cell index 0
    where no bbox read finds it."""
    import pyarrow as pa
    import ray.data as rd

    from simplefeatures_ray.state.spatial_sink import MANIFEST, write_spatial

    for lon, lat in (([5.0, float("nan")], [7.0, 7.0]), ([5.0, None], [7.0, 7.0]),
                     ([5.0, 5.0], [7.0, float("nan")])):
        ds = rd.from_arrow(pa.table({"pid": pa.array([0, 1]),
                                     "lon": pa.array(lon, pa.float64()),
                                     "lat": pa.array(lat, pa.float64())}))
        out = str(tmp_path / "nan")
        with pytest.raises(ValueError, match="NaN"):
            write_spatial(ds, out, res=3)
        assert not os.path.exists(os.path.join(out, MANIFEST))


def test_resume_with_another_layout_raises(ray_session, tmp_out):
    """The manifest names its bucket layout; resuming with another
    n_buckets or partition_col, or over a manifest that names none,
    raises instead of writing the completed rows a second time."""
    from simplefeatures_ray.state.checkpoint import MANIFEST, checkpointed_write

    ds = _make_ds(1000)
    doc = checkpointed_write(ds, tmp_out, partition_col="key", n_buckets=8)
    assert (doc["partition_col"], doc["n_buckets"]) == ("key", 8)
    mpath = os.path.join(tmp_out, MANIFEST)
    killed = json.load(open(mpath))
    for b in sorted(killed["partitions"])[:4]:
        del killed["partitions"][b]
    json.dump(killed, open(mpath, "w"))
    for col, n in (("key", 16), ("id", 8)):
        with pytest.raises(ValueError, match="layout"):
            checkpointed_write(ds, tmp_out, partition_col=col, n_buckets=n)
    for k in ("partition_col", "n_buckets"):
        del killed[k]
    json.dump(killed, open(mpath, "w"))
    with pytest.raises(ValueError, match="layout"):
        checkpointed_write(ds, tmp_out, partition_col="key", n_buckets=8)
    # resume=False starts over with any layout
    doc = checkpointed_write(ds, tmp_out, partition_col="key", n_buckets=16, resume=False)
    assert doc["total_rows"] == 1000 and doc["n_buckets"] == 16


def test_write_over_another_layout_leaves_no_stale_files(ray_session, tmp_out):
    """resume=False at 8 buckets, then at 4: the directory holds only
    the 4-bucket layout, so a plain parquet read of it sees each row
    once."""
    import ray.data as rd

    from simplefeatures_ray.state.checkpoint import checkpointed_write, verify_manifest

    ds = _make_ds(1000)
    checkpointed_write(ds, tmp_out, partition_col="key", n_buckets=8)
    doc = checkpointed_write(ds, tmp_out, partition_col="key", n_buckets=4,
                             resume=False)
    assert sorted(os.listdir(tmp_out)) == sorted(
        ["_manifest.json"] + [f"part={b}" for b in doc["partitions"]])
    assert rd.read_parquet(tmp_out).count() == 1000
    assert set(verify_manifest(tmp_out).values()) == {"ok"}


def test_resume_ignores_stale_tmp_from_crash(ray_session, tmp_out):
    """A crash between write and atomic rename leaves part=N/data.parquet
    .tmp.<pid> litter and no manifest entry; the rerun must rewrite the
    bucket correctly and never read the stale tmp."""
    from simplefeatures_ray.state.checkpoint import checkpointed_write, load_manifest

    checkpointed_write(_make_ds(), tmp_out, partition_col="key", n_buckets=8)
    m1 = load_manifest(tmp_out)
    victim = sorted(m1)[0]
    pdir = os.path.join(tmp_out, f"part={victim}")
    # simulate the crash: final file gone, stale tmp with garbage bytes
    os.remove(os.path.join(pdir, "data.parquet"))
    with open(os.path.join(pdir, "data.parquet.tmp.99999"), "wb") as fh:
        fh.write(b"\x00garbage not parquet")
    doc = json.load(open(os.path.join(tmp_out, "_manifest.json")))
    del doc["partitions"][str(victim)]
    json.dump(doc, open(os.path.join(tmp_out, "_manifest.json"), "w"))

    checkpointed_write(_make_ds(), tmp_out, partition_col="key", n_buckets=8)
    m2 = load_manifest(tmp_out)
    assert m2[victim]["content_hash"] == m1[victim]["content_hash"]
    # the rewritten final file parses
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(pdir, "data.parquet"))
    assert t.num_rows == m2[victim]["rows"]


def _wide_ds(n=400_000):
    """Deterministic rows wide enough that the bucket writes take seconds."""
    import numpy as np
    import ray.data as rd

    def rows(b):
        i = b["id"]
        return {"key": i % 997, "id": i, "text": np.char.mod("%0160d", i * 7919)}

    return rd.range(n, override_num_blocks=16).map_batches(rows, batch_format="numpy")


_WRITER_JOB = """
import sys
import ray
from ray.data import DataContext

ray.init(address=sys.argv[1], logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, sys.argv[3])
from test_checkpoint import _wide_ds
from simplefeatures_ray.state.checkpoint import checkpointed_write

checkpointed_write(_wide_ds(), sys.argv[2], partition_col="key", n_buckets=16)
"""


def _procs() -> dict:
    """{pid: (ppid, argv)} of the live processes."""
    procs = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                argv = f.read().decode(errors="replace").split("\0")
            with open(f"/proc/{pid}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue
        procs[int(pid)] = (ppid, argv)
    return procs


def _raylets(gcs_address: str, procs: dict) -> set:
    """Pids of the raylets in `procs` attached to `gcs_address`."""
    return {pid for pid, (_, argv) in procs.items()
            if argv[0].endswith("/raylet") and f"--gcs-address={gcs_address}" in argv}


def _raylet_children(gcs_address: str) -> dict:
    """{pid: process title} of the worker processes of the raylet
    attached to `gcs_address`."""
    procs = _procs()
    raylets = _raylets(gcs_address, procs)
    return {pid: argv[0] for pid, (ppid, argv) in procs.items() if ppid in raylets}


def test_resume_after_kill_mid_write(ray_session, tmp_path):
    """SIGKILL a writing Ray job after some bucket files exist but before
    the manifest; resuming writes the same files and hashes as an
    uninterrupted run, and the killed job leaves no worker running."""
    import signal
    import subprocess
    import sys
    import time

    import ray

    from simplefeatures_ray.state.checkpoint import (
        MANIFEST,
        checkpointed_write,
        load_manifest,
        verify_manifest,
    )

    # the uninterrupted run first: it also starts Ray Data's detached
    # cluster-wide actors, which then predate the killed job
    ref_dir = str(tmp_path / "uninterrupted")
    ref = checkpointed_write(_wide_ds(), ref_dir, partition_col="key", n_buckets=16)
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(tests_dir)
    gcs = ray.get_runtime_context().gcs_address
    killed = str(tmp_path / "killed")
    os.makedirs(killed)

    def busy():
        return {p for p, t in _raylet_children(gcs).items()
                if t.startswith("ray::") and t != "ray::IDLE"}

    before = busy()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", _WRITER_JOB, gcs, killed, tests_dir],
                            cwd=root, env=env)
    job_workers = set()
    try:
        deadline = time.time() + 300
        while not any(os.path.exists(os.path.join(killed, d, "data.parquet"))
                      for d in os.listdir(killed)):
            assert proc.poll() is None, "the job exited before writing a partition"
            assert time.time() < deadline, "no partition written in 300 s"
            job_workers |= busy() - before
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert not os.path.exists(os.path.join(killed, MANIFEST)), \
        "the job finished before the kill: the test would prove nothing"
    assert job_workers, "no worker was running the killed job's tasks"
    # the killed job's workers die with its process
    deadline = time.time() + 60
    while job_workers & busy():
        assert time.time() < deadline, f"workers still running: {job_workers & busy()}"
        time.sleep(0.1)

    resumed = checkpointed_write(_wide_ds(), killed, partition_col="key", n_buckets=16)

    def written(doc):
        return {b: (p["rows"], p["bytes"], p["content_hash"])
                for b, p in doc["partitions"].items()}

    assert written(resumed) == written(ref)
    assert set(verify_manifest(killed).values()) == {"ok"}
    for bucket in load_manifest(ref_dir):
        name = os.path.join(f"part={bucket}", "data.parquet")
        with open(os.path.join(killed, name), "rb") as a, \
                open(os.path.join(ref_dir, name), "rb") as b:
            assert a.read() == b.read(), bucket
