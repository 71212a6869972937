"""stages/exchange.py: the task-based co-partition primitive.

Contracts pinned here:
  * group-completeness — every row of a partition reaches exactly one
    reduce call, none are dropped or duplicated, at any block structure;
  * empty partitions produce typed empty outputs (schema-stable result);
  * zero-row/schema-less blocks (Ray map operators emit zero-COLUMN
    empty blocks) pass through without poisoning the exchange;
  * parity with groupby().map_groups on a shared kernel;
  * k inputs: fn(t_0, …, t_{k-1}) once per partition, in partition
    order, with one table per input (typed empty, or pa.table({}) for an
    input without a typed block);
  * `by` partitions inside the split: `fn` sees exactly its input's
    columns, and a partition outside [0, n_parts) fails loudly.
"""
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray.data as rd

from simplefeatures_ray.stages.exchange import hash_exchange, launch_exchange


def _mk(n, parts, seed=0, n_blocks=4):
    rng = np.random.default_rng(seed)
    t = pa.table({
        "k": rng.integers(0, 1000, n).astype(np.int64),
        "v": rng.random(n),
        "__bucket": rng.integers(0, parts, n).astype(np.int32),
    })
    ds = rd.from_arrow(t)
    if n_blocks > 1:
        ds = ds.repartition(n_blocks)
    return t, ds


def test_group_complete_and_exact(ray_session):
    P = 8
    t, ds = _mk(5000, P, seed=1)

    def per_part(g: pa.Table) -> pa.Table:
        b = np.asarray(g["__bucket"], dtype=np.int32)
        assert len(np.unique(b)) <= 1
        return pa.table({
            "part": pa.array([int(b[0]) if len(b) else -1], pa.int32()),
            "n": pa.array([g.num_rows], pa.int64()),
            "s": pa.array([float(np.asarray(g["v"]).sum())], pa.float64()),
        })

    out = hash_exchange(ds, P, per_part, lambda t: t["__bucket"],
                        empty_out=per_part(t.slice(0, 0))).to_pandas()
    assert len(out) == P
    assert out["n"].sum() == 5000
    b = np.asarray(t["__bucket"])
    v = np.asarray(t["v"])
    for p in range(P):
        got = out[out["part"] == p]["s"]
        if len(got):
            assert np.isclose(float(got.iloc[0]), float(v[b == p].sum()))


def test_empty_partitions_typed(ray_session):
    # only bucket 3 has rows out of 6 partitions
    t = pa.table({"x": pa.array([1, 2], pa.int64()),
                  "__bucket": pa.array([3, 3], pa.int32())})
    ds = rd.from_arrow(t)

    def f(g: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([g.num_rows], pa.int64())})

    out = hash_exchange(ds, 6, f, lambda t: t["__bucket"], empty_out=f(t.slice(0, 0))).to_pandas()
    assert list(out["n"]) == [0, 0, 0, 2, 0, 0]


def test_empty_out_skips_fn(ray_session):
    t = pa.table({"x": pa.array([5], pa.int64()),
                  "__bucket": pa.array([0], pa.int32())})
    ds = rd.from_arrow(t)

    def brittle(g: pa.Table) -> pa.Table:
        # kernel that CRASHES on empty input (like many pandas kernels)
        x = np.asarray(g["x"], dtype=np.int64)
        return pa.table({"m": pa.array([int(x.max())], pa.int64())})

    out = hash_exchange(
        ds, 4, brittle, lambda t: t["__bucket"],
        empty_out=pa.table({"m": pa.array([], pa.int64())})).to_pandas()
    assert list(out["m"]) == [5]


def test_schemaless_empty_blocks_tolerated(ray_session):
    # chain two exchanges: the first emits typed-empty blocks that Ray's
    # map operators degrade to zero-column blocks before the second
    t = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                  "__bucket": pa.array([0, 0, 1, 1], pa.int32())})
    e = t.slice(0, 0)
    first = hash_exchange(rd.from_arrow(t), 4, lambda g: g, lambda t: t["__bucket"], empty_out=e)

    def rebucket(g: pa.Table) -> pa.Table:
        k = np.asarray(g["k"], dtype=np.int64)
        return pa.table({"k": g["k"],
                         "__bucket": pa.array((k % 3).astype(np.int32))})

    second = hash_exchange(first.map_batches(rebucket, batch_format="pyarrow"),
                           3, lambda g: g, lambda t: t["__bucket"], empty_out=e)
    got = sorted(r["k"] for r in second.take_all())
    assert got == [1, 2, 3, 4]


def test_parity_with_groupby(ray_session):
    P = 5
    t, ds = _mk(2000, P, seed=7, n_blocks=3)

    def agg(g: pa.Table) -> pa.Table:
        out = g.group_by("k").aggregate([("v", "sum")])
        return out.rename_columns(["k", "vs"])

    a = hash_exchange(ds, P, agg, lambda t: t["__bucket"],
                      empty_out=agg(t.slice(0, 0))).to_pandas()
    b = (ds.groupby("__bucket").map_groups(agg, batch_format="pyarrow")
         .to_pandas())
    a = a.sort_values(["k", "vs"]).reset_index(drop=True)
    b = b.sort_values(["k", "vs"]).reset_index(drop=True)
    # per-bucket k-groups are identical; sums may differ in float order
    assert (a["k"] == b["k"]).all()
    assert np.allclose(a["vs"], b["vs"])


def test_zero_input_blocks(ray_session):
    t = pa.table({"k": pa.array([], pa.int64()),
                  "__bucket": pa.array([], pa.int32())})
    ds = rd.from_arrow(t).map_batches(lambda g: g, batch_format="pyarrow")

    def f(g: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([g.num_rows], pa.int64())})

    out = hash_exchange(ds, 3, f, lambda t: t["__bucket"], empty_out=f(t.slice(0, 0))).to_pandas()
    assert list(out["n"]) == [0, 0, 0]


def test_single_partition_multi_block(ray_session):
    """n_parts=1: every row of every block reaches the one reduce, once."""
    t, ds = _mk(3000, 1, seed=3, n_blocks=5)

    out = hash_exchange(ds, 1, lambda g: g, lambda t: t["__bucket"]).to_pandas()
    assert len(out) == 3000
    assert sorted(out["k"]) == sorted(t["k"].to_pylist())
    assert np.isclose(out["v"].sum(), float(np.asarray(t["v"]).sum()))


def test_checkpointed_write_one_bucket(ray_session, tmp_path):
    from simplefeatures_ray.state.checkpoint import (
        checkpointed_write, load_manifest, verify_manifest)

    ds = rd.range(2000).repartition(4).map_batches(
        lambda b: {"id": b["id"], "key": b["id"] % 37}, batch_format="numpy")
    out_dir = str(tmp_path / "one")
    doc = checkpointed_write(ds, out_dir, partition_col="key", n_buckets=1)
    assert doc["total_rows"] == 2000
    assert list(load_manifest(out_dir)) == [0]
    assert verify_manifest(out_dir) == {0: "ok"}


# --------------------------------------------------------------------------- #
# more partitions than reduce groups: the session has 4 CPUs, so
# R = min(n_parts, 2 × 4) = 8 reduce tasks each run `fn` over a
# contiguous range of partitions
# --------------------------------------------------------------------------- #


def _sparse(n, P, seed, n_blocks):
    """Rows over every partition but each 7th, so some partitions are
    empty; `id` is unique."""
    rng = np.random.default_rng(seed)
    live = np.array([p for p in range(P) if p % 7 != 3], dtype=np.int64)
    t = pa.table({
        "id": np.arange(n, dtype=np.int64),
        "v": rng.random(n),
        "__bucket": rng.choice(live, n),
    })
    ds = rd.from_arrow(t)
    return t, (ds.repartition(n_blocks) if n_blocks > 1 else ds)


def _by_part(t: pa.Table) -> pa.Table:
    """Per-partition reference: rows in partition order, each partition
    sorted by id."""
    return t.sort_by([("__bucket", "ascending"), ("id", "ascending")])


def _blocks(ds) -> list:
    """The output blocks of `ds`, in block order."""
    import ray

    return ray.get([r for b in ds.iter_internal_ref_bundles() for r in b.block_refs])


@pytest.mark.parametrize("P", [64, 256])
@pytest.mark.parametrize("n_blocks", [1, 5, 24])
def test_grouped_reduce_once_per_partition(ray_session, P, n_blocks):
    t, ds = _sparse(6000, P, seed=P + n_blocks, n_blocks=n_blocks)
    counts = np.bincount(np.asarray(t["__bucket"]), minlength=P)
    assert (counts == 0).any() and (counts > 0).sum() > P // 2

    def per_part(g: pa.Table) -> pa.Table:
        b = np.asarray(g["__bucket"], dtype=np.int64)
        assert len(np.unique(b)) <= 1
        return pa.table({"part": pa.array([int(b[0]) if len(b) else -1], pa.int64()),
                         "n": pa.array([g.num_rows], pa.int64())})

    # without `empty_out`, fn runs once for EVERY partition, empties
    # included, in partition order (empties report -1)
    out = hash_exchange(ds, P, per_part, lambda t: t["__bucket"])
    df = out.to_pandas()
    assert len(df) == P
    assert df["part"].tolist() == [p if counts[p] else -1 for p in range(P)]
    assert df["n"].tolist() == counts.tolist()
    # each output block is a contiguous run of whole partitions
    blocks = [np.asarray(b["part"]) for b in _blocks(out)]
    assert len(blocks) == 8
    assert np.array_equal(np.concatenate(blocks), df["part"].to_numpy())

    # `empty_out`: fn runs once per NON-empty partition only
    typed = pa.schema([("part", pa.int64()), ("n", pa.int64())]).empty_table()
    df = hash_exchange(ds, P, per_part, lambda t: t["__bucket"], empty_out=typed).to_pandas()
    assert df["part"].tolist() == np.flatnonzero(counts).tolist()
    assert df["n"].tolist() == counts[counts > 0].tolist()

    # the rows themselves, in partition order
    rows = hash_exchange(ds, P, lambda g: g.sort_by("id"), lambda t: t["__bucket"],
                         empty_out=t.slice(0, 0))
    assert pa.concat_tables(_blocks(rows)).equals(_by_part(t))


def test_schemaless_block_inside_coalesced_run(ray_session):
    import ray

    P = 64
    t, _ = _sparse(3000, P, seed=5, n_blocks=1)
    pieces = [t.slice(0, 1000), pa.table({}), t.slice(1000, 0),
              t.slice(1000, 1000), pa.table({}), t.slice(2000, 1000)]
    ds = rd.from_arrow_refs([ray.put(p) for p in pieces])
    out = hash_exchange(ds, P, lambda g: g.sort_by("id"), lambda t: t["__bucket"],
                        empty_out=t.slice(0, 0))
    assert pa.concat_tables(_blocks(out)).equals(_by_part(t))


def test_fanin_tree_level(ray_session, monkeypatch):
    from simplefeatures_ray.stages import exchange

    monkeypatch.setattr(exchange, "_FANIN", 3)
    P = 64
    # 24 blocks -> 8 runs of <= 3 blocks -> one concat level of 3 rows
    t, ds = _sparse(6000, P, seed=9, n_blocks=24)
    out = hash_exchange(ds, P, lambda g: g.sort_by("id"), lambda t: t["__bucket"],
                        empty_out=t.slice(0, 0))
    assert pa.concat_tables(_blocks(out)).equals(_by_part(t))
    splits = exchange._split(ds.iter_internal_ref_bundles(), lambda t: t["__bucket"], P, 8)
    assert len(splits) <= 3 and all(len(s) == 8 for s in splits)


# --------------------------------------------------------------------------- #
# k inputs: fn(t_0, …, t_{k-1}) once per partition, one table per input
# --------------------------------------------------------------------------- #


def _two_inputs(P, seed=21, a_blocks=5, b_blocks=3):
    """Input a spans every partition but each 7th; input b (another
    schema, another block count) only the even partitions."""
    rng = np.random.default_rng(seed)
    a, _ = _sparse(3000, P, seed, n_blocks=1)
    n = 1000
    b = pa.table({
        "name": pa.array([f"n{i}" for i in range(n)]),
        "w": pa.array(np.arange(n, dtype=np.int32)),
        "__bucket": pa.array(rng.integers(0, P // 2, n) * 2),
    })
    return (a, b, rd.from_arrow(a).repartition(a_blocks),
            rd.from_arrow(b).repartition(b_blocks))


def _kernels():
    """(summary, both_rows): two-input kernels, built here so Ray
    pickles them by value (workers cannot import this test module)."""

    def schema_str(t: pa.Table) -> str:
        return ",".join(f"{f.name}:{f.type}" for f in t.schema)

    def summary(ta: pa.Table, tb: pa.Table) -> pa.Table:
        parts = set()
        for t in (ta, tb):
            if t.num_rows:
                parts |= set(np.unique(np.asarray(t["__bucket"])).tolist())
        assert len(parts) <= 1
        return pa.table({"part": pa.array([parts.pop() if parts else -1], pa.int64()),
                         "na": pa.array([ta.num_rows], pa.int64()),
                         "nb": pa.array([tb.num_rows], pa.int64()),
                         "a_schema": [schema_str(ta)],
                         "b_schema": [schema_str(tb)]})

    def both_rows(ta: pa.Table, tb: pa.Table) -> pa.Table:
        """Both inputs' rows of one partition as (id, __bucket), b's ids
        offset by 10^6, sorted by id."""
        ids, parts = [ta["id"]], [ta["__bucket"]]
        if tb.num_columns:
            ids.append(pc.add(pc.cast(tb["w"], pa.int64()), 10**6))
            parts.append(tb["__bucket"])
        return pa.table({
            "id": pa.chunked_array([c for x in ids for c in x.chunks], pa.int64()),
            "__bucket": pa.chunked_array([c for x in parts for c in x.chunks],
                                         pa.int64()),
        }).sort_by("id")

    return summary, both_rows


def _both_ref(a: pa.Table, b: pa.Table) -> pa.Table:
    return _by_part(pa.table({
        "id": pa.concat_arrays([a["id"].combine_chunks(),
                                pc.add(pc.cast(b["w"], pa.int64()), 10**6)
                                .combine_chunks()]),
        "__bucket": pa.concat_arrays([a["__bucket"].combine_chunks(),
                                      b["__bucket"].combine_chunks()])}))


def test_two_inputs_once_per_partition_in_order(ray_session):
    """Different schemas and block counts; fn runs once per partition in
    partition order, each input's rows of that partition complete, and
    an input with no rows in a partition arrives as a TYPED empty."""
    summary, both_rows = _kernels()
    P = 64
    a, b, da, db = _two_inputs(P)
    ca = np.bincount(np.asarray(a["__bucket"]), minlength=P)
    cb = np.bincount(np.asarray(b["__bucket"]), minlength=P)
    assert (cb == 0).any() and ((ca > 0) & (cb == 0)).any()
    df = hash_exchange((da, db), P, summary, lambda t: t["__bucket"]).to_pandas()
    assert len(df) == P
    assert df["na"].tolist() == ca.tolist()
    assert df["nb"].tolist() == cb.tolist()
    live = (ca > 0) | (cb > 0)
    assert df["part"].tolist() == [p if live[p] else -1 for p in range(P)]
    assert set(df["a_schema"]) == {"id:int64,v:double,__bucket:int64"}
    assert set(df["b_schema"]) == {"name:string,w:int32,__bucket:int64"}
    # the rows themselves, partition by partition
    out = hash_exchange((da, db), P, both_rows, lambda t: t["__bucket"])
    assert pa.concat_tables(_blocks(out)).equals(_both_ref(a, b))


def test_input_with_zero_blocks(ray_session):
    """An input with no blocks at all arrives as pa.table({}) in every
    partition; when no input has a typed block, fn is not called."""
    summary, _ = _kernels()
    P = 16
    a, _, da, _ = _two_inputs(P)
    df = hash_exchange((da, rd.from_arrow_refs([])), P, summary, lambda t: t["__bucket"]).to_pandas()
    assert len(df) == P and set(df["b_schema"]) == {""}
    assert df["na"].tolist() == np.bincount(np.asarray(a["__bucket"]),
                                            minlength=P).tolist()

    def never(*ts):
        raise AssertionError("fn called on schema-less inputs")

    none = hash_exchange((rd.from_arrow_refs([]), rd.from_arrow_refs([])), P, never,
                         lambda t: t["__bucket"])
    assert sum(t.num_rows for t in _blocks(none)) == 0


def test_two_inputs_fanin_tree_level_on_one_input(ray_session, monkeypatch):
    from simplefeatures_ray.stages import exchange

    monkeypatch.setattr(exchange, "_FANIN", 3)
    P = 64
    # a: 24 blocks -> 8 runs of <= 3 blocks -> one concat level; b: 2 blocks
    a, b, da, db = _two_inputs(P, seed=9, a_blocks=24, b_blocks=2)
    out = hash_exchange((da, db), P, _kernels()[1], lambda t: t["__bucket"])
    assert pa.concat_tables(_blocks(out)).equals(_both_ref(a, b))


# --------------------------------------------------------------------------- #
# `by`: the exchange computes each row's partition in its split tasks
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("bad", [4, -1])
def test_out_of_range_partition_raises(ray_session, bad):
    """A partition outside [0, n_parts) belongs to no reduce call: the
    split task fails naming it instead of dropping the row."""
    import ray

    t = pa.table({"k": pa.array([0, 1, 3, bad, 2], pa.int64())})
    outs = launch_exchange(rd.from_arrow(t), 4, lambda g: g, lambda t: t["k"])
    with pytest.raises(ValueError, match=rf"\[{bad}\]"):
        ray.get(outs)


def _own_columns(P, keys, cols):
    """k-input kernel: input i has exactly the columns cols[i], and every
    row of every input has one key_partition (of keys[i]); returns input
    0 unchanged."""

    def fn(*ts):
        from simplefeatures_ray.functions.relational import key_partition

        parts = set()
        for t, k, c in zip(ts, keys, cols):
            assert t.column_names == c, t.column_names
            parts |= set(key_partition(t, k, P).tolist())
        assert len(parts) <= 1
        return ts[0]

    return fn


def test_key_by_fn_sees_own_columns(ray_session):
    """Key-list `by`, for one input and for a k-input tuple: `fn` gets and
    returns exactly its input's columns; nothing is added or dropped."""
    P = 16
    rng = np.random.default_rng(3)
    a = pa.table({"k": pa.array(rng.integers(0, 50, 2000)),
                  "v": pa.array(rng.random(2000))})
    b = pa.table({"key2": pa.array(rng.integers(0, 50, 500)),
                  "w": pa.array([f"w{i}" for i in range(500)])})
    da, db = rd.from_arrow(a).repartition(4), rd.from_arrow(b).repartition(3)
    ca, cb = a.column_names, b.column_names
    one = hash_exchange(da, P, _own_columns(P, [["k"]], [ca]), ["k"])
    two = hash_exchange((da, db), P, _own_columns(P, [["k"], ["key2"]], [ca, cb]),
                        (["k"], ["key2"]))
    rev = hash_exchange((db, da), P, _own_columns(P, [["key2"], ["k"]], [cb, ca]),
                        (["key2"], ["k"]))
    for out, want in ((one, a), (two, a), (rev, b)):
        got = pa.concat_tables(_blocks(out))
        assert got.column_names == want.column_names
        order = [(c, "ascending") for c in want.column_names]
        assert got.sort_by(order).equals(want.sort_by(order))


# --------------------------------------------------------------------------- #
# node loss: Ray's lineage reconstruction re-runs the lost reduce tasks
# --------------------------------------------------------------------------- #

_NODE_LOSS_JOB = """
import signal
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.cluster_utils import Cluster
from ray.data import DataContext

# a terminated job still runs `finally` and shuts its cluster down
signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
small = {"object_store_memory": 80 << 20, "include_dashboard": False}
# the head node has no CPU, so every task runs on the worker node
cluster = Cluster(initialize_head=True, head_node_args={"num_cpus": 0, **small})
try:
    # connect before the worker node exists: a driver binds to a raylet
    # of its own host, which would otherwise be either node
    ray.init(address=cluster.address, logging_level="ERROR")
    print("GCS", cluster.gcs_address, flush=True)
    worker = cluster.add_node(num_cpus=2, **small)
    DataContext.get_current().enable_progress_bars = False
    from simplefeatures_ray.stages.exchange import hash_exchange

    rng = np.random.default_rng(0)
    a = pa.table({"k": rng.integers(0, 1000, 100_000), "v": rng.random(100_000)})
    b = pa.table({"k": rng.integers(0, 1000, 50_000), "w": rng.random(50_000)})

    def plus_one(t):
        return t.set_column(1, t.column_names[1], pc.add(t[1], 1.0))

    def one(t):
        return t.sort_by([("k", "ascending"), ("v", "ascending")])

    def two(ta, tb):
        return one(pa.concat_tables([ta, tb.rename_columns(["k", "v"])]))

    def exchanges():
        da, db = (rd.from_arrow(t).repartition(n).map_batches(plus_one, batch_format="pyarrow")
                  for t, n in ((a, 6), (b, 4)))
        return (hash_exchange(da, 8, one, ["k"]),
                hash_exchange((da, db), 8, two, (["k"], ["k"])))

    def rows(ds):
        return pa.concat_tables(ray.get(ds.to_arrow_refs()))

    want = [rows(ds) for ds in exchanges()]
    lost = exchanges()
    refs = [r for ds in lost for r in ds.to_arrow_refs()]
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    where = ray.experimental.get_object_locations(refs)
    assert all(w["node_ids"] == [worker.node_id] for w in where.values()), where
    cluster.remove_node(worker)
    cluster.add_node(num_cpus=2, **small)
    got = [rows(ds) for ds in lost]
    assert [g.num_rows for g in got] == [100_000, 150_000]
    assert all(g.equals(w) for g, w in zip(got, want))
    print("RECOVERED", flush=True)
finally:
    ray.shutdown()
    cluster.shutdown()
"""


def test_node_loss_recovered_by_lineage():
    """A 2-node cluster loses the node holding every reduce output of a
    one-input and of a two-input exchange; Ray resubmits the lost tasks
    and both Datasets give the rows of an uninterrupted run. Runs in its
    own process, since the session's Ray is a one-node cluster."""
    import os
    import subprocess
    import sys
    import time

    from test_checkpoint import _procs, _raylets

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", _NODE_LOSS_JOB], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        proc.terminate()
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if "GCS " in out:
        gcs = out.split("GCS ", 1)[1].split()[0]
        deadline = time.time() + 30
        while _raylets(gcs, _procs()):
            assert time.time() < deadline, f"raylets left running: {_raylets(gcs, _procs())}"
            time.sleep(0.2)
    assert proc.returncode == 0 and "RECOVERED" in out, err[-3000:]
    assert "Attempting to recover" in err, "no lost object was resubmitted"
