"""Relational building blocks on ray.data.Dataset, scale-first.

Join strategy (SURVEY.md §4 'Broadcast'): the engine broadcasts the
SMALLER side — `ray.put` an Arrow table once, join inside map_batches
with pyarrow's vectorized hash join (acero) per batch. No shuffle of the
big side. For large×large joins use bucketed_join (hash-partition both
sides on the key via hash_exchange, join per bucket) — an explicit partitioned
hash join, the portable Ray Data pattern.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._arrow import dictionary_codes, grouped_order, run_starts


def _column_hash(col) -> np.ndarray:
    """Deterministic int64 hash of one key column, the same in every
    process: integer keys hash to their value, any other type to the
    blake2b hash of str(value) (computed once per distinct value).
    NULL hashes to 0 — all null keys share a partition."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        return np.asarray(pc.fill_null(pc.cast(col, pa.int64(), safe=False), 0),
                          dtype=np.int64)
    from .dedup import _hash64

    codes, dic = dictionary_codes(col)
    uniq = np.fromiter((0 if v is None else _hash64(str(v)) & 0x7FFFFFFFFFFFFFFF
                        for v in dic.to_pylist()), dtype=np.int64, count=len(dic))
    return uniq[codes]


def key_partition(t: pa.Table, keys, n_parts: int) -> np.ndarray:
    """Shuffle partition in [0, n_parts) of every row of `t` by its
    `keys` columns — the one function that decides which exchange
    partition a key lands in. Equal keys land together in every block
    and process, NULL included (a NULL key is one group); a single
    integer key maps to value mod n_parts."""
    h = _column_hash(t[keys[0]])
    if len(keys) > 1:
        from .dedup import _splitmix64_u64

        with np.errstate(over="ignore"):
            u = h.view(np.uint64)
            for k in keys[1:]:
                u = _splitmix64_u64(u) + _column_hash(t[k]).view(np.uint64)
        return (u % np.uint64(n_parts)).astype(np.int32)
    return (h % n_parts).astype(np.int32)


def collect_table(ds_or_table) -> pa.Table:
    """Materialize a SMALL Dataset to one Arrow table (driver side).
    Only for dimension tables / aggregates, never the main input.

    Consumes the pipeline EXACTLY ONCE via iter_internal_ref_bundles +
    driver-side block conversion. Dataset.to_arrow_refs() would execute
    the plan and then call schema(fetch_if_missing=True), which — on a
    non-materialized lineage — executes the ENTIRE plan a second time
    (ray 2.49 dataset.py:5834-5840); that silently doubled the cost of
    every driver-combined aggregate."""
    if isinstance(ds_or_table, pa.Table):
        return ds_or_table
    import ray
    from ray.data.block import BlockAccessor

    refs = [br for bundle in ds_or_table.iter_internal_ref_bundles()
            for br in bundle.block_refs]
    tables = [BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs)]
    parts = [t for t in tables if t.num_rows]
    if not parts:
        if tables:
            # zero rows but typed blocks exist: keep their schema
            return tables[0]
        # zero BLOCKS: type the result from what the plan knows without
        # running it again
        e = known_empty(ds_or_table)
        return e if e is not None else pa.table({})
    return pa.concat_tables(parts, promote_options="permissive").combine_chunks()


def known_empty(ds) -> pa.Table | None:
    """A typed 0-row table of `ds`'s columns when Ray knows them without
    running `ds`'s lineage: the plan's schema (a parquet read, a
    non-empty from_arrow) or a materialized dataset's block schema.
    None for a lazy map, whose output columns only running it reveals."""
    from ray.data.dataset import MaterializedDataset

    s = ds.schema(fetch_if_missing=False)
    if s is None and isinstance(ds, MaterializedDataset):
        s = next((b.schema for b in ds.iter_internal_ref_bundles()
                  if b.schema is not None), None)
    s = getattr(s, "base_schema", s)
    return s.empty_table() if isinstance(s, pa.Schema) else None


def known_type(ds, col: str) -> pa.DataType:
    """The type of `ds`'s column `col` when known_empty(ds) knows it,
    else the null type."""
    e = known_empty(ds)
    return e.schema.field(col).type if e is not None else pa.null()


def broadcast_join(big_ds, small, keys, right_keys=None, join_type="inner"):
    """big Dataset ⋈ small table/Dataset without shuffling the big side.

    Runs as PLAIN-FUNCTION tasks with a per-worker-process cache of the
    broadcast table (stages/worker_cache.py): the table rides ONE
    ray.put, each standing worker fetches it zero-copy once, and — unlike
    an actor-pool stage — no processes spin up per execution (a 32-actor
    pool costs ~4s of startup EVERY run; the task path costs none)."""
    import ray

    from ..stages.worker_cache import get_cached

    small_ref = ray.put(collect_table(small).combine_chunks())
    keys_l = [keys] if isinstance(keys, str) else list(keys)
    rkeys_l = (keys_l if right_keys is None
               else [right_keys] if isinstance(right_keys, str)
               else list(right_keys))

    def join_small(batch: pa.Table) -> pa.Table:
        s = get_cached(small_ref)
        return batch.join(s, keys=keys_l, right_keys=rkeys_l,
                          join_type=join_type)

    return big_ds.map_batches(join_small, batch_format="pyarrow")


def bucketed_join(left_ds, right_ds, key: str, n_buckets: int = 32,
                  join_type: str = "inner", n_salts: int = 1,
                  right_schema: pa.Schema | None = None,
                  bucket_fn=None):
    """Large×large partitioned hash join: both sides co-partition on
    key_partition(key) in one two-input hash_exchange and join per
    bucket. The all-to-all cost is one exchange of both sides; B
    bounds per-task memory. Each side executes exactly once and no
    `schema()` probe runs: the kernel reads both sides' columns off
    their blocks.

    join_type: 'inner' | 'left outer' | 'left semi' | 'left anti' |
    'full outer' (full outer is incompatible with n_salts > 1 — the
    right-side replication would duplicate unmatched right rows).
    Right non-key columns whose name is also a left column come out
    suffixed `_r`. A right key of another integer type than the left
    key is cast to the left key's type.

    n_salts > 1 is the HOT-KEY guard: every left row additionally takes an
    arbitrary salt in [0, n_salts) (salting is pure load-splitting — the
    join result is identical for ANY assignment) and every right row is
    replicated to all n_salts shards of its bucket, so a single dominant
    key (one grid cell holding a city's worth of points) spreads across
    n_salts tasks at the cost of n_salts x |right| exchange volume —
    the classic skew-join trade.

    right_schema: the right side's schema, used only when the right side
    has no rows at all and Ray cannot know its columns without running
    it (a lazy map over zero rows emits schema-less blocks). Without it
    a 'left outer' join then returns the left rows with NO right
    columns, so a downstream select of a right column KeyErrors only in
    the empty-lazy case; with it the right columns are appended as
    typed nulls.

    bucket_fn: optional Arrow-table kernel applied to each bucket's
    joined table INSIDE the co-partition task. When the join key
    functionally determines the group, a group-by here sees COMPLETE
    groups — the place to fold the post-join aggregation into the same
    all-to-all instead of paying a second shuffle. Must be pure and
    schema-stable (empty bucket in, typed empty out). Note: with
    n_salts > 1 a key's rows SPLIT across salt shards, so group-complete
    aggregation inside bucket_fn is only exact when n_salts == 1."""
    if join_type == "full outer" and n_salts != 1:
        raise ValueError("full outer join cannot be salted")

    # a salt is not a function of the row, so the salted sides carry it
    # as a column: `by` reads it and join_bucket drops it
    def salt_left(t: pa.Table) -> pa.Table:
        salt = (np.arange(len(t)) % n_salts).astype(np.int32)
        return t.append_column("__salt", pa.array(salt))

    def salt_right(t: pa.Table) -> pa.Table:
        rep = np.repeat(np.arange(len(t), dtype=np.int64), n_salts)
        salt = np.tile(np.arange(n_salts, dtype=np.int32), len(t))
        return t.take(pa.array(rep)).append_column("__salt", pa.array(salt))

    def salted_bucket(t: pa.Table) -> np.ndarray:
        return (key_partition(t, [key], n_buckets) * np.int32(n_salts)
                + np.asarray(t["__salt"], dtype=np.int32))

    # A side with no rows can lose its schema in a map upstream (Ray's
    # map operators emit schema-less blocks for zero-row input) and
    # reach join_bucket as pa.table({}); it is typed from the
    # right_schema hint or from what Ray knows of the side without
    # running it.
    l_empty = known_empty(left_ds)
    r_empty = (right_schema.empty_table() if right_schema is not None
               else known_empty(right_ds))

    # per-bucket join in pure Arrow (acero hash join): keeps exact column
    # types — a pandas round-trip would silently promote int64-with-nulls
    # to float64.
    def join_bucket(lhs: pa.Table, rhs: pa.Table) -> pa.Table:
        if n_salts > 1:
            lhs, rhs = (t.drop_columns(["__salt"]) if t.num_columns else t
                        for t in (lhs, rhs))
        if not lhs.num_columns and l_empty is not None:
            lhs = l_empty
        if not rhs.num_columns and r_empty is not None:
            rhs = r_empty
        # a side still schema-less has no rows and unknown columns:
        # inner/semi with it are empty; anti and left outer against it
        # return the left rows; full outer with it returns the other side
        if not lhs.num_columns:
            return rhs if join_type == "full outer" else lhs
        if not rhs.num_columns:
            keep = join_type in ("left anti", "left outer", "full outer")
            return lhs if keep else lhs.slice(0, 0)
        if rhs[key].type != lhs[key].type:
            # acero rejects joining keys of different types
            rhs = rhs.set_column(rhs.schema.get_field_index(key), key,
                                 pc.cast(rhs[key], lhs[key].type))
        out = lhs.join(rhs, keys=key, join_type=join_type, right_suffix="_r")\
                 .replace_schema_metadata(None)
        return bucket_fn(out) if bucket_fn is not None else out

    from ..stages.exchange import hash_exchange

    if n_salts == 1:
        return hash_exchange((left_ds, right_ds), n_buckets, join_bucket, [key])
    return hash_exchange((left_ds.map_batches(salt_left, batch_format="pyarrow"),
                          right_ds.map_batches(salt_right, batch_format="pyarrow")),
                         n_buckets * n_salts, join_bucket, salted_bucket)


def dedup_exact(ds, key_cols, keep_col: str | list | None = None,
                n_parts: int = 64, descending: bool = False):
    """Exact dedup: keep the first row per key (lowest keep_col — or a
    multi-column deterministic tie-break when keep_col is a list; with
    keep_col=None, deterministic first by sorting on all columns).
    descending=True keeps the HIGHEST keep_col instead (keep-latest
    snapshot semantics, e.g. newest warc_ts per url).

    Scale path (SURVEY.md §2.6): per-batch local dedup (combiner) bounds
    the shuffle to one row per (key, block); the final selection runs
    vectorized on a COARSE hash partition of the keys — Ray's map_groups
    pays per GROUP, so one task per distinct key is ruinous at 10^5+
    keys, while n_parts partitions keep task count flat."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    keep_cols = ([keep_col] if isinstance(keep_col, str)
                 else list(keep_col) if keep_col else None)

    def first(t: pa.Table) -> pa.Table:
        extra = (keep_cols if keep_cols else
                 sorted(f.name for f in t.schema
                        if f.name not in key_cols
                        and not pa.types.is_nested(f.type)))
        d = "descending" if descending else "ascending"
        idx, _, rank = grouped_order(t, key_cols, [(c, d) for c in extra])
        return t.take(idx[rank == 0])

    from ..stages.exchange import hash_exchange

    return hash_exchange(ds.map_batches(first, batch_format="pyarrow"),
                         n_parts, first, key_cols)


def topk(ds, key: str, k: int, descending: bool = True, tie_cols=None):
    """Global top-k: per-block partial top-k inside map_batches (combiner),
    then a small sort+limit. Avoids fully sorting the dataset.

    Ties at the k-boundary are broken by tie_cols (default: every other
    ORDERABLE column in schema order, ascending — nested columns like
    embedding lists can't sort) so the result is a TOTAL order — without
    this, which of the tied rows survive depends on block boundaries and
    the output varies with parallelism."""

    def sort_spec(sch: pa.Schema):
        ties = (list(tie_cols) if tie_cols is not None
                else [f.name for f in sch
                      if f.name != key and not pa.types.is_nested(f.type)])
        return ([key] + ties,
                [descending] + [False] * len(ties))

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols, desc = sort_spec(t.schema)
        idx = pc.select_k_unstable(
            t, k=min(k, len(t)),
            sort_keys=[(c, "descending" if d else "ascending")
                       for c, d in zip(cols, desc)])
        return t.take(idx)

    pruned = ds.map_batches(partial, batch_format="pyarrow")
    if tie_cols is not None:
        # explicit ties: the final sort spec needs no schema — never
        # probe (a probe on a lazy post-shuffle input executes the
        # whole upstream once, and the sort then executes it AGAIN)
        cols, desc = [key] + list(tie_cols), \
            [descending] + [False] * len(tie_cols)
        return pruned.sort(cols, descending=desc).limit(k)
    sch = ds.schema()
    if sch is None:
        # zero-row lazy input with no inferable schema: top-k of empty
        # is empty (mirrors bucketed_join's schema-None shortcuts)
        return ds.limit(k)
    cols, desc = sort_spec(getattr(sch, "base_schema", sch))
    return pruned.sort(cols, descending=desc).limit(k)



def _bucket100(keys_col, salt: str) -> "np.ndarray":
    """sha256-derived bucket mod 100 of (salt, key): batched numpy
    SHA-256 for integer keys (one vectorized compression for the whole
    batch), per-row hashlib otherwise — identical digests either way."""
    import hashlib

    import pyarrow as pa_

    if pa_.types.is_integer(keys_col.type) and keys_col.null_count == 0:
        from ._sha256 import sha256_mod100_int_keys

        return sha256_mod100_int_keys(
            salt, np.asarray(keys_col, dtype=np.int64))
    keys = keys_col.to_pylist()
    return np.fromiter(
        (int(hashlib.sha256(f"{salt}:{k}".encode()).hexdigest()[:16], 16)
         % 100 for k in keys), dtype=np.int64, count=len(keys))


def hash_split(ds, key_col: str, splits, salt: str = "split"):
    """Deterministic train/val/test assignment: bucket = sha256-derived
    hash of (salt, key) mod 100, mapped onto cumulative split ranges.

    splits: dict name -> percent, e.g. {"train": 90, "val": 5, "test": 5}
    (must sum to 100). The assignment is a pure per-row map — stable
    across runs, machines and parallelism, and expressible in SQL for
    oracle checks (sha256 hex prefix mod 100).
    """
    import hashlib

    names = list(splits)
    bounds = np.cumsum([int(splits[n]) for n in names])
    if bounds[-1] != 100:
        raise ValueError("split percentages must sum to 100")

    def kernel(t: pa.Table) -> pa.Table:
        h = _bucket100(t[key_col], salt)
        idx = np.searchsorted(bounds, h, side="right")
        out = np.array(names, dtype=object)[idx]
        return t.append_column("split", pa.array([str(s) for s in out], pa.string()))

    return ds.map_batches(kernel, batch_format="pyarrow")


def stratified_sample(ds, group_col: str, key_col: str, fractions,
                      default_pct: int = 0, salt: str = "sample"):
    """Deterministic stratified sampling: keep a row iff its sha256-derived
    bucket of (salt, key) mod 100 falls below its stratum's percentage.

    fractions: dict group-value -> integer percent (0..100); groups not
    listed fall back to default_pct. A pure per-row filter — no shuffle,
    no RNG state, the same rows survive at any parallelism or cluster
    size, and the oracle recomputes the identical hex-prefix hash in SQL.
    This is the scale-safe shape for corpus rebalancing (e.g. downsample
    dominant languages): at 100 TB it's a streaming map_batches filter.
    """
    import hashlib

    fr = {k: int(v) for k, v in fractions.items()}
    for name, pct in fr.items():
        if not 0 <= pct <= 100:
            raise ValueError(f"fraction for {name!r} out of [0,100]")

    def kernel(t: pa.Table) -> pa.Table:
        h = _bucket100(t[key_col], salt)
        groups = t[group_col].to_pylist()
        pct = np.fromiter((fr.get(g, default_pct) for g in groups),
                          dtype=np.int64, count=len(groups))
        return t.filter(pa.array(h < pct))

    return ds.map_batches(kernel, batch_format="pyarrow")


def grouped_topk(ds, keys, order_col: str, k: int, descending: bool = True,
                 tie_col: str | None = None, n_parts: int = 64):
    """Top-k rows per group. Per-batch partial top-k per group (combiner)
    bounds the shuffle to k rows per (group, block); the final per-group
    selection runs vectorized on a COARSE hash partition of the keys
    (never one task per group). Deterministic ties via tie_col."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def head(t: pa.Table) -> pa.Table:
        # explicit tie_col, else every other orderable column in schema
        # order — without a total order, which tied rows survive depends
        # on shuffle arrival order (parallelism-dependent output)
        ties = ([tie_col] if tie_col else
                [f.name for f in t.schema
                 if f.name not in keys + [order_col]
                 and not pa.types.is_nested(f.type)])
        order = [(order_col, "descending" if descending else "ascending")] \
            + [(c, "ascending") for c in ties]
        idx, _, rank = grouped_order(t, keys, order)
        return t.take(idx[rank < k])

    from ..stages.exchange import hash_exchange

    return hash_exchange(ds.map_batches(head, batch_format="pyarrow"),
                         n_parts, head, keys)


def grouped_nunique(ds, keys, value_col: str):
    """Exact distinct-count per group: one dedup shuffle on
    (keys, value) — each distinct pair survives once — then a combiner
    count per group. Never materializes per-group value sets.
    NULL values are ignored (SQL COUNT(DISTINCT v) / pandas nunique
    semantics); groups whose values are all NULL are absent."""
    import pyarrow.compute as pc

    from .agg import grouped_agg

    keys = [keys] if isinstance(keys, str) else list(keys)
    ds = ds.select_columns(keys + [value_col]).map_batches(
        lambda t: t.filter(pc.is_valid(t[value_col])),
        batch_format="pyarrow")
    distinct = dedup_exact(ds, keys + [value_col])
    return grouped_agg(distinct, keys, {"n_distinct": (None, "count")},
                       combine="shuffle")


def exact_stratified_split(ds, group_col: str, key_col: str, splits,
                           salt: str = "exsplit", n_parts: int = 64):
    """EXACT-proportion stratified split: within each group, rows rank
    by a sha256-derived 64-bit hash (key tie-break) and row k of n joins
    split i iff k*100 < n*cum_pct_i. Unlike hash_split's per-row
    threshold (binomial noise around the target percentage), the
    realized proportions are exact per group up to integer rounding —
    the shape used when a benchmark demands an exactly-sized held-out
    set per stratum.

    Scale: ranking needs each group co-located once — ONE coarse
    group-hash shuffle (vectorized in-partition sort + cumcount), the
    same exchange budget as any per-group window. The hash is the pure
    per-row sha map shared with hash_split, so the assignment is stable
    at any parallelism and expressible in SQL."""
    import hashlib

    names = list(splits)
    bounds = np.cumsum([int(splits[n]) for n in names])
    if bounds[-1] != 100:
        raise ValueError("split percentages must sum to 100")

    def add_hash(t: pa.Table) -> pa.Table:
        kc = t[key_col]
        if pa.types.is_integer(kc.type) and kc.null_count == 0:
            from ._sha256 import sha256_u64_int_keys

            h = sha256_u64_int_keys(salt, np.asarray(kc, dtype=np.int64))
        else:
            keys = kc.to_pylist()
            h = np.fromiter(
                (int(hashlib.sha256(f"{salt}:{k}".encode())
                     .hexdigest()[:16], 16)
                 for k in keys), dtype=np.uint64, count=len(keys))
        return t.append_column("__h", pa.array(h, pa.uint64()))

    def assign(t: pa.Table) -> pa.Table:
        idx, g, rank = grouped_order(
            t, [group_col], [("__h", "ascending"), (key_col, "ascending")])
        sizes = np.diff(np.append(run_starts(g), len(g)))
        n = np.repeat(sizes, sizes)
        split = np.zeros(len(g), dtype=np.int64)
        for cum in bounds[:-1]:
            split += (rank * 100 >= n * int(cum)).astype(np.int64)
        out = t.take(idx).drop_columns(["__h"])
        return out.append_column(
            "split", pa.array(np.asarray(names, dtype=object)[split], pa.string()))

    from ..stages.exchange import hash_exchange

    return hash_exchange(ds.map_batches(add_hash, batch_format="pyarrow"),
                         n_parts, assign, [group_col])


def budget_select(ds, *, score_col: str, cost_col: str, budget: int,
                  id_col: str = "doc_id", out_col: str = "picked",
                  descending: bool = True):
    """Fill a COST BUDGET with the best-ranked rows — the training-data
    curation step "take the highest-quality documents until the token
    budget is spent": rank by (score_col DESC, id_col ASC) [a total
    order], pick every row whose RUNNING cost sum (inclusive, in rank
    order) stays <= budget. A row that would overflow the budget is
    skipped and so is everything ranked below it (prefix semantics =
    SQL `SUM(cost) OVER (ORDER BY ...) <= budget`, not best-fit
    knapsack).

    Scale shape: ONE range-partitioned sort exchange (ds.sort — Ray's
    sample+range shuffle), then a two-phase distributed prefix sum: each
    sorted block contributes its cost total (blocks x 1 ints, collected
    driver-side), the driver's exclusive scan of those totals broadcasts
    back as per-block offsets, and each block finishes its own inclusive
    cumsum locally. No row ever leaves its post-sort block; the only
    driver data is one int per block. Integer costs sum exactly.

    Returns the sorted Dataset with out_col (bool) appended.
    """
    import ray

    sorted_ds = ds.sort([score_col, id_col], descending=[descending, False])
    # phase 1: per-block cost totals, in block order. iter_internal_ref
    # bundles preserves the sorted block order; one remote task per
    # block reads only the cost column sum (no row materialization
    # driver-side).
    refs = [br for bundle in sorted_ds.iter_internal_ref_bundles()
            for br in bundle.block_refs]

    @ray.remote
    def block_total(tbl):
        """(cost total, first (score, id), last (score, id)) of a block."""
        from ray.data.block import BlockAccessor

        if not isinstance(tbl, pa.Table):
            tbl = BlockAccessor.for_block(tbl).to_arrow()
        if tbl.num_rows == 0 or cost_col not in tbl.column_names:
            return 0, None, None
        ends = tbl.select([score_col, id_col]).take([0, tbl.num_rows - 1])
        first, last = (tuple(r.values()) for r in ends.to_pylist())
        return int(np.asarray(tbl[cost_col], dtype=np.int64).sum()), first, last

    stats = ray.get([block_total.remote(r) for r in refs])
    # the offsets are only right if the blocks arrive in sorted order:
    # check that each block starts at or after where the previous one
    # ended in the (score, id) rank order
    ends = [(f, la) for _, f, la in stats if f is not None]

    def rank(end):
        score, i = end
        return (-score if descending else score, i)

    for (_, prev_last), (nxt_first, _) in zip(ends, ends[1:]):
        if None not in prev_last + nxt_first and rank(nxt_first) < rank(prev_last):
            raise RuntimeError(
                "budget_select: sorted blocks arrived out of rank order "
                f"(block ending at {prev_last} precedes one starting at "
                f"{nxt_first}); running cost offsets would be wrong")
    totals = [tot for tot, _, _ in stats]
    offsets = np.concatenate([[0], np.cumsum(totals[:-1], dtype=np.int64)]) \
        if totals else np.zeros(0, dtype=np.int64)

    # phase 2: per-block inclusive cumsum + broadcast offset
    @ray.remote
    def flag_block(tbl, offset: int):
        from ray.data.block import BlockAccessor

        if not isinstance(tbl, pa.Table):
            tbl = BlockAccessor.for_block(tbl).to_arrow()
        if tbl.num_rows == 0:
            return tbl.append_column(out_col, pa.array([], pa.bool_())) \
                if tbl.num_columns else tbl
        c = np.asarray(tbl[cost_col], dtype=np.int64)
        run = np.cumsum(c, dtype=np.int64) + offset
        return tbl.append_column(out_col, pa.array(run <= budget))

    import ray.data as rd

    out_refs = [flag_block.remote(r, int(offsets[i]))
                for i, r in enumerate(refs)]
    return rd.from_arrow_refs(out_refs)
