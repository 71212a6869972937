"""Windowed aggregates + as-of joins over event streams.

Streaming-only concepts per SURVEY §2.10: the reference has none;
engine-side, 'streaming' is Ray Data's pipelined block execution, and
event-time semantics are expressed as deterministic window keys:

  * tumbling windows: window key = epoch // width (pure map, combiner
    aggregation — no per-event shuffle);
  * sliding windows: each event flat-maps into the windows covering it,
    then the same combiner aggregation;
  * as-of join: bucket both sides by key, per-bucket sorted search
    (sort-merge within co-located buckets — the guide's portable
    pattern).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import hash_exchange
from ._arrow import (aggregate, as_int64, cents_half_away, grouped_cumsum,
                     grouped_order, run_starts)
from .relational import known_empty


def _epoch_us(col: pa.ChunkedArray) -> np.ndarray:
    return np.asarray(pc.cast(col, pa.int64()))


def _asof_match(lk, lt, rk, rt, direction: str) -> pa.Array:
    """For each left (key, ts), the index of the right row with the same
    key and the latest rt <= ts ("backward") or the earliest rt >= ts
    ("forward"); null where there is none. Both sides' (key, ts) pairs
    are ranked into one int64 sort key so a single searchsorted finds
    every match."""
    kc = np.unique(np.concatenate([lk, rk]), return_inverse=True)[1]
    tc = np.unique(np.concatenate([lt, rt]), return_inverse=True)[1]
    comp = kc.astype(np.int64) * (int(tc.max(initial=0)) + 1) + tc
    lc, rc = comp[:len(lk)], comp[len(lk):]
    order = np.argsort(rc, kind="stable")
    if direction == "backward":
        pos = np.searchsorted(rc[order], lc, side="right") - 1
    else:
        pos = np.searchsorted(rc[order], lc, side="left")
    ok = (pos >= 0) & (pos < len(rc))
    pos = np.where(ok, pos, 0)
    ok &= rk[order][pos] == lk
    return pa.array(order[pos], mask=~ok)


def tumbling_window_agg(ds, ts_col: str, width_s: float, keys, spec):
    """Aggregate per (window, *keys). spec as in functions.agg.grouped_agg.
    Adds window_start (epoch seconds, int64).

    The partials combine through a shuffle: the (window x key) partial
    space grows without bound over long time ranges, so streaming them
    to the driver is not safe."""
    from .agg import grouped_agg

    width_us = int(width_s * 1_000_000)

    def add_window(t: pa.Table) -> pa.Table:
        us = _epoch_us(t[ts_col])
        start = (us // width_us) * width_us // 1_000_000
        return t.append_column("window_start", pa.array(start, pa.int64()))

    keyed = ds.map_batches(add_window, batch_format="pyarrow")
    keys = [keys] if isinstance(keys, str) else list(keys)
    return grouped_agg(keyed, ["window_start"] + keys, spec, combine="shuffle")


def sliding_window_agg(ds, ts_col: str, width_s: float, slide_s: float, keys, spec):
    """Overlapping windows: event at t belongs to every window
    [k*slide, k*slide + width) containing t — flat-map into window rows,
    then combiner aggregation through a shuffle (as tumbling_window_agg)."""
    from .agg import grouped_agg

    width_us = int(width_s * 1_000_000)
    slide_us = int(slide_s * 1_000_000)
    n_windows = int(np.ceil(width_us / slide_us))

    def explode(t: pa.Table) -> pa.Table:
        us = _epoch_us(t[ts_col])
        parts = []
        for k in range(n_windows):
            start = ((us - k * slide_us) // slide_us) * slide_us
            ok = (us >= start) & (us < start + width_us)
            sub = t.filter(pa.array(ok))
            if len(sub):
                parts.append(sub.append_column(
                    "window_start",
                    pa.array((start[ok] // 1_000_000).astype(np.int64), pa.int64()),
                ))
        if not parts:
            return t.slice(0, 0).append_column("window_start", pa.array([], pa.int64()))
        return pa.concat_tables(parts)

    keyed = ds.map_batches(explode, batch_format="pyarrow")
    keys = [keys] if isinstance(keys, str) else list(keys)
    return grouped_agg(keyed, ["window_start"] + keys, spec, combine="shuffle")


def asof_join(left_ds, right_ds, key: str, ts_left: str, ts_right: str,
              right_cols, n_buckets: int = 32, direction: str = "backward"):
    """For each left row, the latest right row with ts_right <= ts_left
    (direction='backward') or the earliest with ts_right >= ts_left
    (direction='forward') sharing `key`. Bucketed sort-merge: both sides
    shuffle once on key_partition(key); each bucket is matched by one
    sorted search over its (key, ts) pairs.

    right_cols: columns of the right side to carry (suffixed _right if
    clashing).

    Ties: when several right rows share the same (key, ts_right), the
    one with the largest right_cols[0] wins. Without that rule the pick
    among tied timestamps would depend on block arrival order and differ
    across runs.

    Output: the left columns, then ts_right and the other right_cols
    (suffixed _right where a left column has the name); a left row
    without a match carries nulls there."""
    rhs_cols = [key, ts_right] + [c for c in right_cols if c not in (key, ts_right)]
    rout = [c for c in rhs_cols if c != key]
    # a right side with no rows anywhere arrives schema-less; its columns
    # are then typed as far as Ray knows them unrun (see bucketed_join),
    # else null-typed
    r_empty = known_empty(right_ds)
    if r_empty is None:
        r_empty = pa.table({c: pa.nulls(0) for c in rhs_cols})

    def merge_bucket(lhs: pa.Table, rhs: pa.Table) -> pa.Table:
        if not lhs.num_columns:
            return lhs  # no left rows anywhere -> no output rows
        rhs = (rhs if rhs.num_columns else r_empty).select(rhs_cols)
        rnames = [c + "_right" if c in lhs.column_names else c for c in rout]
        lhs = lhs.take(pc.sort_indices(lhs, [(ts_left, "ascending")]))
        if rhs.num_rows:
            if right_cols:
                # deterministic tie-break: keep the max-right_cols[0] row
                # per (key, ts_right)
                idx, _, rank = grouped_order(rhs, [key, ts_right],
                                             [(right_cols[0], "descending")])
                rhs = rhs.take(idx[rank == 0])
            match = _asof_match(
                np.asarray(lhs[key], dtype=np.int64), as_int64(lhs[ts_left]),
                np.asarray(rhs[key], dtype=np.int64), as_int64(rhs[ts_right]),
                direction)
            right = [c.take(match) for c in rhs.select(rout).columns]
        else:
            right = [pa.nulls(lhs.num_rows, c.type) for c in rhs.select(rout).columns]
        for name, c in zip(rnames, right):
            lhs = lhs.append_column(name, c)
        return lhs

    return hash_exchange((left_ds, right_ds), n_buckets, merge_bucket, [key])


def sessionize(ds, key: str, ts_col: str, gap_s: float, id_cols=(),
               tie_col: str | None = None, n_parts: int = 64):
    """Gap-based sessionization: within each key, events sorted by
    (ts, tie_col) start a new session whenever the gap to the previous
    event exceeds gap_s. Emits session_seq (0-based per key).

    Shuffle shape: ONE groupby on a COARSE partition of the key
    (key %% n_parts) — same co-location guarantee as groupby(key), but
    the per-group map_groups overhead is paid n_parts times instead of
    once per key (Ray's per-group cost dominates with many small
    groups). Inside a partition all keys are sessionized in one
    vectorized pass: sort by (key, ts, tie), new-session flags where
    the gap exceeds gap_s or the key changes, per-key cumsum via
    a grouped cumulative sum."""
    gap_us = int(gap_s * 1_000_000)
    id_cols = list(id_cols)

    def per_part(t: pa.Table) -> pa.Table:
        order = [(ts_col, "ascending")] + ([(tie_col, "ascending")] if tie_col else [])
        idx, g, rank = grouped_order(t, [key], order)
        t = t.take(idx)
        us = as_int64(t[ts_col])
        new_sess = np.zeros(len(g), dtype=np.int64)
        new_sess[1:] = (np.diff(us) > gap_us) & (rank[1:] > 0)
        return t.select([key] + id_cols + [ts_col]).append_column(
            "session_seq", pa.array(grouped_cumsum(new_sess, g)))

    return hash_exchange(ds, n_parts, per_part, [key])


def interval_join(left_ds, intervals_ds, t_col: str, start_col: str,
                  end_col: str, bucket: int, n_buckets: int = 32,
                  n_salts: int = 1):
    """Large x large point-in-interval join — the 1-D time-domain analog
    of stages/join.cell_spatial_join: each interval is exploded to the
    integer buckets it covers (vectorized np.repeat, bounded fan-out
    when `bucket` ~ the median interval length), each point carries its
    single bucket, both sides meet through one hash-bucket equi-join
    (relational.bucketed_join), and an exact start <= t <= end refine
    follows. A point lies in exactly one bucket, so every matching
    (point, interval) pair is emitted exactly once — no dedup pass.

    All three of t_col/start_col/end_col must be int64-comparable (e.g.
    epoch microseconds); `bucket` is in the same unit.
    """
    from .relational import bucketed_join

    def tag(t: pa.Table) -> pa.Table:
        v = np.asarray(t[t_col], dtype=np.int64)
        return t.append_column("__b", pa.array(v // int(bucket)))

    def explode(t: pa.Table) -> pa.Table:
        s = np.asarray(t[start_col], dtype=np.int64)
        e = np.asarray(t[end_col], dtype=np.int64)
        b0 = s // int(bucket)
        n = e // int(bucket) - b0 + 1
        rep = np.repeat(np.arange(len(t), dtype=np.int64), n)
        offs = np.zeros(len(t) + 1, dtype=np.int64)
        np.cumsum(n, out=offs[1:])
        local = np.arange(int(offs[-1]), dtype=np.int64) - offs[rep]
        out = t.take(pa.array(rep))
        return out.append_column("__b", pa.array(b0[rep] + local))

    lt = left_ds.map_batches(tag, batch_format="pyarrow")
    it = intervals_ds.map_batches(explode, batch_format="pyarrow")
    joined = bucketed_join(lt, it, key="__b", n_buckets=n_buckets,
                           n_salts=n_salts)

    def refine(t: pa.Table) -> pa.Table:
        v = np.asarray(t[t_col], dtype=np.int64)
        keep = ((v >= np.asarray(t[start_col], dtype=np.int64))
                & (v <= np.asarray(t[end_col], dtype=np.int64)))
        return t.filter(pa.array(keep)).drop_columns(["__b"])

    return joined.map_batches(refine, batch_format="pyarrow")


def rolling_mean(ds, key: str, ts_col: str, value_col: str,
                 window_rows: int, tie_col: str, out_col: str = "roll_mean",
                 n_parts: int = 64):
    """Row-based rolling mean per key: for each row (ordered by
    ts_col, tie_col within its key), the mean of value over the current
    and preceding window_rows-1 rows — the per-entity trailing-window
    signal (fraud velocity, rate smoothing).

    Scale shape: one coarse hash-partition shuffle on the key (all rows
    of a key co-locate, same as sessionize), then a vectorized
    sort + grouped running-sum difference per partition — never a task per key.

    Exactness contract: values are summed as ROUND(value*100) cents
    (int64, order-independent), the mean divides once in float64, and
    the result is ROUNDed — so the SQL window-function twin reproduces
    identical doubles.
    """

    def per_part(t: pa.Table) -> pa.Table:
        idx, g, rank = grouped_order(
            t, [key], [(ts_col, "ascending"), (tie_col, "ascending")])
        t = t.take(idx)
        c = grouped_cumsum(cents_half_away(t[value_col]), g)
        # window sum = running sum minus the running sum window_rows back
        back = np.arange(len(g)) - window_rows
        s = c - np.where(rank >= window_rows, c[np.maximum(back, 0)], 0)
        cnt = np.minimum(rank + 1, window_rows)
        mean = np.round(s / (100.0 * cnt), 6) + 0.0
        return pa.table({tie_col: t[tie_col], out_col: pa.array(mean)})

    return hash_exchange(ds, n_parts, per_part, [key])


def funnel_counts(ds, user_col: str, ts_col: str, type_col: str,
                  stages, n_parts: int = 64):
    """Ordered funnel analysis: for a sequence of stage event types
    (e.g. view -> click -> purchase), count the users who reached each
    stage IN ORDER — stage k counts a user iff some stage-k event falls
    strictly after the user's chosen stage-(k-1) event, where "chosen"
    is the EARLIEST qualifying event (classic first-touch funnel; the
    product-analytics op a clickstream pipeline runs per release).

    Returns one row per stage: (stage_idx int64, stage string,
    n_users int64).

    Scale shape: project to (user, epoch-us, type) and filter to the
    stage types inside map_batches (everything else never enters the
    exchange), then ONE coarse hash-partition shuffle on the user key —
    all of a user's stage events co-locate, per-partition work is a
    vectorized numpy pass (grouped mins + sorted lookups, one per stage, no
    Python per user) — then a tiny combiner sum of per-partition stage
    counts. Timestamps compare as integer microseconds so "strictly
    after" is exact and the SQL twin reproduces it bit-for-bit.
    """
    from .agg import grouped_agg

    stages = list(stages)

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t[type_col], value_set=pa.array(stages)))
        return pa.table({
            user_col: t[user_col],
            "__t": pa.array(_epoch_us(t[ts_col]), pa.int64()),
            type_col: t[type_col],
        })

    def first_per_user(u: np.ndarray, ts: np.ndarray):
        """(users ascending, each one's earliest ts)."""
        o = np.lexsort((ts, u))
        u, ts = u[o], ts[o]
        s = run_starts(u)
        return u[s], ts[s]

    def per_part(t: pa.Table) -> pa.Table:
        counts = np.zeros(len(stages), dtype=np.int64)
        users = np.asarray(t[user_col], dtype=np.int64)
        ts = np.asarray(t["__t"], dtype=np.int64)
        types = t[type_col]
        # reached: per-user epoch-us of the chosen event at the current
        # stage; starts as the first stage's per-user min
        sel = np.asarray(pc.fill_null(pc.equal(types, stages[0]), False))
        cu, ct = first_per_user(users[sel], ts[sel])
        counts[0] = len(cu)
        for k in range(1, len(stages)):
            if not len(cu):
                break
            sel = np.asarray(pc.fill_null(pc.equal(types, stages[k]), False))
            eu, et = users[sel], ts[sel]
            pos = np.minimum(np.searchsorted(cu, eu), len(cu) - 1)
            keep = (cu[pos] == eu) & (et > ct[pos])
            cu, ct = first_per_user(eu[keep], et[keep])
            counts[k] = len(cu)
        return pa.table({
            "stage_idx": pa.array(np.arange(len(stages), dtype=np.int64)),
            "stage": pa.array(stages, pa.string()),
            "n_users": pa.array(counts),
        })

    per = hash_exchange(ds.map_batches(project, batch_format="pyarrow"),
                        n_parts, per_part, [user_col])
    return grouped_agg(per, ["stage_idx", "stage"],
                       {"n_users": ("n_users", "sum")}, combine="driver")


def transition_counts(ds, key: str, ts_col: str, type_col: str,
                      tie_col: str, n_parts: int = 64):
    """Markov transition counts over per-key event sequences: for each
    consecutive (by ts, tie_col) pair of events of the same key, count
    (prev_type, next_type) — the clickstream transition-matrix op.

    Shuffle shape: ONE coarse key-hash partition co-locates each key's
    events (same guarantee as sessionize above); inside a partition the
    pairing is a vectorized shift over the (key, ts, tie) sort; the
    (|types|^2-bounded) pair counts then combine through grouped_agg's
    combiner. The transition matrix itself never exceeds |types|^2 rows.
    """
    from .agg import grouped_agg

    # NULL keys share one partition (SQL PARTITION BY groups all NULLs
    # together — they must co-locate like any key) and one group
    def per_part(t: pa.Table) -> pa.Table:
        idx, g, _ = grouped_order(
            t, [key], [(ts_col, "ascending"), (tie_col, "ascending")])
        types = t[type_col].take(idx)
        same = pa.array(g[1:] == g[:-1])
        n = max(len(g) - 1, 0)
        pairs = pa.table({"prev_type": types.slice(0, n).filter(same),
                          "next_type": types.slice(1, n).filter(same)})
        # transitions to/from a NULL event type are rows, exactly as the
        # LEAD-based SQL GROUP BY keeps them
        return aggregate(pairs, ["prev_type", "next_type"],
                          [("n", None, None, None)])

    partial = hash_exchange(ds, n_parts, per_part, [key])
    return grouped_agg(partial, ["prev_type", "next_type"],
                       {"n": ("n", "sum")}, combine="shuffle")


def running_total(ds, key: str, ts_col: str, value_col: str, tie_col: str,
                  out_col: str = "running_c", n_parts: int = 64):
    """Per-key running cumulative sum (SUM OVER ROWS UNBOUNDED
    PRECEDING) of value in (ts, tie) order — the classic window
    function (account balances, cumulative spend), emitted as exact
    int64 cents so the exchange and the oracle compare carry no float
    summation order.

    Scale shape: the same single coarse key co-location shuffle as
    sessionize/rolling above, vectorized per-partition sort + grouped
    cumsum."""

    def per_part(t: pa.Table) -> pa.Table:
        idx, g, _ = grouped_order(
            t, [key], [(ts_col, "ascending"), (tie_col, "ascending")])
        t = t.take(idx)
        run = grouped_cumsum(cents_half_away(t[value_col]), g)
        return t.select([key, tie_col]).append_column(out_col, pa.array(run))

    return hash_exchange(ds, n_parts, per_part, [key])
