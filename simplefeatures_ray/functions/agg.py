"""Combiner-style grouped aggregation.

For LOW-CARDINALITY keys (aggregate fan-in), a full groupby exchange
moves every row; the combiner pattern moves |keys| x |blocks| partial
rows instead: map_batches computes per-batch partials (Arrow
group_by), and the final combine runs over that tiny set — on the driver
(combine="driver") or through hash_exchange when the key space is large
(combine="shuffle"). Mean decomposes into sum+count.

At 100 TB this is the difference between an all-to-all of 10^12 rows
and |keys| x |blocks| partial rows (e.g. 6 x 100k for TPC-H Q1).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._arrow import aggregate, group_ids, nan_to_null, run_starts

# sum of an all-missing group is 0, not null (pandas' skipna sum)
_SUM0 = pc.ScalarAggregateOptions(min_count=0)


def _plan(spec) -> dict:
    """Partial columns of `spec`: {partial_col: (src, op)}.

    mean -> (sum, count); var/std -> (sum, M2, count) with M2 = per-batch
    centered sum of squares (Chan/Welford partial — E[x^2]-E[x]^2
    catastrophically cancels when |mean| >> spread); (None, "count") =
    row count, (col, "count") = that column's non-null/non-NaN count."""
    plan = {}
    for out, (src, kind) in spec.items():
        if kind == "mean":
            plan[f"__{out}_sum"] = (src, "sum")
            plan[f"__{out}_cnt"] = (src, "count")
        elif kind in ("var", "std"):
            plan[f"__{out}_sum"] = (src, "sum")
            plan[f"__{out}_m2"] = (src, "m2")
            plan[f"__{out}_cnt"] = (src, "count")
        elif kind == "count":
            plan[f"__{out}_cnt"] = (src, "count")
        else:
            plan[f"__{out}_{kind}"] = (src, kind)
    return plan


def _partial(t: pa.Table, keys, plan) -> pa.Table:
    """Per-batch partials of `plan` grouped by `keys`."""
    aggs, m2 = [], []
    for pcol, (src, op) in plan.items():
        col = None if src is None else nan_to_null(t[src])
        if op == "m2":
            # centered per-batch: n * var_pop, 0 for empty/1-element
            # groups (null would poison the combine sums)
            aggs.append((pcol, col, "variance", pc.VarianceOptions(ddof=0)))
            m2.append(pcol)
        elif op == "count":  # src None: aggregate counts the rows
            aggs.append((pcol, col, "count", None))
        else:
            aggs.append((pcol, col, op, _SUM0 if op == "sum" else None))
    out = aggregate(t, keys, aggs)
    for pcol in m2:
        n = np.asarray(out[f"{pcol[:-len('_m2')]}_cnt"], dtype=np.float64)
        v = np.nan_to_num(np.asarray(out[pcol].to_numpy(zero_copy_only=False),
                                     dtype=np.float64))
        out = out.set_column(out.schema.get_field_index(pcol), pcol,
                             pa.array(v * n))
    return out


def _combine(t: pa.Table, keys, spec, plan) -> pa.Table:
    """Merge partial rows into one row per key group and finish `spec`."""
    m2_cols = [p for p, (_, op) in plan.items() if op == "m2"]
    if m2_cols and t.num_rows:
        # Chan parallel merge: M2_total = sum(M2_i) + sum(n_i*(mu_i-mu)^2).
        # Fold the between-partial term into the M2 column BEFORE the
        # final sum — mu_i - mu is an actual elementwise subtraction,
        # so no large-square cancellation at any mean magnitude.
        gid = group_ids(t, keys)
        for pcol in m2_cols:
            base = pcol[: -len("_m2")]
            ni = np.asarray(t[f"{base}_cnt"], dtype=np.float64)
            si = np.nan_to_num(np.asarray(
                t[f"{base}_sum"].to_numpy(zero_copy_only=False), dtype=np.float64))
            N = np.bincount(gid, ni)[gid]
            S = np.bincount(gid, si)[gid]
            with np.errstate(invalid="ignore", divide="ignore"):
                d = np.where(ni > 0, si / np.where(ni > 0, ni, 1.0)
                             - S / np.where(N > 0, N, 1.0), 0.0)
            m2 = np.asarray(t[pcol], dtype=np.float64) + ni * d * d
            t = t.set_column(t.schema.get_field_index(pcol), pcol, pa.array(m2))
    combined = aggregate(t, keys, [
        (pcol, pcol, "sum" if op in ("sum", "count", "m2") else op,
         _SUM0 if op in ("sum", "count", "m2") else None)
        for pcol, (_, op) in plan.items()])
    out = {k: combined[k] for k in keys}
    for name, (src, kind) in spec.items():
        if kind in ("mean", "var", "std"):
            n = np.asarray(combined[f"__{name}_cnt"], dtype=np.float64)
            top = combined[f"__{name}_sum" if kind == "mean" else f"__{name}_m2"]
            top = np.asarray(top.to_numpy(zero_copy_only=False), dtype=np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                # variance is the merged M2 / n (Chan/Welford — stable
                # for float data whose mean dwarfs its spread)
                v = top / n if kind == "mean" else np.maximum(top, 0.0) / n
            out[name] = pa.array(np.sqrt(v) if kind == "std" else v)
        elif kind == "count":
            out[name] = pc.cast(combined[f"__{name}_cnt"], pa.int64())
        else:
            out[name] = combined[f"__{name}_{kind}"]
    return pa.table(out)


def grouped_agg(ds, keys, spec: dict, combine: str = "driver"):
    """ds.groupby(keys) with spec {out_col: (src_col, kind)}.

    combine="driver": partials stream to the driver (correct when
    |keys| x |blocks| is small); returns a pyarrow Table.
    combine="shuffle": final combine on a hash partition of the keys
    (hash_exchange); returns a Dataset.

    Missing-value semantics are pandas' (skipna): NULL and float NaN
    are both treated as missing by sum/min/max/mean/var/std and by
    (col, "count"); (None, "count") counts rows; the sum of an
    all-missing group is 0. SQL differs on NaN (a value there) — the
    oracle-gated queries never feed NaN, and callers comparing against
    SQL should pre-filter NaN if it can occur. Key columns keep their
    Arrow type; a NULL key is one group.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    plan = _plan(spec)
    return _finish_combine(ds, lambda t: _partial(t, keys, plan), keys, combine,
                           lambda t: _combine(t, keys, spec, plan))


def _finish_combine(ds, part, keys, combine, final):
    """Run `final` over the partials `part` makes of `ds`'s batches, all
    collected (combine="driver"; with no rows, over `part` of `ds`'s typed
    0-row table when Ray knows it) or per hash partition of `keys`
    (combine="shuffle"): a vectorized combine per partition, never per group."""
    partial = ds.map_batches(part, batch_format="pyarrow")
    if combine == "driver":
        from .relational import collect_table, known_empty

        t = collect_table(partial)
        if not t.num_columns:
            e = known_empty(ds)
            t = t if e is None else part(e)
        return final(t)
    from ..stages.exchange import hash_exchange

    return hash_exchange(partial, 64, final, list(keys))


def rollup_agg(ds, keys, spec: dict, grouping: str = "rollup",
               combine: str = "driver", grouping_col: str = "grouping_id"):
    """SQL GROUP BY ROLLUP / CUBE in ONE corpus pass.

    Per-batch combiner emits partial rows for EVERY grouping set at once
    (rolled-up keys as typed NULLs), tagged with the ANSI GROUPING
    bitmask (leftmost key = most significant bit, 1 = rolled up —
    DuckDB ``GROUPING(k1, ..., kn)`` semantics, which also keeps a
    rollup-NULL distinct from a data-NULL key value). One combine merges
    the partials grouped by (keys..., bitmask): the corpus is read once
    and the exchange volume is sum over grouping sets of their partial
    rows — for ROLLUP a ~2x combiner overhead vs plain grouped_agg, for
    CUBE 2^n x, both independent of row count. The naive alternative
    (one grouped_agg per level, union) reads the corpus L times.

    grouping: 'rollup' (prefix hierarchy: (k1..kn), (k1..kn-1), ...,
    grand total), 'cube' (all 2^n subsets), or an explicit list of key
    subsets — ANSI GROUPING SETS, e.g. [["a","b"], ["a"], []]; duplicate
    sets are rejected (they would double-merge into one output group).
    spec / missing-value semantics are grouped_agg's. combine: 'driver'
    -> pyarrow Table, 'shuffle' -> Dataset (same trade-off as
    grouped_agg).
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    n = len(keys)
    if grouping == "rollup":
        included = [keys[:i] for i in range(n, -1, -1)]
    elif grouping == "cube":
        from itertools import combinations

        included = [list(c) for r in range(n, -1, -1)
                    for c in combinations(keys, r)]
    elif isinstance(grouping, (list, tuple)):
        included = []
        for s in grouping:
            s = [s] if isinstance(s, str) else list(s)
            bad = [k for k in s if k not in keys]
            if bad:
                raise ValueError(f"grouping set key(s) {bad} not in keys")
            included.append([k for k in keys if k in s])  # canonical order
        if len({tuple(s) for s in included}) != len(included):
            raise ValueError("duplicate grouping sets")
    else:
        raise ValueError(
            f"grouping must be rollup|cube|list of sets, got {grouping!r}")
    gsets = [(sum(1 << (n - 1 - i) for i, k in enumerate(keys)
                  if k not in gkeys), gkeys) for gkeys in included]
    plan = _plan(spec)
    gkeys_all = keys + ["__gid"]

    def typed_partial(t: pa.Table) -> pa.Table:
        outs = []
        for gid, gkeys in gsets:
            tg = t.append_column("__gid", pa.array(np.full(t.num_rows, gid, np.int64)))
            sub = _partial(tg, gkeys + ["__gid"], plan)
            cols = {k: (sub[k] if k in gkeys
                        else pa.nulls(sub.num_rows, t.schema.field(k).type))
                    for k in keys}
            cols.update({c: sub[c] for c in ["__gid", *plan]})
            outs.append(pa.table(cols))
        return pa.concat_tables(outs)

    def final(t: pa.Table) -> pa.Table:
        out = _combine(t, gkeys_all, spec, plan)
        return out.rename_columns(
            [grouping_col if c == "__gid" else c for c in out.column_names])

    return _finish_combine(ds, typed_partial, gkeys_all, combine, final)


def exact_quantiles(ds, col: str, qs, group_keys=None):
    """EXACT distributed quantiles of an integer-valued (or low-
    cardinality) column: per-batch value histograms combine through one
    small groupby, the driver merges cumulative counts and reads
    quantiles off the sorted histogram — no global sort, shuffle volume
    bounded by the number of DISTINCT values, never by row count.

    Quantile semantics match DuckDB's quantile_disc: index =
    max(0, ceil(q*n) - 1) into the sorted multiset. Returns a pyarrow
    Table with one row per group (or a single row) and one column per
    requested quantile (q50, q90, ...). NULL and NaN values are
    skipped (a group with no other value has no row) and a NULL key is
    a group; with no values the grouped result has no rows and the
    ungrouped one a single all-NULL row, as in DuckDB.
    """
    from .relational import collect_table, known_type

    group_keys = ([group_keys] if isinstance(group_keys, str)
                  else list(group_keys or []))
    keys = group_keys + [col]
    qcols = [f"q{int(round(q * 100))}" for q in qs]

    partial = ds.map_batches(
        lambda t: aggregate(t, keys, [("__n", None, None, None)]),
        batch_format="pyarrow")
    h = collect_table(partial)
    if h.num_rows:
        h = h.filter(pc.is_valid(nan_to_null(h[col])))
    else:  # no blocks: type the columns from the input when Ray knows it
        h = pa.table({k: pa.nulls(0, known_type(ds, k)) for k in keys})
    if not h.num_rows:
        return pa.table({**{k: h[k] for k in group_keys},
                         **{c: pa.nulls(0 if group_keys else 1, h.schema.field(col).type)
                            for c in qcols}})
    # the value histogram, sorted by group then value
    h = aggregate(h, keys, [("__n", "__n", "sum", None)]).sort_by(
        [(k, "ascending") for k in keys])
    n = np.asarray(h["__n"], dtype=np.int64)
    cum = np.cumsum(n)
    starts = run_starts(group_ids(h, group_keys))
    base = cum[starts] - n[starts]
    total = np.append(base[1:], cum[-1]) - base
    out = {k: h[k].take(starts) for k in group_keys}
    for c, q in zip(qcols, qs):
        idx = np.maximum(0, np.ceil(q * total).astype(np.int64) - 1)
        out[c] = h[col].take(np.searchsorted(cum, base + idx + 1))
    return pa.table(out)


def exact_quantiles_continuous(ds, col: str, qs, n_bins: int = 4096,
                               collect_threshold: int = 200_000,
                               max_rounds: int = 12):
    """EXACT quantiles of a CONTINUOUS double column at streaming scale.

    exact_quantiles above bounds its shuffle by the number of DISTINCT
    values — the right tool for integers/cents, ruinous for raw
    doubles. This variant never ships the value multiset. Iterative
    histogram refinement, driver-coordinated:

      round 0: one streaming pass -> global [min, max] + row count;
      round k: one streaming pass computing, for every still-active
        quantile target, an n_bins histogram of its current candidate
        interval (all targets share the pass); the driver locates the
        bin holding each target rank and narrows the interval — a
        ~n_bins-fold narrowing per round;
      finish: when a target's interval holds <= collect_threshold rows,
        one final filtered pass collects JUST those rows and picks the
        rank element exactly.

    Rank semantics match DuckDB quantile_disc: 0-based index
    max(0, ceil(q*n) - 1) into the sorted multiset — the result is an
    actual data value, so an oracle compare is exact with no rounding.
    Returns a pyarrow Table with one column per quantile (q50, q90...).

    At 100 TB: each round is a streaming map + a tiny (targets x n_bins)
    reduction; rounds needed ~ log_{n_bins}(n / collect_threshold) — 2
    or 3 in practice. Nothing row-sized ever reaches the driver except
    the final <= collect_threshold candidate slice per target.
    """
    import math

    from .relational import collect_table

    qs = list(qs)

    def stats_pass(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col], dtype=np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return pa.table({"n": pa.array([0], pa.int64()),
                             "lo": pa.array([np.inf]),
                             "hi": pa.array([-np.inf])})
        return pa.table({"n": pa.array([len(v)], pa.int64()),
                         "lo": pa.array([float(v.min())]),
                         "hi": pa.array([float(v.max())])})

    st = collect_table(ds.map_batches(stats_pass, batch_format="pyarrow"))
    n = int(np.asarray(st["n"]).sum())
    if n == 0:
        return pa.table({f"q{int(round(q * 100))}":
                         pa.array([None], pa.float64()) for q in qs})
    glo = float(np.asarray(st["lo"]).min())
    ghi = float(np.asarray(st["hi"]).max())
    # per-target state: candidate interval [lo, hi] guaranteed to hold
    # the rank element; rank stays GLOBAL — every pass recounts v < lo
    # exactly, so boundary fuzz can widen the interval but never corrupt
    # the rank bookkeeping
    targets = [{"lo": glo, "hi": ghi,
                "rank": max(0, int(math.ceil(q * n)) - 1), "count": n}
               for q in qs]

    for _ in range(max_rounds):
        active = [i for i, tg in enumerate(targets)
                  if tg["count"] > collect_threshold
                  and tg["hi"] > tg["lo"]]
        if not active:
            break
        spans = [(targets[i]["lo"], targets[i]["hi"]) for i in active]

        def hist_pass(t: pa.Table, spans=tuple(spans)) -> pa.Table:
            v = np.asarray(t[col], dtype=np.float64)
            v = v[~np.isnan(v)]
            rows = {}
            for si, (lo, hi) in enumerate(spans):
                width = (hi - lo) / n_bins
                sel = v[(v >= lo) & (v <= hi)]
                if width <= 0:
                    h = np.zeros(n_bins, dtype=np.int64)
                    h[0] = len(sel)
                else:
                    idx = np.clip(((sel - lo) / width).astype(np.int64),
                                  0, n_bins - 1)
                    h = np.bincount(idx, minlength=n_bins)
                rows[f"h{si}"] = h.astype(np.int64)
                rows[f"b{si}"] = np.zeros(n_bins, dtype=np.int64)
                rows[f"b{si}"][0] = int((v < lo).sum())
            return pa.table(rows)

        ht = collect_table(ds.map_batches(hist_pass, batch_format="pyarrow"))
        progressed = False
        for si, i in enumerate(active):
            tg = targets[i]
            h = np.asarray(ht[f"h{si}"]).reshape(-1, n_bins).sum(axis=0)
            n_below = int(np.asarray(ht[f"b{si}"]).sum())
            rank_in = tg["rank"] - n_below
            cum = np.cumsum(h)
            if rank_in < 0 or rank_in >= cum[-1]:
                # interval drifted off the rank element (should not
                # happen; nudge guards below) — stop narrowing, the
                # final collect still recounts exactly
                continue
            b = int(np.searchsorted(cum, rank_in + 1))
            lo, hi = tg["lo"], tg["hi"]
            width = (hi - lo) / n_bins
            in_bin = int(h[b])
            # nudge: a value whose float bin index wobbled onto b can
            # sit up to ~1e-12 bins outside the exact bounds
            pad = width * 1e-9
            new_lo = max(lo, lo + b * width - pad)
            new_hi = min(hi, lo + (b + 1) * width + pad)
            if in_bin >= tg["count"] and new_lo <= lo and new_hi >= hi:
                tg["count"] = in_bin
                continue  # mass concentrated: no further narrowing
            progressed = True
            tg.update({"lo": new_lo, "hi": new_hi, "count": in_bin})
        if not progressed:
            break

    # final exact collection per target (shared pass): the candidate
    # slice plus an exact recount of values below it
    spans = [(tg["lo"], tg["hi"]) for tg in targets]

    def collect_pass(t: pa.Table, spans=tuple(spans)) -> pa.Table:
        v = np.asarray(t[col], dtype=np.float64)
        v = v[~np.isnan(v)]
        rows = {}
        for si, (lo, hi) in enumerate(spans):
            sel = v[(v >= lo) & (v <= hi)]
            rows[f"v{si}"] = pa.array([sel.tolist()],
                                      pa.list_(pa.float64()))
            rows[f"b{si}"] = pa.array([int((v < lo).sum())], pa.int64())
        return pa.table(rows)

    ct = collect_table(ds.map_batches(collect_pass, batch_format="pyarrow"))
    out = {}
    for si, (q, tg) in enumerate(zip(qs, targets)):
        vals = np.concatenate([np.asarray(chunk, dtype=np.float64)
                               for chunk in ct[f"v{si}"].to_pylist()])
        n_below = int(np.asarray(ct[f"b{si}"]).sum())
        vals.sort(kind="mergesort")
        out[f"q{int(round(q * 100))}"] = pa.array(
            [float(vals[tg["rank"] - n_below])], pa.float64())
    return pa.table(out)
