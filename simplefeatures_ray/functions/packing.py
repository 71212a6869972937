"""Sequence packing: greedy budgeted concatenation for training data.

LLM pretraining concatenates documents into fixed-size token windows;
the packing decision (which docs share a sequence) must be deterministic
so shards can be rebuilt idempotently. This implements the standard
greedy sequential rule: stream each group's docs in a fixed order,
accumulate sizes, and start a new sequence whenever adding the next doc
would exceed the budget (a doc larger than the budget gets a sequence of
its own — downstream truncation is the consumer's choice).

Scale shape: packing is sequential WITHIN a group but independent ACROSS
groups, so the Dataset is coarsely hash-partitioned on the group column
(same co-location guarantee as groupby(group), without per-group task
overhead — the pattern shared with sessionize/grouped_topk) and each
partition packs all its groups in one pass. The inner loop iterates per
SEQUENCE, not per row: each step binary-searches the cumulative-size
array for the furthest doc that still fits (np.searchsorted), so a
million-doc group with ~3 docs/sequence costs ~330k searchsorted steps
on a presummed array, not a python loop over rows.

Partitioning assumption (documented per SURVEY custom-operator rule):
one group's rows must fit in a single partition. Groups here are
shards/sources — bounded by construction in a web corpus layout.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._arrow import grouped_order, run_starts


def _pack_group(sizes: np.ndarray, budget: int, out: np.ndarray) -> None:
    """Write 0-based seq ids for one group's ordered sizes into out."""
    csum = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    n = len(sizes)
    s = 0
    sid = 0
    while s < n:
        e = int(np.searchsorted(csum, csum[s] + budget, side="right")) - 1
        if e <= s:  # oversized doc: alone in its own sequence
            e = s + 1
        out[s:e] = sid
        sid += 1
        s = e


def pack_sequences(ds, group_col: str, order_col: str, size_col: str,
                   budget: int, n_parts: int = 64):
    """Add seq_id: greedy sequential packing of `size_col` into `budget`
    within each group, rows taken in `order_col` order. Deterministic at
    any parallelism."""
    if budget <= 0:
        raise ValueError("budget must be positive")

    def per_part(t: pa.Table) -> pa.Table:
        idx, g, _ = grouped_order(t, [group_col], [(order_col, "ascending")])
        t = t.take(idx)
        seq = np.zeros(len(g), dtype=np.int64)
        sizes = np.asarray(t[size_col], dtype=np.int64)
        starts = run_starts(g)
        for gs, ge in zip(starts, np.append(starts[1:], len(g))):
            _pack_group(sizes[gs:ge], budget, seq[gs:ge])
        return t.append_column("seq_id", pa.array(seq))

    from ..stages.exchange import hash_exchange

    return hash_exchange(ds, n_parts, per_part, [group_col])
