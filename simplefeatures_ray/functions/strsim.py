"""Edit-distance-1 string similarity join (deletion-neighborhood LSH).

The SymSpell/FastSS banding trick made distributed: a pair of strings
has Levenshtein distance <= 1 iff they share at least one key in
keys(s) = {s} U {s with one char deleted} —
  substitution at i:  d_i(s) == d_i(t)           (same deletion string)
  insert/delete:      the longer one's deletion   == the shorter string
  equality:           the identity key
so bucketing rows by every key has FULL RECALL, and an O(len) verify
per candidate restores precision (different-position deletions can
collide, e.g. 'ab'/'ba'). Never an all-pairs comparison.

Distributed shape:
  map_batches   explode each row to its len+1 keys (bounded fan-out,
                documented: the exchange carries (len+1) x rows)
  coarse shuffle on hash(key) -> within-partition per-key pairing
                (i < j by id; bucket sizes are the alphabet-ish
                collision sets, small by construction)
  verify        exact lev<=1 check per candidate
  dedup         a true pair can share several keys that live in
                different partitions -> one exact dedup on (id_a,id_b)
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._arrow import drop_duplicates, grouped_order


def _lev_le1(a: str, b: str) -> bool:
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # lb == la + 1: b must equal a with one char inserted
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def _explode_keys(id_col: str, str_col: str):
    def kernel(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col], dtype=np.int64)
        names = t[str_col].to_pylist()
        out_id, out_name, out_key = [], [], []
        for rid, s in zip(ids, names):
            s = s or ""
            ks = [s] + [s[:i] + s[i + 1:] for i in range(len(s))]
            out_id.extend([rid] * len(ks))
            out_name.extend([s] * len(ks))
            out_key.extend(ks)
        return pa.table({
            "key": pa.array(out_key, pa.string()),
            "rid": pa.array(np.asarray(out_id, dtype=np.int64)),
            "name": pa.array(out_name, pa.string()),
        })

    return kernel


def editdist1_pairs(ds, id_col: str, str_col: str, n_parts: int = 64):
    """All unordered pairs (id_a < id_b) whose str_col values are at
    Levenshtein distance <= 1. Exact (full recall via the deletion
    neighborhood, full precision via the verify). Returns a Dataset
    (id_a, id_b)."""
    from .relational import dedup_exact

    exploded = ds.map_batches(_explode_keys(id_col, str_col),
                              batch_format="pyarrow")
    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64())})

    def pair_partition(t: pa.Table) -> pa.Table:
        """Vectorized within-partition pairing + verify (VERDICT r4 #8;
        no nested Python pair loop, so a pathological hot name degrades
        to array ops, not quadratic interpreter time).

        Verify structure: a pair can collide on an IDENTITY key (equal
        strings, dist 0) or identity-vs-deletion (one-char insertion,
        dist exactly 1) — both accept WITHOUT any check (a key is an
        identity iff len(key) == len(name)). Only deletion-deletion
        collisions (necessarily equal-length strings) can be false
        positives ('ab'/'ba' share keys 'a','b'), and equal-length
        lev<=1 == hamming<=1, which vectorizes as one flat byte
        compare + reduceat. Multi-byte UTF-8 rows (char-hamming !=
        byte-hamming) take the per-pair reference check."""
        t = drop_duplicates(t, ["key", "rid"])
        idx, _, rank = grouped_order(t, ["key"], [("rid", "ascending")])
        t = t.take(idx)
        rids = np.asarray(t["rid"], dtype=np.int64)
        names = t["name"].to_pylist()
        n = t.num_rows
        start = np.arange(n) - rank              # row of the group's head
        # pair expansion: position p (rank r) pairs with the r group
        # members before it -> i < j in rid order automatically
        cnt = rank
        total = int(cnt.sum())
        if not total:
            return empty
        j_idx = np.repeat(np.arange(n), cnt)
        firsts = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        off = np.arange(total) - np.repeat(firsts, cnt)
        i_idx = np.repeat(start, cnt) + off

        from . import _bytetext as bt

        b = bt.BatchText(pa.array(names, pa.string()))
        buf, offs = b.buf, b.offsets
        name_len = np.diff(offs)
        key_len = np.asarray(pc.utf8_length(t["key"]), dtype=np.int64)
        is_ident = key_len == name_len  # byte-vs-char len only differs
        # for non-ASCII, which routes to the reference check below
        nonascii = np.zeros(n, dtype=bool)
        nonascii[b.nonascii_rows] = True
        pair_na = nonascii[i_idx] | nonascii[j_idx]
        auto = (is_ident[i_idx] | is_ident[j_idx]) & ~pair_na
        need = ~auto & ~pair_na                  # ASCII del-del pairs
        accept = auto.copy()
        if need.any():
            vi, vj = i_idx[need], j_idx[need]
            L = name_len[vi]                     # == name_len[vj]
            sa = np.repeat(offs[vi], L)
            sb = np.repeat(offs[vj], L)
            csum = np.cumsum(L)
            pos = np.arange(int(csum[-1])) - np.repeat(
                np.concatenate([[0], csum[:-1]]), L)
            neq = buf[sa + pos] != buf[sb + pos]
            mism = np.add.reduceat(neq, np.concatenate([[0], csum[:-1]]))
            accept[np.nonzero(need)[0]] = mism <= 1
        if pair_na.any():
            for p in np.nonzero(pair_na)[0]:
                accept[p] = _lev_le1(names[i_idx[p]], names[j_idx[p]])
        return pa.table({"id_a": rids[i_idx[accept]],
                         "id_b": rids[j_idx[accept]]})

    from ..stages.exchange import hash_exchange

    pairs = hash_exchange(exploded, n_parts, pair_partition, ["key"])
    return dedup_exact(pairs, ["id_a", "id_b"])
