"""Vectorized byte-level text machinery for the analysis kernels.

Counting regex matches per row (tokens, words, punctuation, stopword
hits) is the hot path of the extract stage. RE2 string kernels pay per
MATCH (~25 us/page at ~200 matches) and numpy LUT gathers / cumsums are
memory-bound on this box; this module therefore sticks to the cheap
primitives measured fastest here: comparison-built class masks
(SIMD-friendly), np.add.reduceat for per-row reduction, and nonzero()
only where run positions are genuinely needed.

Exactness contract: byte-class logic is exact for ASCII rows (ASCII
char classes never match UTF-8 continuation/lead bytes, so masks are
sound on mixed buffers; Python's unicode-aware \\w / isspace need the
real tables). The analysis kernels (functions/text.py) therefore run
only ASCII rows here and analyse non-ASCII rows in the CODEPOINT domain
(functions/_unitext.py) over the same SeqRuns engine; the
apostrophe-absorption rule is closed-form (absorption_savings) —
semantics stay bit-identical at any ASCII/Unicode mix.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# python re \s == str.split() whitespace for ASCII: {9-13, 28-31, 32}


def ws_mask(b: np.ndarray) -> np.ndarray:
    return ((b >= 9) & (b <= 13)) | ((b >= 28) & (b <= 32))


def letter_mask(b: np.ndarray) -> np.ndarray:
    f = b | np.uint8(32)  # fold case
    return (f >= 97) & (f <= 122)


def digit_mask(b: np.ndarray) -> np.ndarray:
    return (b >= 48) & (b <= 57)


def word_mask(b: np.ndarray) -> np.ndarray:  # python \w, ASCII part
    return letter_mask(b) | digit_mask(b) | (b == 95)


def apo_mask(b: np.ndarray) -> np.ndarray:
    return b == 39


_LOW_TBL = np.arange(256, dtype=np.uint8)
_LOW_TBL[65:91] += 32


_MUL = np.uint64(0x0101010101010101)
_S56 = np.uint64(56)
# first r bytes of a little-endian uint64 word, r = 0..7
_FIRST = np.array([(1 << (8 * r)) - 1 for r in range(8)], dtype=np.uint64)


def _mask_prefix_at(mu: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Prefix counts of a 0/1 uint8 mask at each position in `pos`
    (0 <= pos <= len(mu)).

    Two-level: uint64 words (byte-sums via the multiply trick) grouped
    into 8-word blocks summed with a SIMD reshape-sum; the only
    sequential cumsum runs over the L/64 block sums. Everything at finer
    granularity (intra-block words, intra-word bytes) is gathered and
    summed ONLY at the |pos| query positions — a full word-level cumsum
    was the bottleneck (numpy cumsum is a scalar loop)."""
    L = len(mu)
    K = L >> 3          # whole uint64 words
    KB = K >> 3         # whole 8-word (64-byte) blocks
    if K:
        wsum = mu[:K << 3].view(np.uint64) * _MUL  # lane l = bytes 0..l sum
        if KB:
            # lane totals <= 8*8 = 64 < 256: no inter-lane carry, so the
            # top byte of a block's lane-wise sum IS its 64-byte count
            bsum = (wsum[:KB << 3].reshape(KB, 8).sum(axis=1) >> _S56)
            cbs = np.cumsum(bsum.view(np.int64))
            full_blocks = cbs[-1]
        else:
            cbs = None
            full_blocks = np.int64(0)
        # words past the last whole block (< 8 of them)
        wtail = (wsum[KB << 3:] >> _S56).view(np.int64)
        wtcs = np.zeros(len(wtail) + 1, dtype=np.int64)
        np.cumsum(wtail, out=wtcs[1:])
        full = full_blocks + wtcs[-1]
    else:
        wsum = None
        cbs = None
        wtcs = np.zeros(1, dtype=np.int64)
        full_blocks = np.int64(0)
        full = np.int64(0)
    # bytes past the last whole word (< 8 of them)
    tail = mu[K << 3:]
    tcs = np.zeros(len(tail) + 1, dtype=np.int64)
    if len(tail):
        np.cumsum(tail, dtype=np.int64, out=tcs[1:])
    tcs += full

    j = pos >> 3
    out = np.empty(len(pos), dtype=np.int64)
    in_body = j < K
    rest = ~in_body
    if rest.any():
        out[rest] = tcs[pos[rest] - (K << 3)]
    if K and in_body.any():
        jq = j[in_body]
        b = jq >> 3                       # block index
        base = np.zeros(len(jq), dtype=np.int64)
        if KB:
            has = b > 0
            base[has] = cbs[b[has] - 1]
        # whole words inside the block before word jq: gather the block's
        # 8 lane-sum words, keep columns < (jq & 7), take top bytes
        w0 = b << 3
        nw = (jq & 7).astype(np.int64)
        some = nw > 0
        if some.any():
            idx = (w0[some, None] + np.arange(8, dtype=np.int64)[None, :])
            np.minimum(idx, K - 1, out=idx)
            gw = (wsum[idx] >> _S56).view(np.int64)
            gw[np.arange(8, dtype=np.int64)[None, :] >= nw[some, None]] = 0
            base[some] += gw.sum(axis=1)
        # bytes inside word jq before pos: mask the original word to its
        # first r bytes, multiply-trick its byte sum
        r = (pos[in_body] & 7).astype(np.int64)
        word = mu[:K << 3].view(np.uint64)[jq]
        partial = (((word & _FIRST[r]) * _MUL) >> _S56).view(np.int64)
        out[in_body] = base + partial
    return out


class SeqRuns:
    """Per-row count/run engine over any positional domain: `offsets`
    (int64, n+1 entries) partition positions [0, seq_len) into rows, and
    masks are boolean arrays over those positions. BatchText specializes
    it to the byte domain; functions/_unitext.CPText to the codepoint
    domain (the vectorized non-ASCII path)."""

    n: int
    offsets: np.ndarray
    seq_len: int

    def _init_runs(self, n: int, offsets: np.ndarray, seq_len: int):
        self.n = n
        self.offsets = offsets
        self.seq_len = seq_len
        self._empty = None  # rows with offsets[i] == offsets[i+1]

    def count(self, mask: np.ndarray) -> np.ndarray:
        """Per-row count of True positions (int64)."""
        if not self.seq_len:
            return np.zeros(self.n, dtype=np.int64)
        L = self.seq_len
        if mask.dtype == np.bool_ and mask.flags.c_contiguous and \
                (mask.__array_interface__["data"][0] & 7) == 0:
            # SIMD path: per-row count = prefix(end) - prefix(start).
            # Prefixes come from one uint64 view of the 0/1 mask —
            # per-word byte-sums via the * 0x0101..01 >> 56 multiply
            # (sum of 8 bytes lands in the top byte; max 8, no carry),
            # one cumsum over L/8 words, then vectorized partial-word
            # lookups at the 2n offsets. reduceat walked the segments
            # with a scalar loop (~1.2 GB/s here); this streams.
            p = _mask_prefix_at(mask[:L].view(np.uint8), self.offsets)
            return p[1:] - p[:-1]
        if self._empty is None:
            self._empty = self.offsets[:-1] == self.offsets[1:]
        # sentinel False byte so offsets equal to len(buf) (trailing empty
        # rows) are valid reduceat indices; no clamping — a clamp silently
        # dropped the final byte of the last non-empty row. Masks built
        # over buf1 arrive pre-padded (no per-call copy); a NEGATED
        # padded mask can flip the sentinel True — subtract it from the
        # last row instead of copying.
        if len(mask) > self.seq_len:
            ext = mask
        else:
            ext = np.concatenate([mask, np.zeros(1, dtype=mask.dtype)])
        out = np.add.reduceat(ext, self.offsets[:-1]).astype(np.int64)
        if ext is mask and mask[-1] and not self._empty[-1]:
            out[-1] -= 1
        out[self._empty] = 0
        return out

    def _start_mask(self, mask: np.ndarray) -> np.ndarray:
        starts = mask.copy()
        starts[1:] &= ~mask[:-1]
        # drop boundary offsets at len(buf) (trailing empty rows) — they
        # index past the mask and mark no real row start
        inner = self.offsets[1:-1]
        inner = inner[inner < len(mask)]
        if len(inner):
            starts[inner] = mask[inner]
        return starts

    def run_start_counts(self, mask: np.ndarray) -> np.ndarray:
        """Per-row number of maximal True runs (row-boundary aware)."""
        return self.count(self._start_mask(mask))

    def runs(self, mask: np.ndarray):
        """(starts, lengths, row_ids) of maximal True runs, split at row
        boundaries. row_ids ascending."""
        starts_m = self._start_mask(mask)
        ends_m = mask.copy()
        ends_m[:-1] &= ~mask[1:]
        # boundary at position p ends any run at p-1; offsets of 0 (leading
        # empty rows) or len(buf) (trailing empties) mark no in-range end
        inner = self.offsets[1:-1]
        inner = inner[(inner > 0) & (inner <= len(mask))]
        if len(inner):
            prev = inner - 1
            ends_m[prev] = mask[prev]
        starts = np.nonzero(starts_m)[0]
        ends = np.nonzero(ends_m)[0]
        if len(mask) > self.seq_len:
            # padded mask with a flipped sentinel: its run is exactly
            # [len(buf), len(buf)] — drop it from both ends
            starts = starts[starts < self.seq_len]
            ends = ends[ends < self.seq_len]
        lengths = ends - starts + 1
        # row ids via per-row start counts + repeat: one reduceat and a
        # linear repeat instead of an n*log(rows) searchsorted
        per_row = self.count(starts_m)
        if len(mask) > self.seq_len and starts_m[-1]:
            pass  # count() already subtracted the flipped sentinel
        row_ids = np.repeat(np.arange(self.n, dtype=np.int64), per_row)
        if len(row_ids) != len(starts):  # safety net (unexpected shape)
            row_ids = np.searchsorted(self.offsets, starts,
                                      side="right") - 1
        return starts, lengths, row_ids


class BatchText(SeqRuns):
    """Zero-copy view of a string column as one byte buffer + offsets."""

    def __init__(self, col):
        arr = pc.cast(col, pa.large_binary())
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        n = len(arr)
        raw_off = np.frombuffer(arr.buffers()[1], dtype=np.int64)
        offsets = raw_off[arr.offset:arr.offset + n + 1]
        self.buf = (np.frombuffer(arr.buffers()[2], dtype=np.uint8)
                    if arr.buffers()[2] is not None else np.zeros(0, np.uint8))
        self._init_runs(n, offsets, len(self.buf))
        self._arr = arr
        self._nonascii = None
        self._buf1 = None
        self._buf8 = None
        self._low8 = None

    @property
    def buf8(self) -> np.ndarray:
        """buf + eight zero bytes: lets word_keys build its overlapping
        uint64 view without a per-call full-buffer concatenate (the
        stage's last whole-buffer copy)."""
        if self._buf8 is None:
            self._buf8 = np.concatenate(
                [self.buf, np.zeros(8, dtype=np.uint8)])
        return self._buf8

    @property
    def low8(self) -> np.ndarray:
        """Table-lowercased buf8, built once per batch: word_keys
        gathers pre-lowered words from it (replacing a 9-op SWAR
        lowercase over every gathered word per call), and
        normalize_ws_lower's lower=True path reuses it (round-5 DRAM
        cut)."""
        if self._low8 is None:
            self._low8 = _LOW_TBL[self.buf8]
        return self._low8

    @property
    def buf1(self) -> np.ndarray:
        """buf + one always-False sentinel byte: masks built over buf1
        (length len(buf)+1) make count() a straight reduceat — no
        per-call sentinel concatenation (a full mask copy per count)."""
        if self._buf1 is None:
            self._buf1 = np.concatenate(
                [self.buf, np.zeros(1, dtype=np.uint8)])
        return self._buf1

    def take(self, rows: np.ndarray) -> "BatchText":
        """BatchText of the given rows, in that order."""
        return BatchText(pc.take(self._arr, rows))

    def row_text(self, i: int) -> str:
        b = self._arr[i].as_py()
        return b.decode("utf-8", errors="replace") if b is not None else ""

    @property
    def nonascii_rows(self) -> np.ndarray:
        """Row indices containing any byte >= 0x80."""
        if self._nonascii is None:
            self._nonascii = np.nonzero(self.count(self.buf >= 0x80) > 0)[0]
        return self._nonascii


def absorption_savings(eng: SeqRuns, letter: np.ndarray, lower: np.ndarray,
                       apo: np.ndarray, letter_runs=None) -> np.ndarray:
    """Per-row token-count savings of the BPE-ish rule's apostrophe
    absorption — ``[A-Za-z]+(?:'[a-z]+)?`` — relative to the naive
    decomposition (letter-run starts + digit-run starts + other chars).

    Domain-generic (byte or codepoint positions): `letter`/`lower`/`apo`
    are class masks over eng's positional domain ([A-Za-z], [a-z], ').

    Sequential regex semantics, vectorized: a match starting at letter
    segment S absorbs ' + the following maximal-lowercase prefix iff the
    char after S's end is ' and the one after that is lowercase (same
    row). Savings per event: 1 (the ') +1 more when the prefix covers
    the ENTIRE next segment (its match disappears). A fully absorbed
    segment cannot itself absorb — the alternation along chains of
    full-absorption links resolves by parity within maximal link runs
    (F(i) = H(i) & ~F(i-1) has closed form: distance to the last
    non-link position is odd)."""
    n_seg_savings = np.zeros(eng.n, dtype=np.int64)
    starts, lengths, rows = (letter_runs if letter_runs is not None
                             else eng.runs(letter))
    ns = len(starts)
    if not ns:
        return n_seg_savings
    ends = starts + lengths - 1
    row_end = eng.offsets[rows + 1]
    L = eng.seq_len
    nxt1 = np.minimum(ends + 1, L - 1)
    nxt2 = np.minimum(ends + 2, L - 1)
    link = (ends + 2 < row_end) & apo[nxt1] & lower[nxt2]
    if not link.any():
        return n_seg_savings
    # aln(i) = link(i) and segment i+1 is ALL lowercase — evaluated only
    # at linked segments (apostrophes are sparse): binary-search the
    # uppercase positions instead of whole-buffer prefix sums
    link_idx = np.nonzero(link)[0]
    aln = np.zeros(ns, dtype=bool)
    j = link_idx + 1
    ok = j < ns  # a lowercase letter after ' implies a next segment
    li, j = link_idx[ok], j[ok]
    if len(j):
        up_pos = np.nonzero(letter[:L] & ~lower[:L])[0]
        if len(up_pos):
            k = np.searchsorted(up_pos, starts[j])
            kc = np.minimum(k, len(up_pos) - 1)
            has_up = (k < len(up_pos)) & (up_pos[kc] <= ends[j])
            aln[li] = ~has_up
        else:
            aln[li] = True
    # h(i) = absorbing at i fully consumes segment i+1 (== aln here)
    H = np.zeros(ns, dtype=bool)
    H[1:] = aln[:-1]
    idx = np.arange(ns, dtype=np.int64)
    last_false = np.maximum.accumulate(np.where(~H, idx, -1))
    F = H & (((idx - last_false) & 1) == 1)
    A = link & ~F
    if A.any():
        gain = np.ones(ns, dtype=np.int64)
        gain += aln
        n_seg_savings = np.bincount(rows[A], weights=gain[A],
                                    minlength=eng.n).astype(np.int64)
    return n_seg_savings


def pack_word(w: str) -> int:
    """Lowercased word -> little-endian uint64 key (ASCII words <= 8B)."""
    b = w.encode()
    assert len(b) <= 8
    return int.from_bytes(b.ljust(8, b"\0"), "little")


_LEN_MASKS = np.array(
    [0] + [(1 << (8 * j)) - 1 for j in range(1, 8)] + [~np.uint64(0)],
    dtype=np.uint64)


def word_keys(low8: np.ndarray, starts: np.ndarray,
              lengths: np.ndarray) -> np.ndarray:
    """uint64 key of the first min(len, 8) bytes of each run of a
    lowered byte buffer that ends in at least 7 pad bytes (a
    BatchText's low8). Keys of words longer than 8 bytes include byte
    7, so they cannot collide with any <= 8-byte stopword key.

    ONE unaligned little-endian uint64 gather per word + a length mask.
    Bytes >= 0x80 give keys that are not UTF-8-exact, so the analysis
    kernels call this on ASCII rows only (non-ASCII rows are keyed in
    the codepoint domain, _unitext.cp_word_keys)."""
    if not len(starts):
        return np.zeros(0, dtype=np.uint64)
    try:
        view = np.ndarray(shape=(len(low8) - 7,), dtype=np.uint64,
                          buffer=low8.data, strides=(1,))
        lowered = view[starts]
    except (ValueError, TypeError):
        # platform without unaligned views: byte-gather fallback
        lowered = np.zeros(len(starts), dtype=np.uint64)
        for j in range(8):
            lowered |= low8[starts + j].astype(np.uint64) << np.uint64(8 * j)
    return lowered & _LEN_MASKS[np.minimum(lengths, 8)]


def stop_table(stop_sets):
    """One sorted key table over up to 64 stopword sets: (keys, bits),
    bit i of an entry set when its word is in set i. Words of more than
    8 UTF-8 bytes have no key and are left out."""
    key_lists = [np.array([pack_word(w) for w in words if len(w.encode()) <= 8],
                          dtype=np.uint64) for words in stop_sets]
    if len(key_lists) > 64:
        raise ValueError("stop_table supports at most 64 sets")
    keys = np.unique(np.concatenate(key_lists)) if key_lists else \
        np.zeros(0, np.uint64)
    bits = np.zeros(len(keys), dtype=np.uint64)
    for si, ks in enumerate(key_lists):
        bits[np.searchsorted(keys, ks)] |= np.uint64(1 << si)
    return keys, bits


def key_bits(table, keys: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per word: the stop_table bits of its key (one binary search for
    all sets), 0 when absent or when the word is longer than 8."""
    tk, tb = table
    if not len(tk) or not len(keys):
        return np.zeros(len(keys), dtype=np.uint64)
    pos = np.minimum(np.searchsorted(tk, keys), len(tk) - 1)
    return np.where((tk[pos] == keys) & (lengths <= 8), tb[pos], np.uint64(0))


def kept_ws_start_mask(eng: SeqRuns, w: np.ndarray) -> np.ndarray:
    """Start mask of the whitespace runs that SURVIVE (as one space) in
    the ``' '.join(t.split())`` normalization: every maximal ws run
    except a row's LEADING run (it starts at the row offset — maximal
    runs split at row boundaries, so a leading run starts there exactly)
    and its TRAILING run (it covers the row's last position; that run's
    start is the largest run start <= the position, since runs never
    cross rows). O(positions) for the start mask + O(rows log runs) for
    the two exclusions — the previous per-run formulation materialized
    six |runs|-element arrays (row ids via repeat, next-start shifts,
    boundary compares) per call, the word paths' largest remaining DRAM
    cost (VERDICT r4 #10)."""
    sm = eng._start_mask(w)
    offs = eng.offsets
    row_starts = offs[:-1]
    row_ends = offs[1:] - 1
    nonempty = row_ends >= row_starts
    lead = row_starts[nonempty]
    lead = lead[w[lead]]
    tpos = row_ends[nonempty]
    tpos = tpos[w[tpos]]
    if len(tpos):
        ws_starts = np.nonzero(sm)[0]
        ti = np.searchsorted(ws_starts, tpos, side="right") - 1
        sm[ws_starts[ti]] = False
    if len(lead):
        sm[lead] = False
    return sm


def normalize_ws_lower(bt: BatchText, ws: np.ndarray | None = None,
                       lower: bool = True):
    """Vectorized twin of ' '.join(text.lower().split()): lowercase
    (unless lower=False), collapse whitespace runs to single spaces,
    strip ends. Returns (compact uint8 buffer, new int64 offsets).
    Exact for ASCII rows. Pass a precomputed ws mask to skip
    re-classifying the buffer."""
    buf, offsets = bt.buf, bt.offsets
    if not len(buf):
        return buf, np.zeros(bt.n + 1, dtype=np.int64)
    w = ws_mask(buf) if ws is None else ws
    if len(w) > len(buf):
        w = w[: len(buf)]  # zero-copy trim of a buf1-padded mask
    keep = np.logical_not(w)
    np.logical_or(keep, kept_ws_start_mask(bt, w), out=keep)
    out = bt.low8[: len(buf)].copy() if lower else buf.copy()
    out[w] = 32
    out = out[keep]
    rowcounts = bt.count(keep)
    new_offsets = np.concatenate(([0], np.cumsum(rowcounts, dtype=np.int64)))
    return out, new_offsets
