"""Vectorized Unicode machinery: the non-ASCII twin of _bytetext.

Real web corpora are ~half non-ASCII, so a per-row Python fallback for
every non-ASCII row is a 100x-scale cliff (VERDICT r4 #2). This module
keeps valid-UTF-8 non-ASCII rows fully vectorized:

  * strict UTF-8 validation (numpy; overlongs, surrogates, > U+10FFFF,
    truncation, row-boundary crossings) — only rows that Python's
    ``bytes.decode(errors="replace")`` would actually alter fall back
    to the per-row reference path;
  * byte-level detection of multi-byte Unicode whitespace (so the
    extract stage's whitespace compaction is exact on any valid row);
  * vectorized UTF-8 <-> codepoint transcode;
  * regex-exact character-class tables (``\\w``, ``\\d``, ``\\s``) and a
    ``str.lower`` table, built ONCE per worker process by running the
    real CPython regex engine / str.lower over every codepoint — the
    tables ARE the reference semantics, not an approximation;
  * ``CPText``: the _bytetext.SeqRuns engine over the codepoint domain,
    so analysis kernels reuse their run/count logic unchanged.

Exactness envelope: everything here is bit-identical to the per-row
reference for valid UTF-8 rows that avoid the two length/context
special-casing codepoints U+0130 (latin capital I with dot: lowers to
TWO codepoints) and U+03A3 (greek Sigma: final-sigma context rule).
Rows containing those (or invalid UTF-8) are flagged for the per-row
path — a vanishing fraction of any real corpus.
"""
from __future__ import annotations

import re

import numpy as np

from . import _bytetext as _bt
from ._bytetext import SeqRuns

_MAX_CP = 0x110000

# ---------------------------------------------------------------------------
# class tables (built lazily once per process; ~15 MB total, ~0.5 s)


def _all_cps() -> np.ndarray:
    return np.concatenate([np.arange(0xD800), np.arange(0xE000, _MAX_CP)])


_ALL_CPS_STR = None


def _all_cps_str() -> str:
    global _ALL_CPS_STR
    if _ALL_CPS_STR is None:
        _ALL_CPS_STR = "".join(map(chr, _all_cps().tolist()))
    return _ALL_CPS_STR


def _build_class_table(pattern: str) -> np.ndarray:
    """bool[0x110000]: does ``re.fullmatch(pattern, chr(cp))`` match?

    Built by one C-level ``re.sub`` over the string of every codepoint
    (each match is a single char, so lengths are preserved), decoded
    back through UTF-32 — the regex engine itself supplies the Unicode
    semantics, so the table is exact by construction."""
    s = _all_cps_str()
    marked = re.sub(pattern, "\x00", s)
    arr = np.frombuffer(marked.encode("utf-32-le"), dtype=np.uint32)
    tab = np.zeros(_MAX_CP, dtype=bool)
    tab[_all_cps()] = arr == 0
    # the real U+0000 is untouched by sub unless it matches: test directly
    tab[0] = re.fullmatch(pattern, "\x00") is not None
    return tab


# U+0130 / U+03A3: the only codepoints whose str.lower() is multi-char
# or context-dependent (SpecialCasing.txt); rows containing them fall
# back, so the 1:1 table below is exact everywhere it is used.
SPECIAL_LOWER_CPS = (0x0130, 0x03A3)


def _build_lower_table() -> np.ndarray:
    s = _all_cps_str()
    for cp in SPECIAL_LOWER_CPS:
        s = s.replace(chr(cp), "\x00")
    low = s.lower()
    assert len(low) == len(s), "unexpected multi-char lower mapping"
    arr = np.frombuffer(low.encode("utf-32-le"), dtype=np.uint32)
    tab = np.arange(_MAX_CP, dtype=np.uint32)
    tab[_all_cps()] = arr
    tab[0] = 0
    for cp in SPECIAL_LOWER_CPS:
        tab[cp] = cp  # never consulted: special rows take the row path
    return tab


_TABLES: dict = {}


def class_table(name: str) -> np.ndarray:
    """'word' (\\w), 'digit' (\\d), 'space' (\\s == str whitespace),
    'lower' (1:1 str.lower map)."""
    tab = _TABLES.get(name)
    if tab is None:
        if name == "lower":
            tab = _build_lower_table()
        else:
            tab = _build_class_table(
                {"word": r"\w", "digit": r"\d", "space": r"\s"}[name])
        _TABLES[name] = tab
        global _ALL_CPS_STR
        _ALL_CPS_STR = None  # free the 4.4 MB scratch once tables exist
    return tab


# ---------------------------------------------------------------------------
# strict UTF-8 validation


def invalid_utf8_rows(bt) -> np.ndarray:
    """Row indices whose bytes are NOT strict UTF-8 (so that
    ``decode("utf-8", errors="replace")`` would alter them), plus —
    conservatively — rows adjacent to a sequence error that straddles a
    row boundary. Rows NOT returned are guaranteed valid; returned rows
    may include a few valid neighbors of invalid rows (they just take
    the exact per-row path)."""
    buf, offsets = bt.buf, bt.offsets
    L = len(buf)
    if not L:
        return np.zeros(0, dtype=np.int64)
    is_cont = (buf & 0xC0) == 0x80
    l2 = (buf >= 0xC2) & (buf <= 0xDF)
    l3 = (buf >= 0xE0) & (buf <= 0xEF)
    l4 = (buf >= 0xF0) & (buf <= 0xF4)
    ascii_ = buf < 0x80
    bad = ~(ascii_ | l2 | l3 | l4 | is_cont)  # C0/C1/F5..FF lead bytes

    # positions every multi-byte lead CLAIMS as continuations: three
    # shifted ORs (claims reach <= 3 bytes) — no scatter, no cumsum
    m2 = l2 | l3 | l4
    m3 = l3 | l4
    must = np.zeros(L, dtype=bool)
    must[1:] = m2[:-1]
    must[2:] |= m3[:-2]
    must[3:] |= l4[:-3]
    mism = must != is_cont
    if mism.any():
        # a mismatch marks its own position AND (conservatively) up to
        # 3 bytes back — a truncated sequence must flag the LEAD's row
        bad |= mism
        bad[:-1] |= mism[1:]
        bad[:-2] |= mism[2:]
        bad[:-3] |= mism[3:]

    # constrained second bytes (overlongs, surrogates, > U+10FFFF):
    # one candidate gather for the four special leads
    cand = np.nonzero((buf == 0xE0) | (buf == 0xED)
                      | (buf == 0xF0) | (buf == 0xF4))[0]
    if len(cand):
        b0 = buf[cand]
        nxt = np.minimum(cand + 1, L - 1)
        b1 = buf[nxt]
        lo = np.where(b0 == 0xE0, 0xA0,
                      np.where(b0 == 0xF0, 0x90, 0x80)).astype(np.uint8)
        hi = np.where(b0 == 0xED, 0x9F,
                      np.where(b0 == 0xF4, 0x8F, 0xBF)).astype(np.uint8)
        viol = (b1 < lo) | (b1 > hi) | (cand + 1 >= L)
        bad[cand[viol]] = True

    # sequences crossing a row boundary (or truncated at the buffer
    # end): O(rows) — inspect only the <=3 bytes before each boundary
    bnd = offsets[1:]
    rs = offsets[:-1]
    span = bnd - rs
    extra = []
    for back, lead in ((1, m2), (2, m3), (3, l4)):
        p = bnd - back
        okr = (span >= back) & (p < L)
        pv = p[okr]
        c = pv[lead[pv]]
        if len(c):
            extra.append(c)                       # the lead's row
            extra.append(np.minimum(bnd[okr][lead[pv]], L - 1))  # next row
    pos = np.nonzero(bad)[0]
    if extra:
        pos = np.concatenate([pos] + extra)
    if not len(pos):
        return np.zeros(0, dtype=np.int64)
    rows = np.searchsorted(offsets, pos, side="right") - 1
    return np.unique(rows)


# ---------------------------------------------------------------------------
# multi-byte Unicode whitespace at the byte level

# UTF-8 of every cp >= 0x80 with str-whitespace semantics:
#   C2 85 (NEL), C2 A0 (NBSP), E1 9A 80 (OGHAM), E2 80 80..8A, A8, A9, AF,
#   E2 81 9F, E3 80 80 — pinned against class_table('space') by tests.
def unicode_ws_byte_mask(buf: np.ndarray) -> np.ndarray:
    """bool mask over buf marking EVERY byte of each multi-byte Unicode
    whitespace sequence. Exact on valid-UTF-8 rows (the lead bytes
    C2/E1/E2/E3 can never be continuation bytes, so a match is a real
    character); sequences broken across row boundaries only occur in
    invalid rows, which take the per-row path anyway."""
    L = len(buf)
    mask = np.zeros(L, dtype=bool)
    cand = np.nonzero((buf == 0xC2) | (buf >= 0xE1) & (buf <= 0xE3))[0]
    if not len(cand):
        return mask
    b0 = buf[cand]
    b1 = buf[np.minimum(cand + 1, L - 1)]
    b2 = buf[np.minimum(cand + 2, L - 1)]
    two = (b0 == 0xC2) & ((b1 == 0x85) | (b1 == 0xA0)) & (cand + 1 < L)
    e1 = (b0 == 0xE1) & (b1 == 0x9A) & (b2 == 0x80)
    e2 = (b0 == 0xE2) & (
        ((b1 == 0x80) & (((b2 >= 0x80) & (b2 <= 0x8A))
                         | (b2 == 0xA8) | (b2 == 0xA9) | (b2 == 0xAF)))
        | ((b1 == 0x81) & (b2 == 0x9F)))
    e3 = (b0 == 0xE3) & (b1 == 0x80) & (b2 == 0x80)
    three = (e1 | e2 | e3) & (cand + 2 < L)
    p2 = cand[two]
    mask[p2] = True
    mask[p2 + 1] = True
    p3 = cand[three]
    mask[p3] = True
    mask[p3 + 1] = True
    mask[p3 + 2] = True
    return mask


# ---------------------------------------------------------------------------
# transcode


def decode_utf8(bt):
    """(cp: uint32[n_cps], cp_offsets: int64[n+1]) for the whole batch:
    one codepoint per non-continuation byte, so a row's codepoints are
    counted from its bytes alone. Exact for valid rows. A valid buffer
    (any Arrow string column) decodes in CPython's C codecs; a buffer
    with invalid bytes decodes in numpy, garbage for the invalid rows
    only, every codepoint below 0x110000 (U+FFFD past it). No Python per
    row."""
    buf, offsets = bt.buf, bt.offsets
    cont = (buf & 0xC0) == 0x80
    cp_offsets = offsets - _bt._mask_prefix_at(cont.view(np.uint8), offsets)
    try:
        return np.frombuffer(buf.tobytes().decode("utf-8").encode("utf-32-le"),
                             dtype=np.uint32), cp_offsets
    except UnicodeDecodeError:
        pass
    L = len(buf)
    lead_pos = np.flatnonzero(~cont)
    b0 = buf[lead_pos].astype(np.uint32)
    k = np.ones(len(b0), dtype=np.uint8)
    k[b0 >= 0xC0] = 2
    k[b0 >= 0xE0] = 3
    k[b0 >= 0xF0] = 4
    cp = b0.copy()
    cp[k == 2] &= 0x1F
    cp[k == 3] &= 0x0F
    cp[k == 4] &= 0x07
    for j in (1, 2, 3):
        m = k > j
        if m.any():
            p = np.minimum(lead_pos[m] + j, L - 1)
            cp[m] = (cp[m] << np.uint32(6)) | (buf[p] & np.uint32(0x3F))
    # F5-FF leads (and F4 90+) reach past U+10FFFF, off every class table
    cp[cp >= 0x110000] = 0xFFFD
    return cp, cp_offsets


def utf8_lengths(cp: np.ndarray) -> np.ndarray:
    return (1 + (cp >= 0x80).astype(np.int64) + (cp >= 0x800)
            + (cp >= 0x10000))


def encode_utf8(cp: np.ndarray):
    """Vectorized UTF-8 encode: (byte buffer uint8, per-cp byte offsets
    int64[n_cps+1]), the bytes from CPython's UTF-32 -> UTF-8 codecs.
    Surrogates pass through in their 3-byte form; cps must be below
    0x110000 (every cp that went through the lower table is)."""
    ln = utf8_lengths(cp)
    off = np.empty(len(cp) + 1, dtype=np.int64)
    off[0] = 0
    np.cumsum(ln, out=off[1:])
    text = cp.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
    return np.frombuffer(text.encode("utf-8", "surrogatepass"),
                         dtype=np.uint8), off


# ---------------------------------------------------------------------------
# codepoint-domain run engine


def utf8_le_u64(cp: np.ndarray):
    """(value, nbytes): each codepoint's UTF-8 bytes packed little-endian
    into a uint64 (byte 0 = lead byte)."""
    c = cp.astype(np.uint64)
    ln = utf8_lengths(cp)
    val = c.copy()
    m2 = ln == 2
    if m2.any():
        v = c[m2]
        val[m2] = (0xC0 | (v >> np.uint64(6))) | \
                  ((0x80 | (v & np.uint64(0x3F))) << np.uint64(8))
    m3 = ln == 3
    if m3.any():
        v = c[m3]
        val[m3] = (0xE0 | (v >> np.uint64(12))) \
            | ((0x80 | ((v >> np.uint64(6)) & np.uint64(0x3F))) << np.uint64(8)) \
            | ((0x80 | (v & np.uint64(0x3F))) << np.uint64(16))
    m4 = ln == 4
    if m4.any():
        v = c[m4]
        val[m4] = (0xF0 | (v >> np.uint64(18))) \
            | ((0x80 | ((v >> np.uint64(12)) & np.uint64(0x3F))) << np.uint64(8)) \
            | ((0x80 | ((v >> np.uint64(6)) & np.uint64(0x3F))) << np.uint64(16)) \
            | ((0x80 | (v & np.uint64(0x3F))) << np.uint64(24))
    return val, ln


_NO_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)  # impossible UTF-8 byte pattern


def cp_word_keys(cps: np.ndarray, starts: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """uint64 key per word run over a codepoint array: the word's UTF-8
    bytes packed little-endian when they fit in 8 bytes, else a sentinel
    no stopword key can equal (0xFF bytes never occur in UTF-8). Pass
    LOWERED cps to get case-folded keys. Exact set-membership vs
    ``pack_word``-style keys of <= 8-byte stopwords.

    Only the codepoints of words of <= 8 codepoints are encoded: each
    such word's cps are gathered into one flat run, packed with its
    bytes' in-word offsets, and OR-reduced per word."""
    keys = np.full(len(starts), _NO_KEY, dtype=np.uint64)
    short = np.flatnonzero(lengths <= 8)
    if not len(short):
        return keys
    fl = lengths[short]
    first = np.zeros(len(short), dtype=np.int64)   # word -> flat index
    np.cumsum(fl[:-1], out=first[1:])
    pos = np.repeat(starts[short] - first, fl) + np.arange(int(fl.sum()))
    val, ln = utf8_le_u64(cps[pos])
    end = np.cumsum(ln)                             # flat byte ends
    off = end - ln
    off -= np.repeat(off[first], fl)                # byte offset in word
    total = off[first + fl - 1] + ln[first + fl - 1]
    # offsets past byte 7 only occur in words that do not fit (dropped)
    packed = np.bitwise_or.reduceat(
        val << (np.minimum(off, 7).astype(np.uint64) * np.uint64(8)), first)
    fits = total <= 8
    keys[short[fits]] = packed[fits]
    return keys


class CPText(SeqRuns):
    """A subset of a BatchText's rows decoded to codepoints, with the
    SeqRuns count/runs engine over the codepoint domain. `rows` maps
    local row index -> original batch row index."""

    def __init__(self, bt, rows: np.ndarray):
        self.rows = np.asarray(rows, dtype=np.int64)
        sub = bt.take(self.rows)
        self._sub = sub
        cp, cp_off = decode_utf8(sub)
        self.cp = cp
        self._init_runs(len(self.rows), cp_off, len(cp))

    def row_text(self, i: int) -> str:
        return self._sub.row_text(i)

    def lowered(self) -> np.ndarray:
        return class_table("lower")[self.cp]


def normalize_cp(cpt: CPText, lowered: np.ndarray | None = None):
    """Codepoint-domain twin of ``" ".join(t.lower().split()).encode()``:
    lower via the 1:1 table, collapse Unicode-whitespace runs to single
    ASCII spaces, strip row ends, encode back to UTF-8. Returns
    (uint8 buffer, per-row int64 byte offsets). Exact for rows without
    the SPECIAL_LOWER_CPS (callers route those per-row); lowering never
    changes whitespace-ness, so classifying the ORIGINAL cps is exact."""
    if lowered is None:
        lowered = cpt.lowered()
    w = class_table("space")[cpt.cp]
    # same survive-one-space rule as _bytetext.normalize_ws_lower
    keep = np.logical_not(w)
    np.logical_or(keep, _bt.kept_ws_start_mask(cpt, w), out=keep)
    vals = lowered.copy()
    vals[w] = 0x20
    vals = vals[keep]
    row_cp_counts = cpt.count(keep)
    buf, cp_byte_off = encode_utf8(vals)
    row_cp_off = np.concatenate(
        ([0], np.cumsum(row_cp_counts, dtype=np.int64)))
    return buf, cp_byte_off[row_cp_off]
