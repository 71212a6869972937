"""Text-analysis kernels for large-scale training-data pipelines.

All stages are map_batches kernels; state is built once per actor
(callable classes). Each batch is split ONCE by row (SharedMasks), and
every row is analysed in exactly one domain:

  * ASCII rows in the byte domain — the numpy byte-class engine in
    functions/_bytetext.py, a handful of vectorized passes over one
    concatenated buffer;
  * non-ASCII rows in the codepoint domain — functions/_unitext.py's
    regex-exact Unicode class tables over the same SeqRuns run engine.

A kernel computes each result once per domain and scatters the two
halves into batch order. The apostrophe-absorption rule of the BPE-ish
tokenizer is resolved in closed form (_bytetext.absorption_savings);
the per-row reference implementations survive only as the oracle for
tests and for rows containing the two str.lower special-casing
codepoints (U+0130/U+03A3). Semantics stay bit-identical at any mix.
"""
from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

from . import _bytetext as bt

# tiny per-language stopword profiles for the heuristic language ID
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "for", "it"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit", "auf"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "de", "que", "pour"},
    "es": {"el", "la", "los", "y", "es", "un", "una", "de", "que", "por"},
    "pt": {"o", "a", "os", "e", "é", "um", "uma", "de", "que", "para"},
}

_TOKEN_RE = r"[A-Za-z]+(?:'[a-z]+)?|\d+|[^\sA-Za-z\d]"

# every word key is looked up once, in one table whose entries carry a
# bit per profile; the "en" bit doubles as QualityScore's stop set
_STOP_TABLE = bt.stop_table(_LANG_PROFILES.values())
_EN_BIT = np.uint64(1 << list(_LANG_PROFILES).index("en"))
# a word can only equal a stopword if it is no longer than the longest
# one and starts with some stopword's first character
_STOP_MAX_LEN = max(len(w) for ws in _LANG_PROFILES.values() for w in ws)
_STOP_FIRST = np.unique([ord(w[0]) for ws in _LANG_PROFILES.values() for w in ws])


def _first_words(rows: np.ndarray, n: int, max_words: int):
    """Selector of each row's first `max_words` words (`rows` ascending),
    or None when no row has more."""
    nw = np.bincount(rows, minlength=n)
    if not len(rows) or nw.max() <= max_words:
        return None
    firsts = np.concatenate([[0], np.cumsum(nw)[:-1]])
    return np.arange(len(rows)) - np.repeat(firsts, nw) < max_words


class _Rows:
    """The rows of a batch that one domain analyses. `eng` is their
    SeqRuns engine; `rows` maps local row -> batch row (None when they
    are the whole batch). Class masks, runs and word keys are cached,
    so kernels sharing a class pay for it once per batch."""

    special_rows = np.zeros(0, dtype=np.int64)

    def __init__(self, eng, rows):
        self.eng = eng
        self.rows = rows
        self.n = eng.n
        self._m = {}
        self._runs = {}
        self._words = None
        self._letter_words = None
        self._norm = None

    def mask(self, name: str) -> np.ndarray:
        m = self._m.get(name)
        if m is None:
            if name == "letterapo":
                m = self.mask("letter") | self.mask("apo")
            elif name == "wordapo":
                m = self.mask("word") | self.mask("apo")
            else:
                m = self._class_mask(name)
            self._m[name] = m
        return m

    def runs(self, name: str):
        """Cached (starts, lengths, row_ids) of the named mask's runs."""
        r = self._runs.get(name)
        if r is None:
            r = self._runs[name] = self.eng.runs(self.mask(name))
        return r

    def normalized(self):
        """Cached (buffer, row offsets) of ' '.join(t.lower().split())."""
        if self._norm is None:
            self._norm = self._normalize()
        return self._norm


class _AsciiRows(_Rows):
    """ASCII rows in the byte domain (eng: a BatchText). Byte classes
    are exact here: every byte is a whole character."""

    def _class_mask(self, name: str) -> np.ndarray:
        # over buf1 (buf + a False sentinel): count() reduceats directly
        buf = self.eng.buf1
        if name == "letter":        # [A-Za-z]
            return bt.letter_mask(buf)
        if name == "lowletter":     # [a-z]
            return (buf >= 97) & (buf <= 122)
        if name == "digit":         # \d
            return bt.digit_mask(buf)
        if name == "space":         # \s
            return bt.ws_mask(buf)
        if name == "apo":
            return bt.apo_mask(buf)
        if name == "word":          # \w
            return self.mask("letter") | self.mask("digit") | (buf == 95)
        raise KeyError(name)

    def _all_words(self):
        """(starts, lengths, rows, bits) of every [\\w']+ word: one run
        pass, one key gather, one table lookup."""
        if self._words is None:
            starts, lengths, rows = self.runs("wordapo")
            keys = bt.word_keys(self.eng.low8, starts, lengths)
            self._words = (starts, lengths, rows,
                           bt.key_bits(_STOP_TABLE, keys, lengths))
        return self._words

    def words(self, max_words: int):
        """(rows, bits) of each row's first `max_words` [\\w']+ words."""
        _, _, rows, bits = self._all_words()
        sel = _first_words(rows, self.n, max_words)
        return (rows, bits) if sel is None else (rows[sel], bits[sel])

    def letter_words(self):
        """(rows, lengths, bits) of the [A-Za-z']+ words: the [\\w']+ words
        cut at digits and '_'. A word without a cut keeps its key; only
        the cut pieces gather new ones."""
        if self._letter_words is None:
            starts, lengths, rows, bits = self._all_words()
            cut = np.flatnonzero(self.mask("word") ^ self.mask("letter"))
            if len(cut):
                split = np.zeros(len(starts), dtype=bool)
                split[np.searchsorted(starts, cut, "right") - 1] = True
                ss, se = starts[split], starts[split] + lengths[split] - 1
                # a run cut at p1 < .. < pk is [s, p1-1], [p1+1, p2-1], ..,
                # [pk+1, e]; runs are disjoint, so sorting all starts and
                # all ends pairs them up (empty pieces have end < start)
                ps = np.sort(np.concatenate([ss, cut + 1]))
                pe = np.sort(np.concatenate([se, cut - 1]))
                keep = pe >= ps
                ps, pl = ps[keep], (pe - ps + 1)[keep]
                prow = rows[np.searchsorted(starts, ps, "right") - 1]
                pbits = bt.key_bits(
                    _STOP_TABLE, bt.word_keys(self.eng.low8, ps, pl), pl)
                whole = ~split
                rows = np.concatenate([rows[whole], prow])
                lengths = np.concatenate([lengths[whole], pl])
                bits = np.concatenate([bits[whole], pbits])
            self._letter_words = (rows, lengths, bits)
        return self._letter_words

    def _normalize(self):
        return bt.normalize_ws_lower(self.eng, ws=self.mask("space"))


class _CpRows(_Rows):
    """Non-ASCII rows in the codepoint domain (eng: a _unitext.CPText):
    \\w, \\d and \\s are the Unicode classes, [A-Za-z] stays ASCII."""

    def __init__(self, cpt):
        super().__init__(cpt, cpt.rows)
        self._low = None
        self._special = None

    def _class_mask(self, name: str) -> np.ndarray:
        from . import _unitext as ut

        cp = self.eng.cp
        if name == "letter":
            f = cp | np.uint32(32)
            return (f >= 97) & (f <= 122) & (cp < 128)
        if name == "lowletter":
            return (cp >= 97) & (cp <= 122)
        if name in ("digit", "space", "word"):
            return ut.class_table(name)[cp]
        if name == "apo":
            return cp == 39
        raise KeyError(name)

    @property
    def lowered(self) -> np.ndarray:
        """Table-lowered codepoints."""
        if self._low is None:
            self._low = self.eng.lowered()
        return self._low

    @property
    def special_rows(self) -> np.ndarray:
        """Local rows containing U+0130 / U+03A3: only these still need
        the per-row reference where str.lower semantics are involved."""
        if self._special is None:
            cp = self.eng.cp
            self._special = np.nonzero(
                self.eng.count((cp == 0x0130) | (cp == 0x03A3)) > 0)[0]
        return self._special

    def words(self, max_words: int):
        """(rows, bits) of each row's first `max_words` [\\w']+ words, keys
        packed from the lowered codepoints so non-ASCII stopwords ("é")
        and cased variants ("É") match."""
        from . import _unitext as ut

        starts, lengths, rows = self.runs("wordapo")
        sel = _first_words(rows, self.n, max_words)
        if sel is not None:
            starts, lengths, rows = starts[sel], lengths[sel], rows[sel]
        # key only the words that can match: lowering keeps the length
        cand = np.flatnonzero((lengths <= _STOP_MAX_LEN)
                              & np.isin(self.lowered[starts], _STOP_FIRST))
        bits = np.zeros(len(rows), dtype=np.uint64)
        keys = ut.cp_word_keys(self.lowered, starts[cand], lengths[cand])
        bits[cand] = bt.key_bits(_STOP_TABLE, keys, lengths[cand])
        return rows, bits

    def letter_words(self):
        """(rows, lengths, bits) of the [A-Za-z']+ words. Their lowered
        codepoints are ASCII, i.e. their own UTF-8 bytes, so the keys
        come from one byte view of the lowered codepoints."""
        if self._letter_words is None:
            starts, lengths, rows = self.runs("letterapo")
            low8 = np.zeros(self.eng.seq_len + 8, dtype=np.uint8)
            low8[:self.eng.seq_len] = self.lowered  # wraps; words are ASCII
            keys = bt.word_keys(low8, starts, lengths)
            self._letter_words = (rows, lengths,
                                  bt.key_bits(_STOP_TABLE, keys, lengths))
        return self._letter_words

    def _normalize(self):
        from . import _unitext as ut

        return ut.normalize_cp(self.eng, lowered=self.lowered)


class SharedMasks:
    """Per-batch analysis state shared by the kernels: the batch split
    once by `BatchText.nonascii_rows`. `ascii` holds the ASCII rows in
    the byte domain (the batch itself when it is all-ASCII, no copy);
    `cps` holds the non-ASCII rows in the codepoint domain (None when
    there are none). No row is analysed twice: a kernel runs each
    result over both domains and `per_row` scatters them once."""

    def __init__(self, b: bt.BatchText):
        self.b = b
        na = b.nonascii_rows
        if len(na):
            from . import _unitext as ut

            ascii_rows = np.ones(b.n, dtype=bool)
            ascii_rows[na] = False
            ascii_rows = np.flatnonzero(ascii_rows)
            self.ascii = _AsciiRows(b.take(ascii_rows), ascii_rows)
            self.cps = _CpRows(ut.CPText(b, na))
        else:
            self.ascii = _AsciiRows(b, None)
            self.cps = None

    def per_row(self, fn) -> np.ndarray:
        """fn(domain) -> one value per domain row, over both domains,
        scattered into batch row order."""
        on_ascii = fn(self.ascii)
        if self.cps is None:
            return on_ascii
        on_cps = fn(self.cps)
        out = np.empty(self.b.n, dtype=np.result_type(on_ascii, on_cps))
        out[self.ascii.rows] = on_ascii
        out[self.cps.rows] = on_cps
        return out


def _append(batch: pa.Table, cols: dict) -> pa.Table:
    for name, arr in cols.items():
        batch = batch.append_column(name, arr)
    return batch


class TokenCount:
    """Adds n_tokens (BPE-ish regex) and n_ws_tokens (whitespace split).

    Vectorized: n_tokens = letter-run starts + digit-run starts + other
    non-space chars, minus the closed-form savings of the regex's
    "[A-Za-z]+'[a-z]+" apostrophe absorption; n_ws_tokens = non-space
    runs."""

    def __init__(self, text_col: str = "text"):
        self.re = re.compile(_TOKEN_RE)
        self.text_col = text_col

    @staticmethod
    def _n_tokens(d: _Rows) -> np.ndarray:
        eng = d.eng
        letter, digit = d.mask("letter"), d.mask("digit")
        # letter runs are cached: absorption_savings reuses them
        lruns = d.runs("letter")
        return (np.bincount(lruns[2], minlength=d.n).astype(np.int64)
                + eng.run_start_counts(digit)
                + eng.count(~letter & ~digit & ~d.mask("space"))
                - bt.absorption_savings(eng, letter, d.mask("lowletter"),
                                        d.mask("apo"), letter_runs=lruns))

    def n_tokens(self, sh: SharedMasks) -> np.ndarray:
        return sh.per_row(self._n_tokens)

    def columns(self, sh: SharedMasks) -> dict:
        n_ws = sh.per_row(lambda d: d.eng.run_start_counts(~d.mask("space")))
        return {"n_tokens": pa.array(self.n_tokens(sh)),
                "n_ws_tokens": pa.array(n_ws)}

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _append(batch, self.columns(
            SharedMasks(bt.BatchText(batch[self.text_col]))))


class LangId:
    """Heuristic language ID: argmax stopword-hit ratio over profiles
    (first 200 words); 'und' (undetermined) when no profile scores."""

    MAX_WORDS = 200

    def __init__(self, text_col: str = "text", out_col: str = "lang_pred"):
        self.word = re.compile(r"[\w']+", re.U)
        self.text_col = text_col
        self.out_col = out_col
        self.profiles = {k: frozenset(v) for k, v in _LANG_PROFILES.items()}
        self.labels = list(self.profiles) + ["und"]

    def classify(self, text: str) -> str:
        words = [w.lower() for w in self.word.findall(text or "")[:self.MAX_WORDS]]
        if not words:
            return "und"
        best, best_score = "und", 0
        for lang, stop in self.profiles.items():
            score = sum(1 for w in words if w in stop)
            if score > best_score:
                best, best_score = lang, score
        return best

    def _best(self, d: _Rows) -> np.ndarray:
        """Per row: the label index of the profile with the most hits
        (first wins ties), or that of 'und' when none hits."""
        rows, bits = d.words(self.MAX_WORDS)
        hit = np.flatnonzero(bits)
        rows, bits = rows[hit], bits[hit]
        n_prof = len(self.profiles)
        scores = np.zeros((n_prof, d.n), dtype=np.int64)
        for si in range(n_prof):
            on = (bits >> np.uint64(si)) & np.uint64(1) != 0
            scores[si] = np.bincount(rows[on], minlength=d.n)
        best = np.where(scores.max(axis=0) > 0, scores.argmax(axis=0), n_prof)
        for li in d.special_rows:  # U+0130/U+03A3 lower rule
            best[li] = self.labels.index(self.classify(d.eng.row_text(int(li))))
        return best

    def lang_pred(self, sh: SharedMasks) -> pa.Array:
        return pa.array(self.labels, pa.string()).take(
            pa.array(sh.per_row(self._best)))

    def columns(self, sh: SharedMasks) -> dict:
        return {self.out_col: self.lang_pred(sh)}

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _append(batch, self.columns(
            SharedMasks(bt.BatchText(batch[self.text_col]))))


class QualityScore:
    """Heuristic quality features: length, punctuation ratio, stopword
    ratio, mean word length, and a composite [0,1] score."""

    def __init__(self, text_col: str = "text"):
        self.word = re.compile(r"[A-Za-z']+")
        self.punct = re.compile(r"[^\w\s]")
        self.stop = _LANG_PROFILES["en"]
        self.text_col = text_col

    def _row_reference(self, t: str):
        t = t or ""
        words = self.word.findall(t)
        punct_ratio = len(self.punct.findall(t)) / max(1, len(t)) if t else 0.0
        stop_ratio = (sum(1 for w in words if w.lower() in self.stop) / len(words)
                      if words else 0.0)
        mean_wlen = (sum(len(w) for w in words) / len(words)) if words else 0.0
        return len(t), punct_ratio, stop_ratio, mean_wlen

    def _ratios(self, sh: SharedMasks):
        """(n_chars, punct_ratio, stop_ratio, n_words) per row: len(t)
        counts characters, [^\\w\\s] and the [A-Za-z']+ words follow each
        domain's classes."""
        n_chars = sh.per_row(lambda d: np.diff(d.eng.offsets).astype(np.int64))
        n_punct = sh.per_row(
            lambda d: d.eng.count(~d.mask("word") & ~d.mask("space")))
        n_words = sh.per_row(self._n_words)
        n_stop = sh.per_row(self._n_stop)
        punct_ratio = np.where(n_chars > 0, n_punct / np.maximum(n_chars, 1), 0.0)
        stop_ratio = np.where(n_words > 0, n_stop / np.maximum(n_words, 1), 0.0)
        return n_chars, punct_ratio, stop_ratio, n_words

    @staticmethod
    def _n_words(d: _Rows) -> np.ndarray:
        return np.bincount(d.letter_words()[0], minlength=d.n)

    @staticmethod
    def _n_stop(d: _Rows) -> np.ndarray:
        rows, _, bits = d.letter_words()
        return np.bincount(rows[bits & _EN_BIT != 0], minlength=d.n)

    @staticmethod
    def _n_word_chars(d: _Rows) -> np.ndarray:
        rows, lengths, _ = d.letter_words()
        return np.bincount(rows, weights=lengths, minlength=d.n).astype(np.int64)

    @staticmethod
    def _score(n_chars, punct_ratio, stop_ratio) -> np.ndarray:
        return (np.clip(n_chars / 500.0, 0, 1) * 0.3
                + np.clip(stop_ratio * 4, 0, 1) * 0.4
                + np.clip(1.0 - punct_ratio * 5, 0, 1) * 0.3)

    def quality(self, sh: SharedMasks) -> np.ndarray:
        n_chars, punct_ratio, stop_ratio, _ = self._ratios(sh)
        return self._score(n_chars, punct_ratio, stop_ratio)

    def columns(self, sh: SharedMasks) -> dict:
        n_chars, punct_ratio, stop_ratio, n_words = self._ratios(sh)
        n_wchars = sh.per_row(self._n_word_chars)
        mean_wlen = np.where(n_words > 0, n_wchars / np.maximum(n_words, 1), 0.0)
        return {
            "n_chars_q": pa.array(n_chars),
            "punct_ratio": pa.array(punct_ratio),
            "stop_ratio": pa.array(stop_ratio),
            "mean_word_len": pa.array(mean_wlen),
            "quality": pa.array(self._score(n_chars, punct_ratio, stop_ratio)),
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _append(batch, self.columns(
            SharedMasks(bt.BatchText(batch[self.text_col]))))


def _blake64(data) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _blake_rows(buf: np.ndarray, offsets: np.ndarray, rows=None) -> np.ndarray:
    """64-bit blake2b of each row's bytes (of `rows` only, if given)."""
    mem = memoryview(buf)
    off = offsets.tolist()
    rows = range(len(off) - 1) if rows is None else rows.tolist()
    return np.array([_blake64(mem[off[i]:off[i + 1]]) for i in rows],
                    dtype=np.uint64)


class Fingerprint:
    """Document fingerprint: 64-bit blake2b of the normalized text, plus a
    winnowed rolling-hash (Karp-Rabin) min-sketch over character k-grams.
    Deterministic across runs/processes (no PYTHONHASHSEED dependence).

    Normalization (lower, collapse whitespace, strip) runs as a
    vectorized compaction in each domain; the k-gram hashes are
    computed in ONE pass over the compacted buffer, then min-reduced
    per row."""

    def __init__(self, text_col: str = "text", k: int = 8):
        self.text_col = text_col
        self.k = k

    @staticmethod
    def fnv1a(data: bytes) -> int:
        return _blake64(data)

    def rolling_min(self, data: bytes) -> int:
        k = self.k
        if len(data) < k:
            return self.fnv1a(data)
        arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        base = np.uint64(257)
        with np.errstate(over="ignore"):
            n = len(arr)
            h = np.zeros(n - k + 1, dtype=np.uint64)
            for j in range(k):
                h = h * base + arr[j : n - k + 1 + j]
        return int(h.min())

    @staticmethod
    def _rolling_row_min(buf: np.ndarray, offsets: np.ndarray,
                         n_rows: int, k: int) -> np.ndarray:
        """Per-row min of the k-gram Karp-Rabin hashes over a compacted
        buffer. Chunked so the k passes stay L2-resident (3x on this
        box); the per-row minima fold INTO each chunk via interleaved
        minimum.reduceat — the whole-buffer hash array (8 B/char written
        + re-read, the stage's dominant DRAM traffic) is never
        materialized."""
        maxu = np.iinfo(np.uint64).max
        row_min = np.full(n_rows, maxu, dtype=np.uint64)
        nbuf = len(buf)
        if nbuf >= k:
            base = np.uint64(257)
            chunk = 1 << 16
            with np.errstate(over="ignore"):
                for s in range(0, nbuf - k + 1, chunk):
                    e = min(s + chunk, nbuf - k + 1)
                    seg = buf[s:e + k - 1].astype(np.uint64)
                    hh = seg[0:e - s].copy()
                    for j in range(1, k):
                        hh *= base
                        hh += seg[j:e - s + j]
                    # rows whose valid h-range [o0, o1-k] meets [s, e)
                    r0 = max(int(np.searchsorted(offsets, s, "right")) - 1, 0)
                    r1 = int(np.searchsorted(offsets[:-1], e, "left"))
                    rr = np.arange(r0, r1)
                    lo = np.clip(offsets[rr], s, e) - s
                    hi = np.clip(offsets[rr + 1] - (k - 1), s, e) - s
                    good = hi > lo
                    rr, lo, hi = rr[good], lo[good], hi[good]
                    if not len(rr):
                        continue
                    idx = np.empty(2 * len(rr), dtype=np.int64)
                    idx[0::2] = lo
                    idx[1::2] = hi
                    # reduceat forbids an index == len: hi of the final
                    # row can be e-s — truncate; its segment still ends
                    # at the array end so the [lo, hi) value is intact
                    idx2 = idx[:-1] if idx[-1] >= len(hh) else idx
                    red = np.minimum.reduceat(hh, idx2)
                    vals = red[0::2]
                    row_min[rr] = np.minimum(row_min[rr], vals)
        return row_min

    @staticmethod
    def _special_text(d: _Rows, li) -> bytes:
        """Reference normalization of a U+0130/U+03A3 row."""
        return " ".join(d.eng.row_text(int(li)).lower().split()).encode()

    def _fingerprint(self, d: _Rows) -> np.ndarray:
        full = _blake_rows(*d.normalized())
        for li in d.special_rows:
            full[li] = self.fnv1a(self._special_text(d, li))
        return full

    def _kgram_min(self, d: _Rows) -> np.ndarray:
        buf, offsets = d.normalized()
        kmin = self._rolling_row_min(buf, offsets, d.n, self.k)
        # a row shorter than k has no k-gram: its sketch is its full hash
        short = np.flatnonzero(np.diff(offsets) < self.k)
        kmin[short] = _blake_rows(buf, offsets, short)
        for li in d.special_rows:
            kmin[li] = self.rolling_min(self._special_text(d, li))
        return kmin

    def fingerprint(self, sh: SharedMasks) -> np.ndarray:
        return sh.per_row(self._fingerprint)

    def columns(self, sh: SharedMasks) -> dict:
        return {"fingerprint": pa.array(self.fingerprint(sh), pa.uint64()),
                "kgram_min": pa.array(sh.per_row(self._kgram_min), pa.uint64())}

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _append(batch, self.columns(
            SharedMasks(bt.BatchText(batch[self.text_col]))))


class AnalyzeText:
    """The flagship's analysis stage: appends exactly n_tokens, quality,
    lang_pred and fingerprint, from the same methods the standalone
    kernels use, over ONE SharedMasks. Each row is analysed once, in
    its own domain, and the columns the flagship drops (n_ws_tokens,
    the quality ratios, mean_word_len, the k-gram sketch) are never
    computed."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.tokens = TokenCount(text_col)
        self.quality = QualityScore(text_col)
        self.lang = LangId(text_col)
        self.fp = Fingerprint(text_col)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh = SharedMasks(bt.BatchText(batch[self.text_col]))
        return _append(batch, {
            "n_tokens": pa.array(self.tokens.n_tokens(sh)),
            "quality": pa.array(self.quality.quality(sh)),
            "lang_pred": self.lang.lang_pred(sh),
            "fingerprint": pa.array(self.fp.fingerprint(sh), pa.uint64()),
        })


class ScrubPII:
    """PII scrubbing stage: replace emails and URLs with placeholder
    tokens and count the redactions — the standard pre-training
    sanitation pass. Fully vectorized on Arrow's RE2 string kernels
    (pyarrow.compute.replace_substring_regex / count_substring_regex);
    DuckDB's regexp_* functions are RE2 too, so a SQL oracle reproduces
    the semantics exactly.

    Order matters and is part of the contract: emails are replaced
    BEFORE urls so an address inside a URL is counted as an email.
    """

    EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    URL = r"https?://[^\s]+"

    def __init__(self, text_col: str = "text", out_col: str = "text_scrubbed",
                 email_token: str = "<EMAIL>", url_token: str = "<URL>"):
        self.text_col = text_col
        self.out_col = out_col
        self.email_token = email_token
        self.url_token = url_token

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch[self.text_col]
        n_emails = pc.count_substring_regex(col, pattern=self.EMAIL)
        scrub = pc.replace_substring_regex(
            col, pattern=self.EMAIL, replacement=self.email_token)
        n_urls = pc.count_substring_regex(scrub, pattern=self.URL)
        scrub = pc.replace_substring_regex(
            scrub, pattern=self.URL, replacement=self.url_token)
        batch = batch.append_column(self.out_col, scrub)
        batch = batch.append_column(
            "n_emails", pc.cast(n_emails, pa.int64()))
        batch = batch.append_column("n_urls", pc.cast(n_urls, pa.int64()))
        return batch


def _word_table(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Explode each row's text into (id, term) rows with the SAME
    tokenization DuckDB's `regexp_extract_all(text, '[\\w'']+')` then
    `lower(x)` performs: RE2 word runs extracted from the ORIGINAL text,
    lowercased afterwards. All Arrow C++ kernels — split, flatten,
    parent-index take — no Python per row."""
    import pyarrow.compute as pc

    words = pc.split_pattern_regex(batch[text_col], pattern=r"[^\w']+")
    flat = pc.list_flatten(words)
    parents = pc.list_parent_indices(words)
    tbl = pa.table({id_col: pc.take(batch[id_col], parents),
                    "term": pc.utf8_lower(flat)})
    return tbl.filter(pc.not_equal(tbl["term"], ""))


def term_stats(ds, n_docs: int, id_col: str = "doc_id",
               text_col: str = "text", round_digits: int = 7):
    """Corpus term statistics: one row per distinct (doc, term) with
    term frequency, document frequency, and tf-idf — the two-phase
    corpus-statistics op (think keyword extraction / filtering by
    document frequency) a training-data pipeline runs over the corpus.

    Scale shape: TF is batch-local (one row = one document, so per-doc
    counts never cross blocks). DF is a combiner grouped count over the
    DISTINCT (doc, term) rows — shuffle volume is bounded by distinct
    pairs, never total token count — finished on coarse hash partitions
    (combine="shuffle": vocabulary cardinality is unbounded). The DF
    table (one row per vocab term) joins back via a BUCKETED hash join
    on `term` — web-corpus vocabularies run to 1e8+ distinct terms, so
    the df side is never collected or broadcast; the tf side is already
    term-keyed so the extra cost is one bounded groupby shuffle.

    tfidf = round(tf * ln(n_docs / df), round_digits) + 0.0 (signed-zero
    canonicalized like the proj oracles).
    """
    import pyarrow.compute as pc

    from ._arrow import aggregate
    from .relational import bucketed_join

    def tf_kernel(batch: pa.Table) -> pa.Table:
        return aggregate(_word_table(batch, id_col, text_col), [id_col, "term"],
                         [("tf", None, None, None)])

    tf = ds.map_batches(tf_kernel, batch_format="pyarrow")

    from .agg import grouped_agg

    df_ds = grouped_agg(tf, "term", {"df": (id_col, "count")},
                        combine="shuffle")
    joined = bucketed_join(tf, df_ds, key="term", n_buckets=32)

    n_f = float(n_docs)

    def finish(t: pa.Table) -> pa.Table:
        tfv = np.asarray(t["tf"].to_numpy(), dtype=np.float64)
        dfv = np.asarray(t["df"].to_numpy(), dtype=np.float64)
        # same expression shape as the SQL oracle (ln(n/df), not
        # ln n - ln df) so both sides round the same double
        tfidf = np.round(tfv * np.log(n_f / dfv), round_digits) + 0.0
        return pa.table({
            id_col: pc.cast(t[id_col], pa.int64()),
            "term": t["term"],
            "tf": pc.cast(t["tf"], pa.int64()),
            "df": pc.cast(t["df"], pa.int64()),
            "tfidf": pa.array(tfidf, pa.float64()),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def repetition_metrics(ds, id_col: str = "doc_id", text_col: str = "text",
                       round_digits: int = 7):
    """Gopher-style repetition quality signals, one row per document:

      n_words           total word tokens
      top_bigram_frac   occurrences of the most frequent word 2-gram /
                        total 2-gram occurrences (0.0 when < 2 words)
      dup_trigram_frac  fraction of 3-gram occurrences whose 3-gram
                        appears more than once in the doc (0.0 when < 3)

    The repetition filters of Rae et al. (Gopher) §A1.1 applied to the
    corpus: high top-n-gram / duplicate-n-gram fractions flag boiler-
    plate and spam. Entirely batch-local (a row is a whole document);
    the n-gram grouping is one vectorized grouped count over the
    batch's (row, n-gram) pairs, not a Python loop per row.
    """
    from ._arrow import aggregate

    def kernel(batch: pa.Table) -> pa.Table:
        w = _word_table(batch, id_col, text_col)
        doc_ids = np.asarray(batch[id_col].to_numpy(), dtype=np.int64)
        pos = {d: i for i, d in enumerate(doc_ids.tolist())}

        def per_doc(t: pa.Table, aggs):
            """Batch row of each doc of `t`'s id_col, and `aggs` per doc."""
            a = aggregate(t, [id_col], aggs)
            rows = np.array([pos[d] for d in a[id_col].to_pylist()], dtype=np.int64)
            return rows, [np.asarray(a[name], dtype=np.int64) for name, *_ in aggs]

        def gram_counts(k: int):
            g = aggregate(_grams(w, id_col, k), [id_col, "g"],
                          [("c", None, "count_all", None)])
            c = np.asarray(g["c"], dtype=np.int64)
            return per_doc(g, [("max", "c", "max", None), ("sum", "c", "sum", None),
                               ("dup", pa.array(np.where(c > 1, c, 0)), "sum", None)])

        out_n = np.zeros(len(doc_ids), dtype=np.int64)
        rows, (n,) = per_doc(w, [("n", None, "count_all", None)])
        out_n[rows] = n
        top_bi = np.zeros(len(doc_ids))
        rows, (mx, sm, _) = gram_counts(2)
        top_bi[rows] = mx / sm
        dup_tri = np.zeros(len(doc_ids))
        rows, (_, sm, dup) = gram_counts(3)
        dup_tri[rows] = dup / sm

        return pa.table({
            id_col: pa.array(doc_ids, pa.int64()),
            "n_words": pa.array(out_n, pa.int64()),
            "top_bigram_frac": pa.array(
                np.round(top_bi, round_digits) + 0.0, pa.float64()),
            "dup_trigram_frac": pa.array(
                np.round(dup_tri, round_digits) + 0.0, pa.float64()),
        })

    return ds.map_batches(kernel, batch_format="pyarrow")


def _ngram_table(batch: pa.Table, id_col: str, text_col: str,
                 k: int) -> "pa.Table":
    """(id, gram) rows for word k-grams of each document, tokenized
    exactly like _word_table (RE2 extract-then-lower)."""
    return _grams(_word_table(batch, id_col, text_col), id_col, k)


def _grams(w: pa.Table, id_col: str, k: int) -> pa.Table:
    """(id, gram) rows for the word k-grams of a _word_table: k
    consecutive words of one document, joined by single spaces."""
    import pyarrow.compute as pc

    ids = np.asarray(w[id_col].to_numpy(), dtype=np.int64)
    n = len(ids)
    if n < k:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "g": pa.array([], pa.string())})
    same = np.ones(n - k + 1, dtype=bool)
    for j in range(1, k):
        same &= ids[: n - k + 1] == ids[j: n - k + 1 + j]
    idx = pa.array(np.nonzero(same)[0])
    terms = w["term"].combine_chunks()
    grams = pc.binary_join_element_wise(
        *[terms.slice(j, n - k + 1).take(idx) for j in range(k)], " ")
    return pa.table({id_col: pa.array(ids[np.asarray(idx)], pa.int64()),
                     "g": pc.cast(grams, pa.string())})


def contamination_check(corpus_ds, bench_ds, id_col: str = "doc_id",
                        text_col: str = "text", ngram: int = 5):
    """Benchmark decontamination (the GPT-3 appendix-C / FLAN-style
    n-gram overlap check): flag corpus documents sharing any exact word
    k-gram with a benchmark/eval set, with the number of overlapping
    k-gram OCCURRENCES per document.

    Scale shape: the benchmark side is small BY DEFINITION (eval sets,
    not corpora) — its distinct k-grams are collected once and shipped
    as an Arrow value set; membership is pyarrow `is_in` per corpus
    batch (C++ hash probe, no shuffle of the corpus), then a per-batch
    grouped count. A benchmark too large to broadcast would swap the
    value-set probe for functions/relational.bucketed_join on the gram
    key — same pipeline shape.

    Returns (id_col, n_hits) for corpus docs with >= 1 overlap.
    """
    import pyarrow.compute as pc

    from ._arrow import aggregate

    from .relational import collect_table

    def grams(batch: pa.Table) -> pa.Table:
        return _ngram_table(batch, id_col, text_col, ngram)

    bench_tbl = collect_table(bench_ds.map_batches(grams, batch_format="pyarrow"))
    bench_set = pc.unique(bench_tbl["g"]) if bench_tbl.num_rows else pa.array([], pa.string())

    def hits(batch: pa.Table) -> pa.Table:
        g = _ngram_table(batch, id_col, text_col, ngram)
        if not g.num_rows or not len(bench_set):
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_hits": pa.array([], pa.int64())})
        hit = g.filter(pc.is_in(g["g"], value_set=bench_set))
        if not hit.num_rows:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_hits": pa.array([], pa.int64())})
        cnt = aggregate(hit, [id_col], [("n_hits", None, None, None)])
        return pa.table({id_col: pc.cast(cnt[id_col], pa.int64()),
                         "n_hits": cnt["n_hits"]})

    return corpus_ds.map_batches(hits, batch_format="pyarrow")


def bm25_topk(ds, terms, k1: float = 1.5, b: float = 0.75, k: int = 20,
              id_col: str = "doc_id", text_col: str = "text",
              round_digits: int = 6):
    """BM25 retrieval: score every document against a fixed term set and
    return the global top-k (score desc, id asc).

    Three stages, all bounded:
      1. per-batch features — dl (non-empty word count) and per-term tf
         via one Arrow split + numpy bincount over parent indices; the
         term loop is |terms| bincounts, never a row loop;
      2. corpus stats — one partial row per batch (N, sum dl, per-term
         df) collected and reduced on the driver (|terms|+2 numbers);
      3. scoring + combiner top-k (select_k per block, tiny final sort).

    Constants are chosen float-exact (k1=1.5, b=0.75 ⇒ k1+1, 1-b exact
    doubles) and the per-term contributions are summed in `terms` order,
    so the DuckDB oracle can reproduce the double bit-for-bit with an
    explicit left-assoc sum. idf = ln(1 + (N - df + 0.5)/(df + 0.5))
    (the Robertson/Sparck-Jones form used by Lucene).
    """
    import pyarrow.compute as pc

    from .relational import collect_table

    terms = list(terms)

    def feats(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(batch[text_col], pattern=r"[^\w']+")
        flat = pc.utf8_lower(pc.list_flatten(words)).to_numpy(zero_copy_only=False)
        parents = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        n = len(batch)
        dl = np.bincount(parents[flat != ""], minlength=n)
        cols = {id_col: batch[id_col],
                "dl": pa.array(dl.astype(np.int64), pa.int64())}
        for t in terms:
            tf = np.bincount(parents[flat == t], minlength=n)
            cols[f"tf_{t}"] = pa.array(tf.astype(np.int64), pa.int64())
        return pa.table(cols)

    # two streaming passes over the input (stats, then scoring) — the
    # features are recomputed rather than materialized, so nothing
    # O(corpus) is ever pinned; swap in a parquet spill (flagship
    # branch_cache pattern) when tokenization dominates.
    f = ds.map_batches(feats, batch_format="pyarrow")

    def stat_partial(t: pa.Table) -> pa.Table:
        row = {"n": [len(t)], "sdl": [int(np.asarray(t["dl"]).sum())]}
        for tm in terms:
            row[f"df_{tm}"] = [int((np.asarray(t[f"tf_{tm}"]) > 0).sum())]
        return pa.table(row)

    st = collect_table(f.map_batches(stat_partial, batch_format="pyarrow"))
    n_docs = int(np.asarray(st["n"]).sum())
    avgdl = float(np.asarray(st["sdl"]).sum()) / float(n_docs)
    idf = {}
    for tm in terms:
        dfv = float(np.asarray(st[f"df_{tm}"]).sum())
        idf[tm] = float(np.log(1.0 + (n_docs - dfv + 0.5) / (dfv + 0.5)))

    k1p1 = k1 + 1.0
    one_mb = 1.0 - b

    def score(t: pa.Table) -> pa.Table:
        dl = np.asarray(t["dl"], dtype=np.float64)
        norm = k1 * (one_mb + b * (dl / avgdl))
        s = np.zeros(len(t), dtype=np.float64)
        for tm in terms:  # fixed order = oracle's left-assoc sum order
            tf = np.asarray(t[f"tf_{tm}"], dtype=np.float64)
            s += idf[tm] * (tf * k1p1) / (tf + norm)
        return pa.table({id_col: pc.cast(t[id_col], pa.int64()),
                         "score": pa.array(np.round(s, round_digits) + 0.0,
                                           pa.float64())})

    scored = f.map_batches(score, batch_format="pyarrow")

    def partial_topk(t: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            t, k=min(k, len(t)),
            sort_keys=[("score", "descending"), (id_col, "ascending")])
        return t.take(idx)

    pruned = scored.map_batches(partial_topk, batch_format="pyarrow")
    return pruned.sort(["score", id_col], descending=[True, False]).limit(k)


def chunk_documents(ds, window: int = 64, stride: int = 48,
                    id_col: str = "doc_id", text_col: str = "text"):
    """Context-window chunking: split each document into overlapping
    token windows (the training-data op that turns documents into
    model-context-sized rows). Window i covers tokens
    [i*stride, i*stride + window); the chunk count is
    1 + ceil((n - window) / stride) for n > window, else 1; empty
    documents yield no chunks. Tokenization is the corpus standard
    (RE2 word runs, lowercased); chunk_text is the canonical
    space-joined form. A pure per-batch flat_map — no shuffle, no
    state; at 100 TB this streams.

    Returns Dataset (id_col, chunk_id, chunk_text, n_tokens).
    """
    if stride <= 0 or window <= 0 or stride > window:
        raise ValueError("need 0 < stride <= window")

    import pyarrow.compute as pc

    def kernel(t: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(t[text_col], pattern=r"[^\w']+")
        flat = np.asarray(pc.utf8_lower(pc.list_flatten(words)), dtype=object)
        parents = np.asarray(pc.list_parent_indices(words))
        keep = flat != ""
        flat, parents = flat[keep], parents[keep]
        ids = np.asarray(t[id_col])
        out_id, out_chunk, out_text, out_n = [], [], [], []
        # per-document slicing: offsets of each doc's token run
        if len(parents):
            starts = np.flatnonzero(np.concatenate(
                ([True], parents[1:] != parents[:-1])))
            ends = np.append(starts[1:], len(parents))
            for s, e in zip(starts, ends):
                n = int(e - s)
                did = int(ids[parents[s]])
                n_chunks = 1 if n <= window else 1 + -(-(n - window) // stride)
                for ci in range(n_chunks):
                    lo = ci * stride
                    hi = min(lo + window, n)
                    out_id.append(did)
                    out_chunk.append(ci)
                    out_text.append(" ".join(flat[s + lo:s + hi]))
                    out_n.append(hi - lo)
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "chunk_id": pa.array(out_chunk, pa.int64()),
            "chunk_text": pa.array(out_text, pa.string()),
            "n_tokens": pa.array(out_n, pa.int64()),
        })

    return ds.map_batches(kernel, batch_format="pyarrow")


def sentence_stats(ds, id_col: str = "doc_id", text_col: str = "text",
                   round_to: int = 4):
    """Sentence segmentation stats per document: sentences are the
    non-empty (after explicit-charset trim) pieces between terminal
    punctuation runs [.!?]+ — a deterministic RE2 rule DuckDB replays
    verbatim. Emits n_sentences and the mean trimmed sentence length in
    chars (rounded; docs with no sentences are dropped, mirroring SQL
    GROUP semantics). All Arrow C++ kernels: split, flatten, trim,
    lengths, parent-index groupby via numpy bincount — no Python rows.
    """
    import pyarrow.compute as pc

    def kernel(t: pa.Table) -> pa.Table:
        pieces = pc.split_pattern_regex(t[text_col], pattern=r"[.!?]+")
        flat = pc.list_flatten(pieces)
        parents = np.asarray(pc.list_parent_indices(pieces))
        trimmed = pc.utf8_trim(flat, characters=" \t\n\r")
        lens = np.asarray(pc.utf8_length(trimmed), dtype=np.int64)
        keep = lens > 0
        parents, lens = parents[keep], lens[keep]
        n_rows = len(t)
        n_sent = np.bincount(parents, minlength=n_rows)
        tot = np.bincount(parents, weights=lens, minlength=n_rows)
        has = n_sent > 0
        ids = np.asarray(t[id_col])[has]
        mean = np.round(tot[has] / n_sent[has].astype(np.float64), round_to) + 0.0
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "n_sentences": pa.array(n_sent[has], pa.int64()),
            "mean_sentence_chars": pa.array(mean, pa.float64()),
        })

    return ds.map_batches(kernel, batch_format="pyarrow")


def nfc_normalize_stats(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Unicode NFC canonical normalization pass: per doc, whether NFC
    changed the text and a sha256-hex16 fingerprint of the normalized
    form (the dedup-safe canonical key — visually identical strings with
    different combining-mark encodings collapse). DuckDB's
    nfc_normalize() replays the identical transform in the oracle.
    Per-row Python (unicodedata has no Arrow kernel) — a codec-class
    stage, same budget as the WKT/JSON codecs."""
    import hashlib
    import unicodedata

    def kernel(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        changed, sha = [], []
        for s in texts:
            s = s or ""
            n = unicodedata.normalize("NFC", s)
            changed.append(n != s)
            sha.append(hashlib.sha256(n.encode()).hexdigest()[:16])
        return pa.table({
            id_col: t[id_col],
            "nfc_changed": pa.array(changed, pa.bool_()),
            "nfc_sha16": pa.array(sha, pa.string()),
        })

    return ds.map_batches(kernel, batch_format="pyarrow")


def pivot_counts(ds, row_key: str, col_key: str, col_values,
                 other: str = "other"):
    """Wide (crosstab) counts: one output row per row_key with a count
    column per listed col_value plus `other` and a total — the
    pivot/aggregation shape reports and stratified rebalancing need.
    Combiner pattern: per-batch Arrow grouped-count partials, one small
    grouped-sum exchange; returns a pyarrow Table (driver combine —
    |row_key| domain is the report's row count, small by definition).
    Rows with a NULL row_key are not counted; a NULL col_key counts as
    `other`.
    """
    import pyarrow.compute as pc

    from ._arrow import aggregate
    from .agg import grouped_agg

    col_values = list(col_values)
    out_cols = [f"n_{v}" for v in col_values] + [f"n_{other}", "n_total"]

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[row_key]))
        hit = {f"n_{v}": np.asarray(pc.fill_null(pc.equal(t[col_key], v), False),
                                    dtype=np.int64) for v in col_values}
        n = t.num_rows
        hit[f"n_{other}"] = 1 - sum(hit.values(), np.zeros(n, np.int64))
        hit["n_total"] = np.ones(n, dtype=np.int64)
        return aggregate(t, [row_key], [(c, pa.array(v), "sum", None)
                                        for c, v in hit.items()])

    part = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_agg(part, row_key,
                       {c: (c, "sum") for c in out_cols}, combine="driver")


def inverted_index(ds, id_col: str = "doc_id", text_col: str = "text",
                   max_postings: int = 20, n_parts: int = 64):
    """Inverted-index construction (the IR-build op): one row per vocab
    term with its document frequency and a CAPPED sorted posting list
    (comma-joined decimal ids — a string column so the driver's
    value-hash compare stays scalar).

    Scale shape: each document lives in one block, so batch-local
    DISTINCT (doc, term) rows are globally distinct; ONE coarse
    term-hash shuffle of those pairs (the irreducible exchange of index
    building — volume is distinct pairs, never token count) then a
    vectorized per-partition group: df = group size, postings = first
    max_postings ids. The cap bounds output row width; a full postings
    sink would write list<int64> parquet per partition instead.
    """
    import pyarrow.compute as pc

    from ._arrow import drop_duplicates, grouped_order, run_starts

    def pairs(batch: pa.Table) -> pa.Table:
        return drop_duplicates(_word_table(batch, id_col, text_col), [id_col, "term"])

    def build(t: pa.Table) -> pa.Table:
        idx, g, rank = grouped_order(t, ["term"], [(id_col, "ascending")])
        t = t.take(idx)
        starts = run_starts(g)
        dfreq = np.diff(np.append(starts, len(g)))
        cap = np.minimum(dfreq, max_postings)
        ids = pc.cast(t[id_col].filter(pa.array(rank < max_postings)), pa.string())
        posts = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(cap)]), pa.int32()),
            ids.combine_chunks())
        return pa.table({"term": t["term"].take(pa.array(starts)),
                         "df": pa.array(dfreq, pa.int64()),
                         "postings": pc.binary_join(posts, ",")})

    from ..stages.exchange import hash_exchange

    return hash_exchange(ds.map_batches(pairs, batch_format="pyarrow"),
                         n_parts, build, ["term"])


def line_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
               line_words: int = 3, min_docs: int = 2,
               n_buckets: int = 32):
    """C4/CCNet-style CROSS-DOCUMENT line deduplication: any "line"
    occurring in >= min_docs DISTINCT documents is boilerplate and is
    removed from every document. Lines are consecutive `line_words`-word
    windows of the corpus-standard tokenization (a corpus without
    newline structure still dedups repeated spans; with real lines,
    split on the delimiter instead — the pipeline shape is identical).

    Scale shape (no corpus-sized broadcast anywhere):
      1. explode docs to (doc, li, line) rows — batch-local;
      2. line document-frequency: per-batch DISTINCT (line, doc) pairs
         (a doc never spans batches, so batch-local dedup is global)
         -> combiner grouped count keyed by line;
      3. drop duplicated lines with a bucketed LEFT ANTI join on line;
      4. reassemble surviving docs with one doc-keyed coarse shuffle,
         emit (doc_id, n_lines, n_kept, n_dropped, clean_sha) where
         clean_sha = sha256 hex prefix of the kept lines joined with
         '\\n' in li order (SQL recomputes the identical digest).
    """
    import hashlib

    import pyarrow.compute as pc

    from ._arrow import drop_duplicates, grouped_order, run_starts
    from .agg import grouped_agg
    from .relational import bucketed_join

    def lines_kernel(t: pa.Table) -> pa.Table:
        # Arrow/numpy-native (VERDICT r4 #9): per-doc rank by run
        # boundaries, line grouping by change points, and the per-line
        # text via ListArray + binary_join (C-level string concat) —
        # no pandas in the per-batch hot path
        w = _word_table(t, id_col, text_col)
        if not len(w):
            return pa.table({"doc": pa.array([], pa.int64()),
                             "li": pa.array([], pa.int64()),
                             "line": pa.array([], pa.string())})
        ids = np.asarray(w[id_col], dtype=np.int64)
        n = len(ids)
        newdoc = np.concatenate([[True], ids[1:] != ids[:-1]])
        dstarts = np.nonzero(newdoc)[0]
        counts = np.diff(np.concatenate([dstarts, [n]]))
        rank = np.arange(n) - np.repeat(dstarts, counts)
        li = rank // line_words
        newgrp = newdoc.copy()
        newgrp[1:] |= li[1:] != li[:-1]
        gstart = np.nonzero(newgrp)[0]
        offsets = np.concatenate([gstart, [n]]).astype(np.int32)
        terms = w["term"].combine_chunks()
        if isinstance(terms, pa.ChunkedArray):
            terms = terms.combine_chunks()
        la = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), terms)
        lines_arr = pc.binary_join(la, " ")
        return pa.table({"doc": pa.array(ids[gstart]),
                         "li": pa.array(li[gstart]),
                         "line": lines_arr})

    lines = ds.map_batches(lines_kernel, batch_format="pyarrow")

    pairs = lines.map_batches(lambda t: drop_duplicates(t.select(["line", "doc"])),
                              batch_format="pyarrow")
    df_ds = grouped_agg(pairs, "line", {"df": ("doc", "count")},
                        combine="shuffle")

    def dup_only(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(pc.cast(t["df"], pa.int64()),
                                min_docs)
        return pa.table({"line": t["line"]}).filter(keep)

    dup = df_ds.map_batches(dup_only, batch_format="pyarrow")
    kept = bucketed_join(lines, dup, key="line", n_buckets=n_buckets,
                         join_type="left anti")

    # totals come from the DOCUMENT table (not the line table) so
    # zero-word documents stay in the output with n_lines = 0
    def totals_kernel(t: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(t[text_col], pattern=r"[^\w']+")
        flat = pc.utf8_lower(pc.list_flatten(words))
        parents = np.asarray(pc.list_parent_indices(words))
        nonempty = np.asarray(pc.not_equal(flat, ""))
        nw = np.bincount(parents[nonempty], minlength=len(t))
        nl = (nw + line_words - 1) // line_words
        return pa.table({"doc": pc.cast(t[id_col], pa.int64()),
                         "n_lines": pa.array(nl.astype(np.int64))})

    totals = ds.map_batches(totals_kernel, batch_format="pyarrow")

    n_parts = 32

    def reassemble(t: pa.Table) -> pa.Table:
        idx, g, _ = grouped_order(t, ["doc"], [("li", "ascending")])
        t = t.take(idx)
        starts = run_starts(g)
        text = pc.binary_join(pa.ListArray.from_arrays(
            pa.array(np.append(starts, len(g)), pa.int32()),
            t["line"].combine_chunks()), "\n")
        sha = [hashlib.sha256(s.encode()).hexdigest()[:16]
               for s in text.to_pylist()]
        return pa.table({"doc": pc.cast(t["doc"].take(pa.array(starts)), pa.int64()),
                         "n_kept": pa.array(np.diff(np.append(starts, len(g))), pa.int64()),
                         "clean_sha": pa.array(sha, pa.string())})

    from ..stages.exchange import hash_exchange

    kept_agg = hash_exchange(kept, n_parts, reassemble, ["doc"])

    out = bucketed_join(totals, kept_agg, key="doc",
                        n_buckets=n_buckets, join_type="left outer",
                        right_schema=pa.schema([
                            ("doc", pa.int64()),
                            ("n_kept", pa.int64()),
                            ("clean_sha", pa.string())]))

    empty_sha = hashlib.sha256(b"").hexdigest()[:16]

    def finish(t: pa.Table) -> pa.Table:
        nl = pc.cast(t["n_lines"], pa.int64())
        nk = pc.cast(pc.fill_null(t["n_kept"], 0), pa.int64())
        if pa.types.is_floating(t["n_kept"].type):
            nkv = np.nan_to_num(
                np.asarray(t["n_kept"], dtype=np.float64)).astype(np.int64)
            nk = pa.array(nkv)
        sha = pc.fill_null(t["clean_sha"], empty_sha)
        return pa.table({
            id_col: pc.cast(t["doc"], pa.int64()),
            "n_lines": nl,
            "n_kept": nk,
            "n_dropped": pc.subtract(nl, nk),
            "clean_sha": sha,
        })

    return out.map_batches(finish, batch_format="pyarrow")
