"""Page extraction stage: html -> text + geotags (+ text analysis).

One kernel, ExtractGeotags, run as a plain task function with its
compiled regexes cached per worker process (extract_geo_batch, see
stages/worker_cache.py). Extraction is a pure function of the html bytes
(BASELINE.json per-row invariant: byte-identical text per url at any
parallelism) — it reuses the same normalization as the fixture generator.

`ExtractGeotags.extract` returns every page; calling the kernel is the
flagship shape: geotag-less rows go first, then the text analysis, and
only the columns the pipeline carries leave the kernel (the wide `html`
and `text` columns never reach the join; SURVEY.md §7 'wide binary rows').
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

# the columns functions.text.AnalyzeText appends: all the flagship keeps
ANALYSIS_COLUMNS = ("n_tokens", "quality", "lang_pred", "fingerprint")


class ExtractGeotags:
    """Batch kernel, pyarrow in / pyarrow out.

    extract(batch): one row per input page —
      url, warc_ts, lang, text, has_geo (bool), lat, lon (first geotag,
      NaN when absent), n_geotags.
    __call__(batch): the flagship kernel — geotagged pages only, as
      url, lat, lon, n_tokens, quality, lang_pred, fingerprint. Rows
      without geotags are dropped BEFORE analysis: the analysis columns
      are per-row pure, so filtering first yields identical values for
      the surviving rows at lower cost (~30% of pages carry no geotag).
    """

    def __init__(self):
        from ..functions.text import AnalyzeText

        # compiled once per worker (reference pattern: PreparedGeometry-
        # style amortized setup, SURVEY.md §2.3)
        self.comment = re.compile(rb"<!--.*?-->", re.S)
        self.tag = re.compile(rb"<[^>]*>")
        self.geo_meta = re.compile(
            rb'<meta\s+name="geo\.position"\s+content="([-0-9.]+);([-0-9.]+)"'
        )
        self.icbm = re.compile(rb"ICBM:\s*([-0-9.]+),\s*([-0-9.]+)")
        self.analyzer = AnalyzeText()

    def extract_one(self, html: bytes):
        tags = [(float(a), float(b)) for a, b in self.geo_meta.findall(html)]
        tags += [(float(a), float(b)) for a, b in self.icbm.findall(html)]
        text_bytes = self.tag.sub(b" ", self.comment.sub(b" ", html))
        text = " ".join(text_bytes.decode("utf-8", errors="replace").split())
        return text, tags

    @staticmethod
    def _find4(buf: np.ndarray, a: int, b: int, c: int, d: int) -> np.ndarray:
        """Positions of the 4-byte literal (a,b,c,d) in buf."""
        if len(buf) < 4:
            return np.zeros(0, dtype=np.int64)
        m = ((buf[:-3] == a) & (buf[1:-2] == b)
             & (buf[2:-1] == c) & (buf[3:] == d))
        return np.nonzero(m)[0]

    @staticmethod
    def _dedup_spans(starts: np.ndarray, ends: np.ndarray):
        """Collapse candidate spans sharing an end (nested candidates)
        to the EARLIEST start — ends are non-decreasing in start order,
        and no candidate can begin inside another span's end marker, so
        the result is a set of DISJOINT spans equal to the union."""
        if not len(starts):
            return starts, ends
        uniq_e, first = np.unique(ends, return_index=True)
        return starts[first], uniq_e

    def _strip_masks(self, buf: np.ndarray, offsets: np.ndarray):
        """Byte mask covering `<!--...-->` comments then `<[^>]*>` tags,
        position-preserving. The union over every candidate start of
        [start, first-matching-end] equals the union of the sequential
        regex matches (a candidate inside a match shares its end), and
        tag candidates are filtered to comment-free positions — exactly
        the linework of sub-on-the-comment-subbed-string. Whitespace
        normalization afterwards collapses any masked region to a
        single separator, so the final token stream is identical to the
        per-row regex pipeline."""
        row_of = lambda p: np.searchsorted(offsets, p, side="right") - 1
        spans = []
        # comments: "<!--" .. "-->"
        cs = self._find4(buf, 60, 33, 45, 45)
        c0 = e0 = np.zeros(0, dtype=np.int64)
        if len(cs):
            ce = np.nonzero((buf[:-2] == 45) & (buf[1:-1] == 45)
                            & (buf[2:] == 62))[0]
            if len(ce):
                j = np.searchsorted(ce, cs + 4)
                ok = j < len(ce)
                c0, e0 = cs[ok], ce[j[ok]] + 2
                same = row_of(c0) == row_of(e0)
                c0, e0 = c0[same], e0[same]
                if np.isin(cs + 2, ce).any():
                    # `<!-->` hazard: such a candidate overlaps a
                    # previous comment's END marker (shares its "--"),
                    # so its first-matching-end differs from the span
                    # it is nested in and the union-by-shared-end
                    # invariant of _dedup_spans breaks. Resolve the
                    # non-overlapping matches sequentially — O(#real
                    # comments), and only when the hazard byte pattern
                    # actually occurs in the batch.
                    ks, ke, pos = [], [], -1
                    for s_, t_ in zip(c0.tolist(), e0.tolist()):
                        if s_ > pos:
                            ks.append(s_)
                            ke.append(t_)
                            pos = t_
                    c0 = np.asarray(ks, dtype=np.int64)
                    e0 = np.asarray(ke, dtype=np.int64)
                else:
                    c0, e0 = self._dedup_spans(c0, e0)
        if len(c0):
            spans.append((c0, e0))

        def in_comment(p: np.ndarray) -> np.ndarray:
            if not len(c0):
                return np.zeros(len(p), dtype=bool)
            k = np.searchsorted(c0, p, side="right") - 1
            kc = np.maximum(k, 0)
            return (k >= 0) & (p <= e0[kc])

        lt = np.nonzero(buf == 60)[0]
        gt = np.nonzero(buf == 62)[0]
        lt = lt[~in_comment(lt)]
        gt = gt[~in_comment(gt)]
        if len(lt) and len(gt):
            j = np.searchsorted(gt, lt)
            ok = j < len(gt)
            q, e = lt[ok], gt[j[ok]]
            same = row_of(q) == row_of(e)
            q, e = self._dedup_spans(q[same], e[same])
            if len(q):
                spans.append((q, e))
        masked = np.zeros(len(buf), dtype=bool)
        if spans:
            # each family is internally disjoint; families may overlap
            # each other, so one shared diff array + ONE cumsum
            d = np.zeros(len(buf) + 1, dtype=np.int16)
            for s_, e_ in spans:
                np.add.at(d, s_, 1)
                np.add.at(d, e_ + 1, -1)
            masked = np.cumsum(d[:-1], dtype=np.int16) > 0
        return masked

    def _extract_vectorized(self, batch: pa.Table):
        """(texts_arrow, lats, lons, n_tags, fallback_rows) for the
        whole batch — masks + one whitespace compaction, no per-row
        Python on the ASCII fast path."""
        from ..functions import _bytetext as bt

        b = bt.BatchText(batch["html"])
        buf, offsets = b.buf, b.offsets
        masked = self._strip_masks(buf, offsets)
        pseudo_ws = bt.ws_mask(buf) | masked
        # UTF-8-aware fast path (VERDICT r4 #2): valid non-ASCII rows
        # stay vectorized — Python's str.split() whitespace includes
        # multi-byte Unicode whitespace, so those sequences join the
        # compaction mask; only rows that decode(errors="replace") would
        # actually ALTER (invalid UTF-8) need the per-row path. The
        # geotag regexes are pure ASCII and UTF-8 is self-synchronizing,
        # so the byte-level scan below is already exact on any valid row.
        if len(b.nonascii_rows):
            from ..functions import _unitext as ut

            pseudo_ws |= ut.unicode_ws_byte_mask(buf)
            fallback = set(int(i) for i in ut.invalid_utf8_rows(b))
        else:
            fallback = set()
        out_buf, out_off = bt.normalize_ws_lower(b, ws=pseudo_ws,
                                                 lower=False)
        # geotags: one scan over the full buffer; matches mapped to rows
        # (cross-row phantom matches send the row to the per-row path)
        lats = np.full(b.n, np.nan)
        lons = np.full(b.n, np.nan)
        n_tags = np.zeros(b.n, dtype=np.int32)
        mem = memoryview(buf)
        ms, me, mla, mlo = [], [], [], []
        for pat in (self.geo_meta, self.icbm):
            for m in pat.finditer(mem):
                ms.append(m.start())
                me.append(m.end() - 1)
                mla.append(float(m.group(1)))
                mlo.append(float(m.group(2)))
        if ms:
            s_ = np.asarray(ms, dtype=np.int64)
            r0 = np.searchsorted(offsets, s_, side="right") - 1
            r1 = np.searchsorted(offsets, np.asarray(me, dtype=np.int64),
                                 side="right") - 1
            cross = r0 != r1
            for r in np.unique(np.concatenate([r0[cross], r1[cross]])):
                fallback.add(int(r))
            rr = r0[~cross]
            n_tags[:] = np.bincount(rr, minlength=b.n).astype(np.int32)
            # first match per row IN EMIT ORDER (geo_meta before icbm)
            ur, fi = np.unique(rr, return_index=True)
            la = np.asarray(mla)[~cross]
            lo = np.asarray(mlo)[~cross]
            lats[ur] = la[fi]
            lons[ur] = lo[fi]
        # build the text column straight from the compacted buffer
        # (pure-ASCII bytes are valid UTF-8)
        texts = pa.Array.from_buffers(
            pa.large_string(), b.n,
            [None, pa.py_buffer(out_off.astype(np.int64).tobytes()),
             pa.py_buffer(out_buf.tobytes())])
        return texts, lats, lons, n_tags, sorted(fallback)

    def _columns(self, batch: pa.Table):
        """(texts, lats, lons, n_tags) for every row of the batch: the
        vectorized pass, with its fallback rows patched from extract_one."""
        texts_arr, lats, lons, n_tags, fb = self._extract_vectorized(batch)
        if fb:
            # rows the fast path cannot reproduce byte-exactly (invalid
            # UTF-8 needing errors="replace", or a cross-row regex
            # phantom): only those go through extract_one. The column is
            # assembled in BINARY space — the unpatched copies of those
            # rows hold raw invalid bytes — by one take over [fast rows,
            # patched rows], then validated back to a string column.
            patched = []
            for i, h in zip(fb, batch["html"].take(fb).to_pylist()):
                text, tags = self.extract_one(h)
                patched.append(text.encode())
                if tags:
                    lats[i], lons[i] = tags[0]
                    n_tags[i] = len(tags)
                else:
                    lats[i] = lons[i] = np.nan
                    n_tags[i] = 0
            src = np.arange(len(lats))
            src[fb] = len(lats) + np.arange(len(fb))
            texts_arr = pa.compute.cast(pa.concat_arrays([
                pa.compute.cast(texts_arr, pa.large_binary()),
                pa.array(patched, pa.large_binary())]).take(src),
                pa.large_string())
        return texts_arr, lats, lons, n_tags

    def extract(self, batch: pa.Table) -> pa.Table:
        texts, lats, lons, n_tags = self._columns(batch)
        return pa.table(
            {
                "url": batch["url"],
                "warc_ts": batch["warc_ts"],
                "lang": batch["lang"],
                "text": pa.compute.cast(texts, pa.string()),
                "has_geo": pa.array(n_tags > 0),
                "lat": pa.array(lats),
                "lon": pa.array(lons),
                "n_geotags": pa.array(n_tags),
            }
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, lats, lons, n_tags = self._columns(batch)
        keep = np.flatnonzero(n_tags > 0)
        rows = pa.array(keep)
        analysed = self.analyzer(pa.table({"text": texts.take(rows)}))
        out = {"url": batch["url"].take(rows),
               "lat": pa.array(lats[keep]),
               "lon": pa.array(lons[keep])}
        out.update((c, analysed[c]) for c in ANALYSIS_COLUMNS)
        return pa.table(out)


def extract_geo_batch(batch: pa.Table) -> pa.Table:
    """The flagship extract task: ExtractGeotags.__call__ with the
    kernel built once per worker process."""
    from .worker_cache import get_cached

    return get_cached("extract-geo-singleton", build=lambda _: ExtractGeotags())(batch)
