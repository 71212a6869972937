"""URL normalization + registrable-domain ops for web corpora.

A 100 TB Common-Crawl-style pipeline spends a surprising share of its
time on URL hygiene: canonicalizing near-identical URLs before exact
dedup, extracting the registrable domain for per-site quotas, and
capping pathological hosts. These are pure per-row string transforms —
streaming map_batches kernels, no shuffle — except the per-domain cap,
which reuses the combiner-style grouped_topk.

Normalization rules (each mirrored exactly by the driver's SQL oracle):
  1. scheme and host lowercased
  2. default port stripped (https:443, http:80); other ports kept
  3. fragment dropped
  4. utm_* query params dropped; '?' dropped if the query empties
  5. registrable domain = last two host labels, or last three when the
     public suffix itself has two labels (embedded mini-PSL)

The mini public-suffix list is an embedded subset (the full PSL is a
data file, not an algorithm change); extend PSL2 to widen coverage.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# two-label public suffixes recognized by rule 5 (mini-PSL subset)
PSL2 = ("co.uk", "com.au", "github.io", "co.jp", "com.br")

_URL_RE = (
    r"^([A-Za-z][A-Za-z0-9+.\-]*)://([^/:?#]+)(?::(\d+))?([^?#]*)"
    r"(?:\?([^#]*))?(?:#(.*))?$"
)


def _series(arr: pa.ChunkedArray | pa.Array) -> pd.Series:
    return pa.table({"x": arr}).to_pandas()["x"]


def normalize_url_series(urls: pd.Series) -> pd.DataFrame:
    """Vectorized normalization: Series of raw URLs -> DataFrame with
    url_norm + domain (pandas str kernels end to end; one regex pass)."""
    parts = urls.str.extract(_URL_RE)
    scheme = parts[0].str.lower()
    host = parts[1].str.lower()
    port = parts[2]
    path = parts[3].fillna("")
    query = parts[4].fillna("")

    default_port = ((scheme == "https") & (port == "443")) | (
        (scheme == "http") & (port == "80")
    )
    port_sfx = np.where(port.notna() & ~default_port, ":" + port.fillna(""), "")

    # rule 4: strip utm_* params (and their trailing separator), then a
    # dangling '&' left by a trailing utm param
    q = query.str.replace(r"utm_[^&]*(&|$)", "", regex=True).str.rstrip("&")
    q_sfx = np.where(q != "", "?" + q, "")

    url_norm = scheme + "://" + host + port_sfx + path + q_sfx

    # rule 5: registrable domain via the mini-PSL
    psl_alt = "|".join(s.replace(".", r"\.") for s in PSL2)
    dom3 = host.str.extract(rf"([^.]+\.(?:{psl_alt}))$")[0]
    dom2 = host.str.extract(r"([^.]+\.[^.]+)$")[0]
    domain = dom3.fillna(dom2).fillna(host)
    return pd.DataFrame({"url_norm": url_norm, "domain": domain})


def normalize_urls(ds, url_col: str = "url", keep: list[str] | None = None):
    """Dataset stage: add url_norm + domain columns (streaming, no state)."""

    def kernel(t: pa.Table) -> pa.Table:
        out = normalize_url_series(_series(t[url_col]))
        t = t.append_column("url_norm", pa.array(out["url_norm"], pa.string()))
        t = t.append_column("domain", pa.array(out["domain"], pa.string()))
        return t.select(keep + ["url_norm", "domain"]) if keep else t

    return ds.map_batches(kernel, batch_format="pyarrow")


def per_domain_cap(ds, cap: int, domain_col: str = "domain",
                   order_col: str = "doc_id"):
    """Keep at most `cap` rows per domain, deterministically the lowest
    `order_col` values (combiner partial top-k, then a small shuffle —
    the exchange carries at most cap rows per domain per block)."""
    from .relational import grouped_topk

    return grouped_topk(ds, [domain_col], order_col, cap, descending=False)


def blocklist_filter(ds, blocked: set[str], domain_col: str = "domain"):
    """Drop rows whose registrable domain is on a blocklist (robots/
    spam/adult lists in real crawls). The blocklist is a broadcast set
    baked into the task closure — a pure streaming filter, never a
    shuffle; for multi-GB lists swap the closure for a ray.put ref and
    a worker-cached frozenset (stages/worker_cache pattern)."""
    blocked = frozenset(blocked)

    def kernel(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.is_in(t[domain_col],
                     value_set=pa.array(sorted(blocked), pa.string()))
        return t.filter(pc.invert(m))

    return ds.map_batches(kernel, batch_format="pyarrow")


# ------------------------------------------------------- deterministic corpus
def derive_doc_urls(doc_id: np.ndarray) -> pd.Series:
    """Messy-but-deterministic raw URLs from doc_id — numpy/pandas twin
    of doc_urls_sql() below (same integer spec on both sides; the
    NORMALIZATION is the operator under test, derivation is fixture)."""
    e = pd.Series(doc_id.astype(np.int64))
    host_n = (e * 7919) % 20
    tld = np.select(
        [e % 7 <= 1, e % 7 == 2, e % 7 == 3, e % 7 == 4, e % 7 == 5],
        ["co.uk", "com", "org", "github.io", "com.au"],
        default="net",
    )
    host = "www.site-" + host_n.astype(str) + "." + pd.Series(tld)
    host = pd.Series(np.where(e % 3 == 0, host.str.upper(), host))
    scheme = pd.Series(np.where(e % 11 == 0, "HTTPS", "https"))
    port = pd.Series(np.select([e % 5 == 0, e % 5 == 1], [":443", ":8080"],
                               default=""))
    path = "/Articles/" + e.astype(str)
    query = pd.Series(
        np.select(
            [e % 4 == 0, e % 4 == 1, e % 4 == 2],
            ["?utm_source=feed&id=" + e.astype(str), "?id=" + e.astype(str),
             "?utm_campaign=x"],
            default="",
        )
    )
    frag = pd.Series(np.where(e % 2 == 0, "#Section-2", ""))
    return scheme + "://" + host + port + path + query + frag


def doc_urls_sql(alias: str = "u") -> str:
    """SQL snippet deriving the identical raw URLs from documents.doc_id."""
    return (
        "(SELECT doc_id, "
        "  (CASE WHEN doc_id % 11 = 0 THEN 'HTTPS' ELSE 'https' END) || '://' || "
        "  (CASE WHEN doc_id % 3 = 0 "
        "        THEN upper('www.site-' || CAST((doc_id * 7919) % 20 AS VARCHAR) || '.' || "
        "             (CASE WHEN doc_id % 7 <= 1 THEN 'co.uk' "
        "                   WHEN doc_id % 7 = 2 THEN 'com' "
        "                   WHEN doc_id % 7 = 3 THEN 'org' "
        "                   WHEN doc_id % 7 = 4 THEN 'github.io' "
        "                   WHEN doc_id % 7 = 5 THEN 'com.au' ELSE 'net' END)) "
        "        ELSE 'www.site-' || CAST((doc_id * 7919) % 20 AS VARCHAR) || '.' || "
        "             (CASE WHEN doc_id % 7 <= 1 THEN 'co.uk' "
        "                   WHEN doc_id % 7 = 2 THEN 'com' "
        "                   WHEN doc_id % 7 = 3 THEN 'org' "
        "                   WHEN doc_id % 7 = 4 THEN 'github.io' "
        "                   WHEN doc_id % 7 = 5 THEN 'com.au' ELSE 'net' END) END) || "
        "  (CASE WHEN doc_id % 5 = 0 THEN ':443' "
        "        WHEN doc_id % 5 = 1 THEN ':8080' ELSE '' END) || "
        "  '/Articles/' || CAST(doc_id AS VARCHAR) || "
        "  (CASE WHEN doc_id % 4 = 0 THEN '?utm_source=feed&id=' || CAST(doc_id AS VARCHAR) "
        "        WHEN doc_id % 4 = 1 THEN '?id=' || CAST(doc_id AS VARCHAR) "
        "        WHEN doc_id % 4 = 2 THEN '?utm_campaign=x' ELSE '' END) || "
        "  (CASE WHEN doc_id % 2 = 0 THEN '#Section-2' ELSE '' END) AS url "
        f"FROM documents) {alias}"
    )
