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
import pyarrow as pa
import pyarrow.compute as pc

# two-label public suffixes recognized by rule 5 (mini-PSL subset)
PSL2 = ("co.uk", "com.au", "github.io", "co.jp", "com.br")

_URL_RE = (
    r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://(?P<host>[^/:?#]+)(?::(?P<port>\d+))?"
    r"(?P<path>[^?#]*)(?:\?(?P<query>[^#]*))?(?:#.*)?$"
)


def normalize_url_array(urls) -> pa.Table:
    """Vectorized normalization: Arrow array of raw URLs -> table with
    url_norm + domain (Arrow RE2 kernels end to end; one regex pass).
    A value that is not a URL gives null for both."""
    parts = pc.extract_regex(urls, _URL_RE)
    scheme = pc.utf8_lower(pc.struct_field(parts, [0]))
    host = pc.utf8_lower(pc.struct_field(parts, [1]))
    # an optional group that did not match extracts as ""
    port = pc.struct_field(parts, [2])
    path = pc.struct_field(parts, [3])
    query = pc.struct_field(parts, [4])

    default_port = pc.or_(
        pc.and_(pc.equal(scheme, "https"), pc.equal(port, "443")),
        pc.and_(pc.equal(scheme, "http"), pc.equal(port, "80")))
    port_sfx = pc.if_else(pc.or_(pc.equal(port, ""), default_port), "",
                          pc.binary_join_element_wise(":", port, ""))

    # rule 4: strip utm_* params (and their trailing separator), then a
    # dangling '&' left by a trailing utm param
    q = pc.utf8_rtrim(pc.replace_substring_regex(
        query, r"utm_[^&]*(&|$)", ""), characters="&")
    q_sfx = pc.if_else(pc.equal(q, ""), "", pc.binary_join_element_wise("?", q, ""))

    url_norm = pc.binary_join_element_wise(
        scheme, "://", host, port_sfx, path, q_sfx, "")

    # rule 5: registrable domain via the mini-PSL
    psl_alt = "|".join(s.replace(".", r"\.") for s in PSL2)
    dom3 = pc.struct_field(pc.extract_regex(host, rf"(?P<d>[^.]+\.(?:{psl_alt}))$"), [0])
    dom2 = pc.struct_field(pc.extract_regex(host, r"(?P<d>[^.]+\.[^.]+)$"), [0])
    domain = pc.coalesce(dom3, dom2, host)
    return pa.table({"url_norm": pc.cast(url_norm, pa.string()),
                     "domain": pc.cast(domain, pa.string())})


def normalize_urls(ds, url_col: str = "url", keep: list[str] | None = None):
    """Dataset stage: add url_norm + domain columns (streaming, no state)."""

    def kernel(t: pa.Table) -> pa.Table:
        out = normalize_url_array(t[url_col])
        t = t.append_column("url_norm", out["url_norm"])
        t = t.append_column("domain", out["domain"])
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
def derive_doc_urls(doc_id: np.ndarray) -> pa.Array:
    """Messy-but-deterministic raw URLs from doc_id — numpy twin of
    doc_urls_sql() below (same integer spec on both sides; the
    NORMALIZATION is the operator under test, derivation is fixture)."""
    e = np.asarray(doc_id, dtype=np.int64)
    s = e.astype(str)
    tld = np.select(
        [e % 7 <= 1, e % 7 == 2, e % 7 == 3, e % 7 == 4, e % 7 == 5],
        ["co.uk", "com", "org", "github.io", "com.au"],
        default="net",
    )
    host = np.char.add(np.char.add("www.site-", ((e * 7919) % 20).astype(str)),
                       np.char.add(".", tld))
    host = np.where(e % 3 == 0, np.char.upper(host), host)
    scheme = np.where(e % 11 == 0, "HTTPS", "https")
    port = np.select([e % 5 == 0, e % 5 == 1], [":443", ":8080"], default="")
    query = np.select(
        [e % 4 == 0, e % 4 == 1, e % 4 == 2],
        [np.char.add("?utm_source=feed&id=", s), np.char.add("?id=", s),
         "?utm_campaign=x"],
        default="",
    )
    frag = np.where(e % 2 == 0, "#Section-2", "")
    return pc.binary_join_element_wise(
        scheme, "://", host, port, "/Articles/", s, query, frag, "")


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
