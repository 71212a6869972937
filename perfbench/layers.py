"""Per-layer metrics, derived from one traced run's span file.

Trace ids in the file: "kernels" (the Ray-free pass, kernels.py),
"sink" (checkpointed_write alone over the kernel pass's rows),
"plain-<k>" (an untraced job: only its job and verify spans) and
"traced-<k>" (a job whose two blocking calls are spans too).
"""
from __future__ import annotations

import statistics

from kernels import KERNEL_SPANS, TRACE
from spans import Spans, load

UNITS = {
    "extract.self_s": "s", "extract.cpu_s": "s", "extract.pages_per_s": "1/s",
    "extract.batch_ms_p50": "ms", "extract.rows_in": "count",
    "extract.rows_out": "count", "extract.bytes_in": "bytes",
    "extract.geo_ratio": "share",
    "join.build_index_s": "s", "join.self_s": "s", "join.cpu_s": "s",
    "join.candidates": "count", "join.hits": "count", "join.hit_ratio": "share",
    "tiling.encode_s": "s", "tiling.histogram_s": "s", "tiling.assign_s": "s",
    "tiling.distinct_cells": "count", "tiling.max_cell_share": "share",
    "sink.write_s": "s", "sink.rows": "count", "sink.partitions": "count",
    "sink.bytes": "bytes", "sink.max_partition_share": "share",
    "sink.verify_s": "s",
    "kernels.self_s": "s", "kernels.cpu_s": "s",
    "pipeline.job_s": "s", "pipeline.upstream_s": "s", "pipeline.sink_s": "s",
    "ray.overhead_s": "s", "trace.overhead_s": "s",
}


def metrics(path: str) -> tuple[dict, dict]:
    s = Spans(load(path))
    k = TRACE
    m = {}
    rows_in = s.count("extract", "rows_in", k)
    m["extract.self_s"] = s.self_s("extract", k)
    m["extract.cpu_s"] = s.cpu_s("extract", k)
    m["extract.pages_per_s"] = rows_in / m["extract.self_s"]
    m["extract.batch_ms_p50"] = 1e3 * s.median_s("extract", k)
    m["extract.rows_in"] = rows_in
    m["extract.rows_out"] = s.count("extract", "rows_out", k)
    m["extract.bytes_in"] = s.count("extract", "bytes_in", k)
    m["extract.geo_ratio"] = m["extract.rows_out"] / rows_in

    m["join.build_index_s"] = s.self_s("join.build_index", k)
    m["join.self_s"] = s.self_s("join.probe", k)
    m["join.cpu_s"] = s.cpu_s("join.probe", k)
    m["join.candidates"] = s.count("join.candidates", "candidates", k)
    m["join.hits"] = s.count("join.probe", "hits", k)
    m["join.hit_ratio"] = m["join.hits"] / max(1, m["join.candidates"])

    m["tiling.encode_s"] = s.self_s("tiling.encode", k)
    m["tiling.histogram_s"] = s.self_s("tiling.histogram", k)
    m["tiling.assign_s"] = s.self_s("tiling.assign", k)
    m["tiling.distinct_cells"] = s.count("tiling.histogram", "cells", k)
    m["tiling.max_cell_share"] = (s.count("tiling.histogram", "max_cell_rows", k)
                                  / max(1, s.count("tiling.histogram", "rows", k)))

    m["sink.write_s"] = s.self_s("sink.write", "sink")
    m["sink.rows"] = s.count("sink.write", "rows", "sink")
    m["sink.partitions"] = s.count("sink.write", "partitions", "sink")
    m["sink.bytes"] = s.count("sink.write", "bytes", "sink")
    m["sink.max_partition_share"] = (s.count("sink.write", "max_partition_rows", "sink")
                                     / max(1, m["sink.rows"]))
    m["sink.verify_s"] = statistics.median(s.durations_s("sink.verify"))

    m["kernels.self_s"] = sum(s.self_s(n, k) for n in KERNEL_SPANS)
    m["kernels.cpu_s"] = sum(s.cpu_s(n, k) for n in KERNEL_SPANS)
    plain = s.median_s("job", "plain-")
    m["pipeline.job_s"] = plain
    m["pipeline.upstream_s"] = s.median_s("pipeline.upstream", "traced-")
    m["pipeline.sink_s"] = s.median_s("pipeline.sink", "traced-")
    m["ray.overhead_s"] = plain - m["kernels.self_s"]
    m["trace.overhead_s"] = s.median_s("job", "traced-") - plain
    return m, UNITS
