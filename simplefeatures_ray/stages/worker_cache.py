"""Per-worker-process state cache for stateless tasks (map_batches or plain).

Every stateful stage runs as a plain-function task whose kernel object
is built ONCE PER WORKER PROCESS and cached here: tasks run in Ray's
standing worker pool, so the state (zero-copy ray.get from the object
store, or a kernel built from plain values) persists across batches
and executions with no process spin-up. An actor pool (callable class +
concurrency=N) would spawn fresh actor processes on every Dataset
execution (~0.3-0.5s each; measured ~4s per pool per run). The
flagship stages (extract_geo_batch, spatial_join_batch,
assign_tiles_batch) and the query registry's kernels all build their
kernel from plain values — never from an object ref inside a
constructor.

The cache is an LRU of at most _CAP entries: every flagship job
`ray.put`s a fresh polygon index and tile table, so an unbounded cache
would pin each job's broadcast state in every worker for that worker's
life.
"""
from __future__ import annotations

from collections import OrderedDict

_CAP = 16
_CACHE: OrderedDict = OrderedDict()


def get_cached(ref, build=None):
    """Fetch-and-cache an object ref per worker process.

    ref: ray.ObjectRef (or any hashable key when `build` is given).
    build: optional callable applied to the fetched value once; its
    result is what gets cached (e.g. wrap arrays into a joiner object).
    """
    key = ref.hex() if hasattr(ref, "hex") else ref
    if build is not None:
        key = (key, getattr(build, "__cache_token__", getattr(build, "__name__", repr(build))))
    hit = _CACHE.get(key)
    if hit is not None:
        _CACHE.move_to_end(key)
        return hit
    if hasattr(ref, "hex"):
        import ray

        value = ray.get(ref)
    else:
        value = ref
    if build is not None:
        value = build(value)
    _CACHE[key] = value
    if len(_CACHE) > _CAP:
        _CACHE.popitem(last=False)
    return value
