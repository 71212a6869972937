"""stages/worker_cache: a bounded LRU, so per-job broadcast state does
not stay pinned in a worker for its whole life."""
from collections import OrderedDict


def test_cache_is_bounded_lru(ray_session, monkeypatch):
    import ray

    from simplefeatures_ray.stages import worker_cache

    monkeypatch.setattr(worker_cache, "_CACHE", OrderedDict())
    built = []

    def wrap(v):
        built.append(v)
        return [v]

    refs = [ray.put(i) for i in range(20)]
    for r in refs:
        worker_cache.get_cached(r, wrap)
    assert len(worker_cache._CACHE) <= worker_cache._CAP < 20
    # the newest entry still hits: no fetch, no rebuild, the same object
    newest = worker_cache.get_cached(refs[-1], wrap)
    assert newest == [19] and newest is worker_cache.get_cached(refs[-1], wrap)
    assert built == list(range(20))
    # a hit refreshes recency: the oldest survivor outlives newer entries
    survivor = refs[20 - worker_cache._CAP]
    worker_cache.get_cached(survivor, wrap)
    worker_cache.get_cached(ray.put(20), wrap)
    assert len(built) == 21
    worker_cache.get_cached(survivor, wrap)
    assert len(built) == 21
    # the first entries were evicted and rebuild on demand
    assert worker_cache.get_cached(refs[0], wrap) == [0]
    assert len(built) == 22
