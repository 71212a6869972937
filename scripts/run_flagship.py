"""Flagship job entry point (the `ray job submit` target).

    python scripts/run_flagship.py --pages 200000 --out /tmp/tiles_out

Runs pages -> extract -> cell encode -> broadcast spatial join -> tile
assignment, then writes bucketed parquet with a per-partition lineage
manifest (simplefeatures_ray.state.checkpoint). Re-running with the same
--out resumes: completed partitions are skipped. On a real cluster the
same script is submitted via `ray job submit -- python
scripts/run_flagship.py ...` with address taken from the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pages", type=int, default=100000)
    ap.add_argument("--polygons", type=int, default=64)
    ap.add_argument("--out", default="/tmp/sfr_tiles_out")
    ap.add_argument("--res", type=int, default=12)
    ap.add_argument("--buckets", type=int, default=64)
    ap.add_argument("--num-cpus", type=int, default=os.cpu_count())
    ap.add_argument("--no-resume", action="store_true")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import ray.data as rd

    from simplefeatures_ray.pipelines.geotag import geotag_join_tiles
    from simplefeatures_ray.sources.pages import pages_parquet_cached
    from simplefeatures_ray.sources.polygons import make_polygons
    from simplefeatures_ray.state.checkpoint import checkpointed_write, verify_manifest

    t0 = time.time()
    pages = rd.read_parquet(pages_parquet_cached(args.pages))
    out = geotag_join_tiles(pages, make_polygons(args.polygons), res=args.res)
    manifest = checkpointed_write(out, args.out, partition_col="tile_id",
                                  n_buckets=args.buckets, resume=not args.no_resume)
    elapsed = time.time() - t0
    check = verify_manifest(args.out)
    bad = {k: v for k, v in check.items() if v != "ok"}
    print(json.dumps({
        "pages": args.pages,
        "elapsed_sec": round(elapsed, 2),
        "pages_per_sec": round(args.pages / elapsed, 1),
        "partitions": manifest["n_partitions"],
        "total_rows": manifest["total_rows"],
        "verify_failures": bad,
        "out": args.out,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
