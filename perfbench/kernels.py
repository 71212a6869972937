"""Ray-free pass over the flagship kernels, in this process, one span each.

The batches are the pipeline's: the parquet input cut at 2048 rows. The
pass calls each layer's public kernel in pipeline order and returns the
rows the pipeline would write, which is the reference the Ray job's
output must equal. The spans give each kernel's self time, CPU time and
counts with no Ray scheduling in them.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from spans import Tracer

BATCH_ROWS = 2048
RES = 12
TRACE = "kernels"  # trace id of the pass's spans
# the columns pipelines.geotag.geotag_join_tiles hands to the sink
OUT_COLUMNS = ("url", "lat", "lon", "cell", "poly_id", "poly_name", "tile_id",
               "n_tokens", "quality", "lang_pred", "fingerprint")
# spans whose self time is kernel work (join.candidates only counts)
KERNEL_SPANS = ("extract", "tiling.encode", "join.build_index", "join.probe",
                "tiling.histogram", "tiling.assign")


def read_batches(files: list[str]) -> list[pa.Table]:
    return [pa.Table.from_batches([b]) for f in files
            for b in pq.read_table(f).to_batches(max_chunksize=BATCH_ROWS)]


def kernel_pass(files: list[str], polygons: pa.Table, tracer: Tracer) -> pa.Table:
    from simplefeatures_ray.stages.extract import extract_geo_batch
    from simplefeatures_ray.stages.join import BroadcastSpatialJoin, build_polygon_index
    from simplefeatures_ray.stages.tiling import (
        AssignTiles, encode_cells, partial_cell_counts, tile_table)

    batches = read_batches(files)
    encode = encode_cells(RES)
    partial = partial_cell_counts()
    # the extractor builds its per-process state on first use; a worker
    # has done so before any timed job, so do it here untimed as well
    extract_geo_batch(batches[0].slice(0, 16))

    trace = TRACE
    joined = []
    with tracer.span(trace, "kernels") as root:
        with tracer.span(trace, "join.build_index", root.id):
            joiner = BroadcastSpatialJoin(index=build_polygon_index(polygons))
        for b in batches:
            with tracer.span(trace, "extract", root.id) as sp:
                geo = extract_geo_batch(b)
            sp.counts.update(rows_in=b.num_rows, rows_out=geo.num_rows,
                             bytes_in=b["html"].nbytes)
            with tracer.span(trace, "tiling.encode", root.id):
                geo = encode(geo)
            with tracer.span(trace, "join.probe", root.id) as sp:
                j = joiner(geo)
            sp.counts["hits"] = j.num_rows
            with tracer.span(trace, "join.candidates", root.id) as sp:
                px = np.asarray(geo["lon"], dtype=np.float64)
                py = np.asarray(geo["lat"], dtype=np.float64)
                ok = ~(np.isnan(px) | np.isnan(py))
                cand, _ = joiner.tree.query_many_points(px[ok], py[ok])
            sp.counts["candidates"] = len(cand)
            joined.append(j)
        with tracer.span(trace, "tiling.histogram", root.id) as sp:
            parts = pa.concat_tables([partial(j) for j in joined])
            cells, inv = np.unique(np.asarray(parts["cell"], dtype=np.uint64),
                                   return_inverse=True)
            totals = np.zeros(len(cells), dtype=np.int64)
            np.add.at(totals, inv, np.asarray(parts["n"], dtype=np.int64))
            hist = pa.table({"cell": pa.array(cells, pa.uint64()),
                             "n_pages": pa.array(totals, pa.int64())})
        sp.counts.update(cells=len(cells), rows=int(totals.sum()),
                         max_cell_rows=int(totals.max(initial=0)))
        with tracer.span(trace, "tiling.assign", root.id):
            assign = AssignTiles(tiles=tile_table(hist))
            out = [assign(j) for j in joined]
    out = pa.concat_tables(out)
    return out.select([c for c in OUT_COLUMNS if c in out.column_names])
