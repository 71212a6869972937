"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import run  # noqa: E402
from spans import Tracer  # noqa: E402

PAGES = 600


def _bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "flagship",
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--pages", str(PAGES)],
        cwd="/", stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_reported(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    res = _bench(trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in spec[section]}
    units = {m["name"]: m["unit"] for m in spec[section]}
    for name, v in res["metrics"].items():
        assert v["unit"] == units[name]
        assert isinstance(v["value"], (int, float))


def _drop_first_row(out_dir: str, manifest: dict) -> None:
    bucket = next(b for b, p in sorted(manifest["partitions"].items()) if p["rows"])
    path = os.path.join(out_dir, f"part={bucket}", "data.parquet")
    pq.write_table(pq.read_table(path).slice(1), path)


def test_dropping_one_output_row_fails_the_job(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", ROOT)
    ctx, *_ = run.prepare("flagship", 7, PAGES, Tracer())
    temp_dir = run.ray_temp_dir()
    session = run.Session(temp_dir)
    real_job = run.run_job

    def job_then_drop_row(ctx, outer, inner, trace):
        js, vs, manifest, status = real_job(ctx, outer, inner, trace)
        _drop_first_row(ctx.out_dir, manifest)
        return js, vs, manifest, status

    try:
        session.start()
        jobs = run.measure_jobs(ctx, 0, Tracer())
        assert jobs.attempted == run.MIN_JOBS and jobs.failed == 0
        monkeypatch.setattr(run, "run_job", job_then_drop_row)
        jobs = run.measure_jobs(ctx, 0, Tracer())
        assert jobs.attempted == run.MIN_JOBS and jobs.failed == jobs.attempted
    finally:
        session.stop()
        shutil.rmtree(temp_dir, ignore_errors=True)
