#!/usr/bin/env python3
"""Benchmark of the flagship pipeline through Ray on this machine's CPUs.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one after another

A job is pipelines.geotag.geotag_join_tiles over read_parquet of the
seeded input, then state.checkpoint.checkpointed_write. Each job's
output is checked by the oracle (oracle.py); a wrong or failed job
counts in `failed` and the run goes on. With --trace 0 the last stdout
line carries the end-to-end metrics, with --trace 1 the per-layer ones,
derived from the trace file the run writes. perfbench/README.md has the
workloads and the metric-to-layer map.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
BUCKETS = 64
SETUPS = 2  # set-ups per --trace 0 run; setup_s is their median
MIN_JOBS = 3
# verify_manifest takes ~0.3 s, short enough for host noise to move one
# timing by 10%; each job's output is verified this many times
VERIFY_REPS = 3
OBJECT_STORE_BYTES = 256 << 20
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets
# about this deep below its temp dir
RAY_SOCKET_DEPTH = 72

E2E_UNITS = {"pages_per_s": "1/s", "verify_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}


# ---- processes ------------------------------------------------------------


def _children() -> dict[int, list[int]]:
    """Parent pid -> pids of its live (not yet exited) children."""
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if state == "Z":  # exited; collect it if it is ours
            if int(ppid) == os.getpid():
                try:
                    os.waitpid(int(d), os.WNOHANG)
                except ChildProcessError:
                    pass
            continue
        kids.setdefault(int(ppid), []).append(int(d))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children(), [], [pid]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def tree_rss_bytes(pid: int) -> int:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for p in [pid] + descendants(pid):
        try:
            with open(f"/proc/{p}/statm") as f:
                total += int(f.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            pass
    return total


class PeakRss(threading.Thread):
    """Highest summed RSS of this process and all its descendants."""

    def __init__(self, interval: float = 0.2):
        super().__init__(daemon=True)
        self.interval = interval
        self.peak = 0
        self._stop_ev = threading.Event()

    def run(self):
        while True:
            self.peak = max(self.peak, tree_rss_bytes(os.getpid()))
            if self._stop_ev.wait(self.interval):
                return

    def stop(self) -> int:
        self._stop_ev.set()
        self.join()
        return self.peak


def reap(timeout: float = 15.0) -> None:
    """Wait for every process this one started to end; kill stragglers."""
    deadline = time.monotonic() + timeout
    while (left := descendants(os.getpid())) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    while descendants(os.getpid()) and time.monotonic() < deadline + 5:
        time.sleep(0.1)


# ---- Ray session ----------------------------------------------------------


class Session:
    """One ray.init ... ray.shutdown, with Ray's files under `temp_dir`."""

    def __init__(self, temp_dir: str):
        self.temp_dir = temp_dir

    def start(self):
        import ray
        from ray.data import DataContext

        ray.init(address="local", num_cpus=os.cpu_count(),
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", _temp_dir=self.temp_dir)
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def stop(self):
        import ray

        ray.shutdown()
        reap()


def ray_temp_dir() -> str:
    """Ray's temp dir inside the checkout, unless socket paths there would
    be too long; then a fresh dir in the system temp dir (removed after)."""
    inside = os.path.join(WORK, "ray")
    if len(inside.encode()) + RAY_SOCKET_DEPTH <= 107:
        return inside
    return tempfile.mkdtemp(prefix="pb-ray-")


# ---- jobs -----------------------------------------------------------------


@dataclass
class Context:
    input_dir: str  # the parquet pages the program reads
    polygons: object  # make_polygons(n)
    expected: object  # oracle.Expected
    out_dir: str


@dataclass
class Jobs:
    job_s: list = field(default_factory=list)  # untraced jobs that completed
    verify_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_job(ctx: Context, outer, inner, trace: str):
    """One job plus its verifies. `outer` times the job and each verify,
    `inner` (a NullTracer when untraced) the two blocking calls.
    Returns (job seconds, verify seconds list, manifest, verify status)."""
    import ray.data as rd

    from simplefeatures_ray.pipelines.geotag import geotag_join_tiles
    from simplefeatures_ray.state.checkpoint import checkpointed_write, verify_manifest

    from kernels import RES

    shutil.rmtree(ctx.out_dir, ignore_errors=True)
    with outer.span(trace, "job") as job:
        with inner.span(trace, "pipeline.upstream", job.id):
            out = geotag_join_tiles(rd.read_parquet(ctx.input_dir), ctx.polygons,
                                    res=RES)
        with inner.span(trace, "pipeline.sink", job.id):
            manifest = checkpointed_write(out, ctx.out_dir, partition_col="tile_id",
                                          n_buckets=BUCKETS, resume=False)
    verify_s = []
    for _ in range(VERIFY_REPS):
        with outer.span(trace, "sink.verify") as ver:
            status = verify_manifest(ctx.out_dir)
        verify_s.append(ver.seconds)
    return job.seconds, verify_s, manifest, status


def measure_jobs(ctx: Context, seconds: float, outer, alternate: bool = False) -> Jobs:
    """Jobs back to back for `seconds`, at least MIN_JOBS (four when
    alternating). With `alternate`, every second job also records its
    blocking calls into `outer`."""
    from oracle import judge
    from spans import NullTracer

    null = NullTracer()
    jobs = Jobs()
    t_end = time.monotonic() + seconds
    while jobs.attempted < (4 if alternate else MIN_JOBS) or time.monotonic() < t_end:
        traced = alternate and jobs.attempted % 2 == 1
        trace = f"{'traced' if traced else 'plain'}-{jobs.attempted}"
        jobs.attempted += 1
        try:
            js, vs, manifest, status = run_job(ctx, outer, outer if traced else null, trace)
            found = judge(ctx.out_dir, manifest, status, ctx.expected)
        except Exception:  # a job that raises is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            jobs.failed += 1
            continue
        if not traced:
            jobs.job_s.append(js)
            jobs.verify_s.extend(vs)
        if found:
            jobs.failed += 1
            print(f"job {trace}: wrong output: {'; '.join(found)}", file=sys.stderr)
    shutil.rmtree(ctx.out_dir, ignore_errors=True)
    return jobs


# ---- one workload ---------------------------------------------------------


def prepare(workload: str, seed: int, pages: int | None, tracer):
    """Input, ground truth and the kernel reference. Returns (Context,
    input seconds, n_pages, reference rows, problems found in them)."""
    import inputs
    from kernels import kernel_pass
    from oracle import Expected, digest, pairs

    from simplefeatures_ray.sources.polygons import make_polygons

    w = inputs.WORKLOADS[workload]
    t0 = time.perf_counter()
    input_dir = inputs.ensure_input(w, seed, os.path.join(WORK, "cache"), pages)
    polygons = make_polygons(w.polygons)
    truth = frozenset(inputs.read_truth(input_dir))
    input_s = time.perf_counter() - t0
    ref = kernel_pass(inputs.page_files(input_dir), polygons, tracer)
    bad = [] if pairs(ref) == truth else [
        "kernel pass (url, poly_id) differs from brute force"]
    expected = Expected(truth, digest(ref), ref.num_rows)
    ctx = Context(inputs.pages_dir(input_dir), polygons, expected,
                  os.path.join(WORK, "out"))
    return ctx, input_s, pages or w.pages, ref, bad


def warm_up(ctx: Context):
    """One full job on the run's input: every worker process the measured
    jobs use is started and has imported the engine."""
    from spans import NullTracer

    null = NullTracer()
    run_job(ctx, null, null, "warmup")
    shutil.rmtree(ctx.out_dir, ignore_errors=True)


def run_untraced(workload, seed, seconds, pages, session):
    from spans import Tracer

    ctx, input_s, n_pages, _, bad = prepare(workload, seed, pages, Tracer())
    setup_s = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        session.start()
        warm_up(ctx)
        setup_s.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            session.stop()
    rss = PeakRss()
    rss.start()
    try:
        jobs = measure_jobs(ctx, seconds, Tracer())
    finally:
        peak = rss.stop()
    if not jobs.job_s:
        raise RuntimeError("no job completed")
    metrics = {
        "pages_per_s": n_pages / statistics.median(jobs.job_s),
        "verify_s": statistics.median(jobs.verify_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak / (1 << 20),
    }
    notes = {"input_s": input_s, "job_s": jobs.job_s, "setup_runs_s": setup_s,
             "fail_frac": jobs.failed / jobs.attempted}
    return metrics, E2E_UNITS, jobs, bad, notes


def run_traced(workload, seed, seconds, pages, session):
    import ray.data as rd

    from simplefeatures_ray.state.checkpoint import checkpointed_write, verify_manifest

    import layers
    from oracle import judge
    from spans import Tracer

    tracer = Tracer()
    ctx, input_s, n_pages, ref, bad = prepare(workload, seed, pages, tracer)
    session.start()
    warm_up(ctx)
    # the sink alone, over the kernel pass's rows already in the object store
    ds = rd.from_arrow(ref).materialize()
    shutil.rmtree(ctx.out_dir, ignore_errors=True)
    with tracer.span("sink", "sink.write") as sp:
        manifest = checkpointed_write(ds, ctx.out_dir, partition_col="tile_id",
                                      n_buckets=BUCKETS, resume=False)
    parts = manifest["partitions"].values()
    sp.counts.update(rows=sum(p["rows"] for p in parts), partitions=len(parts),
                     bytes=sum(p["bytes"] for p in parts),
                     max_partition_rows=max((p["rows"] for p in parts), default=0))
    with tracer.span("sink", "sink.verify"):
        status = verify_manifest(ctx.out_dir)
    bad += [f"sink alone: {p}" for p in judge(ctx.out_dir, manifest, status, ctx.expected)]
    del ds
    jobs = measure_jobs(ctx, seconds, tracer, alternate=True)
    os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
    path = os.path.join(WORK, "trace", f"{workload}-s{seed}.jsonl")
    tracer.write(path)
    metrics, units = layers.metrics(path)
    notes = {"input_s": input_s, "trace_file": path,
             "fail_frac": jobs.failed / jobs.attempted}
    return metrics, units, jobs, bad, notes


def run_workload(workload, seed, seconds, trace, pages=None) -> dict:
    temp_dir = ray_temp_dir()
    session = Session(temp_dir)
    try:
        fn = run_traced if trace else run_untraced
        metrics, units, jobs, bad, notes = fn(workload, seed, seconds, pages, session)
    finally:
        session.stop()
        shutil.rmtree(temp_dir, ignore_errors=True)
        shutil.rmtree(os.path.join(WORK, "out"), ignore_errors=True)
    for p in bad:
        print(f"{workload}: {p}", file=sys.stderr)
    for name, v in metrics.items():
        print(f"{workload:14s} {name:28s} {v:14.6g} {units[name]}")
    for name, v in notes.items():
        print(f"{workload:14s} {name:28s} {v}")
    return {"correct": jobs.failed == 0 and not bad, "attempted": jobs.attempted,
            "failed": jobs.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process, so each gets a fresh Ray."""
    import inputs

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in inputs.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.pages:
            cmd += ["--pages", str(args.pages)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pages", type=int, default=0,
                    help="override the workload's page count (smoke test)")
    args = ap.parse_args(argv)
    # a terminated run still shuts Ray down and waits for its processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isdir(os.path.join(ROOT, "simplefeatures_ray")):
        print(f"no simplefeatures_ray package next to {HERE}", file=sys.stderr)
        return 2
    # this process imports the package from the checkout, and Ray workers
    # inherit PYTHONPATH, so they do too whatever the cwd is
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    if args.workload == "all":
        return run_all(args)
    import inputs

    if args.workload not in inputs.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(inputs.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.pages or None)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
