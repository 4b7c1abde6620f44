#!/usr/bin/env python3
"""Service-throughput benchmark: jobs/sec over HTTP, warm vs cold cache.

Runs an in-process :class:`ServiceDaemon` on an ephemeral port and
drives the full quick matrix (every paper workload × the three 4-CPU
base architectures, test scale) through real HTTP twice:

* **cold** — fresh result cache, every job simulates in the warm
  worker pool;
* **warm** — the identical matrix against a *fresh* daemon sharing
  the cache directory, so every job is a genuine disk-cache hit
  (submitting to the same daemon would dedup against its in-memory
  records instead and measure nothing).

Each pass records jobs/s and the p50/p99 submit→result latency (from
a client's submit call to the moment it sees the job finished).
Appends a ``"backend": "service"`` entry, stamped with the host
fingerprint, to ``benchmarks/results/bench_runner.json`` (its own
bench-gate profile, never compared against in-process batch entries
or other machines). ``--no-write`` prints the entry without touching
the committed record.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime
from pathlib import Path

sys.path.insert(0, "src")

from bench_gate import host_fingerprint
from repro.core.runner import ResultCache
from repro.serve import ServiceClient, ServiceDaemon

ARCHS = ("shared-l1", "shared-l2", "shared-mem")
WORKLOADS = (
    "eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "multiprog"
)
RECORD = Path("benchmarks/results/bench_runner.json")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def drive_matrix(server: str, clients: int) -> tuple[float, list[float]]:
    """Submit the matrix through ``clients`` concurrent clients.

    Returns (wall seconds, per-job submit→result latencies); raises on
    any failure.
    """
    specs = [
        {"workload": workload, "arch": arch, "n_cpus": 4}
        for workload in WORKLOADS
        for arch in ARCHS
    ]

    def run_one(spec: dict) -> float:
        own = ServiceClient(server)
        submitted = time.perf_counter()
        job_id = own.submit(spec)["id"]
        status = own.wait(job_id, timeout=600)
        latency = time.perf_counter() - submitted
        if status["state"] not in ("done", "cached"):
            raise RuntimeError(
                f"{spec['workload']}/{spec['arch']} ended "
                f"{status['state']}: {status.get('error')}"
            )
        return latency

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        latencies = list(pool.map(run_one, specs))
    return time.perf_counter() - start, latencies


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", "-j", type=int, default=4,
        help="daemon worker-pool size (default 4)",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="concurrent HTTP clients (default 4)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="print the entry instead of appending to the record",
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="serve-bench-") as tmp:
        cache_dir = Path(tmp) / "cache"

        def launch(tag: str) -> ServiceDaemon:
            daemon = ServiceDaemon(
                port=0,
                jobs=args.jobs,
                cache=ResultCache(cache_dir),
                state_dir=Path(tmp) / f"serve-{tag}",
            )
            daemon.start()
            return daemon

        daemon = launch("cold")
        try:
            print(
                f"[bench] daemon on http://127.0.0.1:{daemon.port}: "
                f"{args.jobs} workers, {args.clients} clients",
                flush=True,
            )
            cold_wall, cold_latency = drive_matrix(
                f"http://127.0.0.1:{daemon.port}", args.clients
            )
            n = len(cold_latency)
            executed = daemon.scheduler.executed
            print(
                f"[cold] {n} jobs in {cold_wall:.2f}s "
                f"({n / cold_wall:.2f} jobs/s, p50 "
                f"{percentile(cold_latency, 0.5):.3f}s, p99 "
                f"{percentile(cold_latency, 0.99):.3f}s)",
                flush=True,
            )
        finally:
            daemon.shutdown(grace=30.0)

        daemon = launch("warm")
        try:
            warm_wall, warm_latency = drive_matrix(
                f"http://127.0.0.1:{daemon.port}", args.clients
            )
            warm_executed = daemon.scheduler.executed
            hits = daemon.cache.hits
            print(
                f"[warm] {n} jobs in {warm_wall:.2f}s "
                f"({n / warm_wall:.2f} jobs/s, p50 "
                f"{percentile(warm_latency, 0.5):.3f}s, {hits} cache hits)",
                flush=True,
            )
        finally:
            daemon.shutdown(grace=30.0)

    if executed != n:
        print(f"FAIL expected {n} simulations, daemon executed {executed}")
        return 1
    if warm_executed != 0 or hits < n:
        print(
            f"FAIL warm pass simulated {warm_executed} jobs and hit the "
            f"cache only {hits}/{n} times"
        )
        return 1

    entry = {
        "when": datetime.now().isoformat(timespec="seconds"),
        "quick": True,
        "backend": "service",
        "service": True,
        "host": host_fingerprint(),
        "jobs": args.jobs,
        "clients": args.clients,
        "cache": True,
        "total_wall_seconds": round(cold_wall + warm_wall, 3),
        "matrix_jobs": n,
        "cold_wall_seconds": round(cold_wall, 3),
        "cold_jobs_per_second": round(n / cold_wall, 3),
        "cold_latency_p50_seconds": round(percentile(cold_latency, 0.5), 4),
        "cold_latency_p99_seconds": round(percentile(cold_latency, 0.99), 4),
        "warm_wall_seconds": round(warm_wall, 3),
        "warm_jobs_per_second": round(n / warm_wall, 3),
        "warm_latency_p50_seconds": round(percentile(warm_latency, 0.5), 4),
        "warm_latency_p99_seconds": round(percentile(warm_latency, 0.99), 4),
        "cache_hits": hits,
        "failures": 0,
    }
    print(json.dumps(entry, indent=2))
    if not args.no_write:
        entries = json.loads(RECORD.read_text()) if RECORD.is_file() else []
        entries.append(entry)
        RECORD.write_text(json.dumps(entries, indent=1) + "\n")
        print(f"[bench] appended to {RECORD}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
