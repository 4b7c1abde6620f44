#!/usr/bin/env python3
"""Record the golden statistics digests the benchmark checks against.

Runs every job any seed of any workload can choose -- the paper
matrices, the whole replay-sweep grid and the whole service-mix spec
pool -- in-process through ``Runner`` and writes one
``goldens/<workload>.json`` per workload: ``{job key: SHA-256 of the
run's SystemStats}``. Run it only on a commit whose statistics are the
reference (a change that is meant to alter simulated results re-records
them, and says so):

    python3 perfbench/make_goldens.py [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.core.runner import Runner  # noqa: E402
from repro.trace import TraceStore  # noqa: E402
from scenarios import (  # noqa: E402
    GOLDENS,
    L2_ASSOCS,
    SCENARIOS,
    ReplaySweep,
    _job_key,
    digest,
    fresh_pool,
    replay_job,
    service_pool,
)


def replay_grid(trace_dir: str) -> list:
    sweep = ReplaySweep()
    store = TraceStore(trace_dir)
    for app, n_cpus in sweep.traces():
        store.get_or_record(app, "bench", n_cpus)
    return [
        replay_job(app, kind, n_cpus, line, assoc, trace_dir)
        for app, kind, n_cpus, line in sweep.points()
        for assoc in L2_ASSOCS
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()
    work = HERE.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    traces = Path(tempfile.mkdtemp(prefix="goldens-", dir=work))
    try:
        batches = {
            "paper-mipsy": SCENARIOS["paper-mipsy"]().jobs(),
            "paper-mxs": SCENARIOS["paper-mxs"]().jobs(),
            "replay-sweep": replay_grid(str(traces)),
            "service-mix": service_pool() + fresh_pool(),
        }
        GOLDENS.mkdir(exist_ok=True)
        runner = Runner(jobs=args.jobs)
        for name, jobs in batches.items():
            report = runner.run(jobs)
            if report.failures:
                print(f"{name}: {len(report.failures)} job(s) failed")
                return 1
            goldens = {
                _job_key(outcome.job): digest(outcome.result)
                for outcome in report.outcomes
            }
            path = GOLDENS / f"{name}.json"
            path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
            print(f"{name}: {len(goldens)} digest(s) in {report.total_wall:.1f}s")
    finally:
        shutil.rmtree(traces, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
