#!/usr/bin/env python3
"""Regenerate every table and figure, and build a results gallery.

Runs the full reproduction directly (no pytest needed), writing

    benchmarks/results/<experiment>.{txt,csv,svg}
    benchmarks/results/index.html
    benchmarks/results/bench_runner.json   (perf trajectory, appended)

The HTML index embeds every figure next to its measured series — the
one-page artefact to eyeball against the paper.

The whole evaluation is submitted as ONE batch to the experiment
runner (repro.core.runner): every (figure, architecture) simulation is
an independent job, so ``--jobs N`` runs N of them in parallel worker
processes and the wall clock drops roughly by the core count. Results
are cached on disk keyed by the job spec and the package source, so an
unchanged figure re-renders instantly on the next invocation.

Usage:
    python scripts/reproduce_all.py [--quick] [--jobs N]
                                    [--no-cache] [--cache-dir PATH]
                                    [--resume] [--manifest PATH]
                                    [--checkpoint-every N]
                                    [--ckpt-dir PATH] [--timeout S]

``--quick`` skips the MXS figure (Figure 11). Serial, uncached wall
clock is ~40s quick / ~3 minutes full; ``--jobs 4`` cuts either by
roughly 4x on a 4-core host.

The batch is resumable (see docs/CHECKPOINTING.md): every completed
job is recorded in an on-disk manifest as it lands, and ``--resume``
skips manifest-recorded jobs entirely — a SIGKILLed invocation picks
up where it stopped. ``--checkpoint-every N --ckpt-dir PATH``
additionally snapshots each *in-flight* simulation every N cycles, so
a retried or resumed job restarts mid-run instead of from cycle 0.
``--timeout S`` bounds each job's wall-clock time.

``--telemetry`` turns on the batch event bus (see
docs/OBSERVABILITY.md, "Batch telemetry"): every worker streams
job/cache/store lifecycle events to the parent, which writes
``batch_events.jsonl`` and a per-worker Perfetto span trace
``batch_trace.json`` into ``--telemetry-dir`` (default: the results
directory), records the rollup in the manifest and
``bench_runner.json``, and — with ``--live`` — repaints a progress
line (per-worker state, jobs done/total, cache hit rate, ETA).
"""

from __future__ import annotations

import argparse
import html
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_gate import host_fingerprint  # noqa: E402
from harness import BENCH_OVERRIDES, MAX_CYCLES, report  # noqa: E402
from repro.core.configs import ARCHITECTURES  # noqa: E402
from repro.core.runner import (  # noqa: E402
    BatchManifest,
    Job,
    ResultCache,
    Runner,
)

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
BASELINE = RESULTS / "bench_runner.json"
MANIFEST = RESULTS / "manifest.json"

FIGURES = (
    ("fig04_eqntott", "Figure 4 - Eqntott (Mipsy)", "eqntott"),
    ("fig05_mp3d", "Figure 5 - MP3D (Mipsy)", "mp3d"),
    ("fig06_ocean", "Figure 6 - Ocean (Mipsy)", "ocean"),
    ("fig07_volpack", "Figure 7 - Volpack (Mipsy)", "volpack"),
    ("fig08_ear", "Figure 8 - Ear (Mipsy)", "ear"),
    ("fig09_fft", "Figure 9 - FFT (Mipsy)", "fft"),
    ("fig10_multiprog", "Figure 10 - Multiprogramming + OS (Mipsy)",
     "multiprog"),
)

MXS_APPS = ("multiprog", "eqntott", "ear")


def figure_specs(quick: bool) -> list[tuple[str, str, str, str]]:
    """(name, title, workload, cpu_model) for every figure to render."""
    specs = [
        (name, title, workload, "mipsy")
        for name, title, workload in FIGURES
    ]
    if not quick:
        specs += [
            (
                f"fig11_{app}_mxs",
                f"Figure 11 - {app} (MXS, ideal IPC = 2)",
                app,
                "mxs",
            )
            for app in MXS_APPS
        ]
    return specs


def build_batch(
    specs,
    obs_sample: int = 0,
    timeout_s: float = 0.0,
    ckpt_every: int = 0,
    ckpt_dir: str | None = None,
    replay: bool = False,
    trace_dir: str | None = None,
) -> list[Job]:
    """One job per (figure, architecture) — the whole evaluation.

    ``obs_sample`` > 0 attaches the utilization sampler to every job
    at that interval; the rollups land in bench_runner.json.
    ``timeout_s``/``ckpt_every``/``ckpt_dir`` are execution policy
    passed through to every job (wall-clock budget, periodic in-run
    checkpointing for crash recovery). ``replay=True`` runs every job
    down the trace-replay lane (each workload recorded once into the
    trace store at ``trace_dir``, then re-simulated per architecture
    through the batch kernel — see docs/REPLAY.md for what that
    approximation means).
    """
    return [
        Job(
            arch=arch,
            workload=workload,
            cpu_model=cpu_model,
            scale="bench",
            overrides=dict(BENCH_OVERRIDES.get(workload, {})),
            max_cycles=MAX_CYCLES,
            obs_sample=obs_sample,
            timeout_s=timeout_s,
            ckpt_every=ckpt_every,
            ckpt_dir=ckpt_dir,
            replay=replay,
            trace_dir=trace_dir,
        )
        for _name, _title, workload, cpu_model in specs
        for arch in ARCHITECTURES
    ]


def render_reports(specs, outcomes) -> dict[str, float]:
    """Group per-arch outcomes back into figures and render each one.

    Returns per-figure simulation seconds (sum over the three
    architecture jobs; 0.0 for fully cached figures).
    """
    timings: dict[str, float] = {}
    cursor = iter(outcomes)
    for name, title, _workload, cpu_model in specs:
        results, walls, failed = {}, 0.0, []
        for arch in ARCHITECTURES:
            outcome = next(cursor)
            if outcome.result is None:
                failed.append(f"{arch}: {outcome.error}")
                continue
            results[arch] = outcome.result
            walls += outcome.wall_seconds
        if failed:
            # A figure with a failed architecture cannot be rendered;
            # report it and keep going so the rest of the gallery
            # still regenerates.
            print(f"  [skip  ] {name}: " + "; ".join(failed))
            continue
        report(name, title, results, mxs=cpu_model == "mxs")
        print(f"  [{walls:5.1f}s] {name}")
        timings[name] = round(walls, 3)
    return timings


def build_index(names: list[str]) -> None:
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>repro results</title>",
        "<style>body{font-family:sans-serif;max-width:900px;margin:2em "
        "auto;} pre{background:#f6f6f6;padding:1em;overflow-x:auto;} "
        "h2{border-bottom:1px solid #ccc;}</style></head><body>",
        "<h1>Evaluation of Design Alternatives for a Multiprocessor "
        "Microprocessor — measured reproduction</h1>",
        "<p>Generated by <code>scripts/reproduce_all.py</code>. "
        "Paper-vs-measured commentary lives in EXPERIMENTS.md.</p>",
    ]
    for name in names:
        parts.append(f"<h2>{html.escape(name)}</h2>")
        svg = RESULTS / f"{name}.svg"
        if svg.exists():
            parts.append(svg.read_text())
        txt = RESULTS / f"{name}.txt"
        if txt.exists():
            parts.append(f"<pre>{html.escape(txt.read_text())}</pre>")
    parts.append("</body></html>")
    (RESULTS / "index.html").write_text("\n".join(parts))
    print(f"gallery: {RESULTS / 'index.html'}")


def append_baseline(
    total_wall: float,
    timings: dict[str, float],
    run_report,
    args: argparse.Namespace,
) -> None:
    """Append this run's wall-clock record to bench_runner.json.

    The file accumulates one entry per invocation so future changes to
    the runner or the simulator have a measured trajectory to compare
    against.
    """
    entry = {
        "when": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "quick": args.quick,
        # Which execution backend produced these timings. Replayed and
        # generated (interpreter) runs are different experiments at
        # very different speeds; trajectory comparisons (bench_gate)
        # must never mix the two.
        "backend": "replay" if args.replay else "interpreter",
        # The trajectory gate compares only entries from one machine.
        "host": host_fingerprint(),
        "jobs": run_report.workers,
        "cache": not args.no_cache,
        "total_wall_seconds": round(total_wall, 3),
        "sim_seconds": round(run_report.busy_seconds, 3),
        "utilization": round(run_report.utilization(), 3),
        "cache_hits": run_report.cache_hits,
        "cache_misses": run_report.cache_misses,
        "failures": len(run_report.failures),
        "worker_crashes": run_report.worker_crashes,
        "figures": timings,
        # Per-job host wall time and simulation speed (cycles per host
        # second; null for cache hits) — the per-run record that makes
        # hot-path regressions attributable to a specific simulation.
        "per_job": run_report.to_dict()["per_job"],
    }
    if run_report.cache_stats is not None:
        # ResultCache counter rollup (hits/misses/stores/evictions and
        # bytes moved) for the trajectory record.
        entry["result_cache"] = run_report.cache_stats
    if run_report.telemetry is not None:
        entry["telemetry"] = run_report.telemetry
    try:
        history = json.loads(BASELINE.read_text())
        if not isinstance(history, list):
            history = []
    except (OSError, ValueError):
        history = []
    history.append(entry)
    BASELINE.write_text(json.dumps(history, indent=2) + "\n")
    print(f"perf baseline appended: {BASELINE}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="skip the MXS runs (Figure 11)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes (default: all cores; 1 = serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always simulate; ignore the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result cache location (default: REPRO_CACHE_DIR or "
             "~/.cache/repro-isca96)",
    )
    parser.add_argument(
        "--replay", action="store_true",
        help="run every figure down the trace-replay lane: record each "
             "workload once on the reference machine, then re-simulate "
             "the stream per architecture through the batch kernel "
             "(several times faster; see docs/REPLAY.md for validity)",
    )
    parser.add_argument(
        "--trace-dir", metavar="PATH", default=None,
        help="trace artifact store for --replay (default: "
             "<cache>/traces)",
    )
    parser.add_argument(
        "--obs-sample", type=int, default=0, metavar="N",
        help="attach the utilization sampler to every job at this "
             "interval (0 = off); rollups land in bench_runner.json",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip jobs already recorded in the batch manifest "
             "(continue a killed invocation)",
    )
    parser.add_argument(
        "--manifest", metavar="PATH", default=None,
        help=f"batch manifest location (default: {MANIFEST})",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="CYCLES",
        help="snapshot every in-flight simulation at this cycle "
             "interval (requires --ckpt-dir); retried/resumed jobs "
             "restart from their last checkpoint",
    )
    parser.add_argument(
        "--ckpt-dir", metavar="PATH", default=None,
        help="checkpoint store for --checkpoint-every",
    )
    parser.add_argument(
        "--timeout", type=float, default=0.0, metavar="SECONDS",
        help="per-job wall-clock budget (0 = unlimited)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="stream batch telemetry over the event bus: writes "
             "batch_events.jsonl + batch_trace.json (Perfetto, one "
             "track per worker) and records rollups in the manifest "
             "and bench_runner.json",
    )
    parser.add_argument(
        "--telemetry-dir", metavar="PATH", default=None,
        help="where the telemetry artifacts go (default: the results "
             "directory; implies --telemetry)",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="live progress view fed by the event bus (implies "
             "--telemetry): per-worker state, done/total, cache hit "
             "rate, ETA",
    )
    args = parser.parse_args(argv)
    if args.checkpoint_every and not args.ckpt_dir:
        parser.error("--checkpoint-every requires --ckpt-dir")
    if args.telemetry_dir or args.live:
        args.telemetry = True
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    specs = figure_specs(args.quick)
    batch = build_batch(
        specs,
        obs_sample=args.obs_sample,
        timeout_s=args.timeout,
        ckpt_every=args.checkpoint_every,
        ckpt_dir=args.ckpt_dir,
        replay=args.replay,
        trace_dir=args.trace_dir,
    )
    manifest_path = Path(args.manifest) if args.manifest else MANIFEST
    if not args.resume:
        # A fresh invocation starts its own completion record; only
        # --resume continues the previous one.
        try:
            manifest_path.unlink()
        except FileNotFoundError:
            pass
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest = BatchManifest(manifest_path)
    if args.resume and len(manifest):
        print(f"resuming: {len(manifest)} job(s) already in "
              f"{manifest_path}")

    bus = live = None
    telemetry_dir = (
        Path(args.telemetry_dir) if args.telemetry_dir else RESULTS
    )
    if args.telemetry:
        from repro.obs import EventBus, LiveView

        if args.live:
            live = LiveView(total=len(batch))
        bus = EventBus(
            log_path=telemetry_dir / "batch_events.jsonl",
            on_event=live.on_event if live is not None else None,
        ).start()

    runner = Runner(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        progress=(
            None if live is not None
            else lambda line: print(f"  {line}", flush=True)
        ),
        manifest=manifest,
        bus=bus,
    )
    print(f"Running {len(batch)} simulations "
          f"({len(specs)} figures x {len(ARCHITECTURES)} architectures) "
          f"on {runner.n_jobs} worker(s)...")
    try:
        run_report = runner.run(batch)
    finally:
        if bus is not None:
            bus.stop()
            if live is not None:
                live.finish()
    if bus is not None:
        from repro.obs import rollup_events, write_batch_trace

        trace_path = telemetry_dir / "batch_trace.json"
        write_batch_trace(bus.events, trace_path, label="reproduce_all")
        telemetry = dict(bus.rollup())
        telemetry["rollup"] = rollup_events(bus.events)
        telemetry["trace_path"] = str(trace_path)
        run_report.telemetry = telemetry
        manifest.record_telemetry(telemetry)
        print(f"telemetry: {bus.log_path} + {trace_path} "
              f"({telemetry['events']} events, "
              f"{telemetry['workers']} worker(s))")
    print("Rendering figures...")
    timings = render_reports(specs, run_report.outcomes)
    build_index([name for name, *_ in specs])
    total_wall = time.perf_counter() - started
    append_baseline(total_wall, timings, run_report, args)
    print(f"done in {total_wall:.1f}s ({run_report.summary()})")
    return 1 if run_report.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
