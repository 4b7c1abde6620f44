#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, every metric.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-mipsy --seed 0 \
        --seconds 10 --trace 0

``--trace 0`` sets up the workload three times (the median is
``setup_s``), measures whole passes (or, for ``service-mix``, the closed
loop) for ``--seconds`` and at least the workload's minimum with
tracing off, checks every output and prints the end-to-end metrics. ``--trace 1`` runs one pass untraced and the
same pass traced (see ``tracing.py``) and prints the per-layer metrics
with the tracing overhead. Either way the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A failed output check, paper claim or path guard makes ``correct``
false and the exit code 1. Working files live under ``.bench_work/`` in
the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SOCKET_PATH_MAX = 108  # bytes in sockaddr_un.sun_path on Linux
MEM_KINDS = ("shared_l1", "shared_l2", "shared_mem", "shared_l3", "cluster")
PAPER_KINDS = MEM_KINDS[:3]

#: CPU models a workload must never tick (checked in both modes) and
#: whether the paper presets' L1 fast lanes must hit (traced mode).
FORBIDDEN_TICKS = {
    "paper-mipsy": ("mxs",),
    "paper-mxs": ("mipsy",),
    "replay-sweep": ("mipsy", "mxs"),
    "service-mix": (),
}
LANE_GUARD = ("paper-mipsy", "paper-mxs")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint(seed: int) -> dict:
    """Host and code identity, so results are never compared blind."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    from repro.core.runner import _source_fingerprint

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_digest": _source_fingerprint(),
        "seed": seed,
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path.insert(0, {str(SRC)!r}); "
        "import repro.core.runner, repro.core.paper, repro.trace, "
        "repro.serve; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout.strip())


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(measurement, setup_times: list[float]) -> dict:
    from scenarios import percentile

    done = [op for op in measurement.ops if op.result is not None]
    simulated = [op for op in done if op.simulated]
    latencies = [op.latency for op in done]
    wall = measurement.wall
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "sim_insts_per_s": (
            sum(op.instructions for op in simulated) / wall,
            "1/s",
        ),
        "job_p50_s": (
            percentile([op.sim_seconds for op in simulated], 0.5),
            "s",
        ),
        "jobs_per_s": (len(done) / wall, "1/s"),
        "latency_p50_s": (percentile(latencies, 0.5), "s"),
        "latency_p90_s": (percentile(latencies, 0.9), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(tracer, scenario, plain, traced) -> dict:
    from tracing import Layer

    def layer(name: str) -> Layer:
        return tracer.layers.get(name) or Layer()

    def ratio(hits: float, calls: float) -> float:
        return hits / calls if calls else 0.0

    done = [op for op in traced.ops if op.result is not None]
    metrics = {
        "system.build_s": (layer("system.build").total, "s"),
        "system.run_self_s": (layer("system.run").self_time, "s"),
    }
    for model in ("mipsy", "mxs"):
        tick = layer(f"{model}.tick")
        metrics[f"{model}.tick_calls"] = (tick.calls, "count")
        metrics[f"{model}.tick_self_s"] = (tick.self_time, "s")
    gen = layer("workload.gen")
    metrics["workload.build_s"] = (layer("workload.build").total, "s")
    metrics["workload.insts_pulled"] = (gen.hits, "count")
    metrics["workload.gen_self_s"] = (gen.self_time, "s")
    for kind in MEM_KINDS:
        lane = layer(f"mem.{kind}.lane")
        access = layer(f"mem.{kind}.access")
        metrics[f"mem.{kind}.lane_calls"] = (lane.calls, "count")
        metrics[f"mem.{kind}.lane_hit_ratio"] = (
            ratio(lane.hits, lane.calls),
            "ratio",
        )
        metrics[f"mem.{kind}.lane_self_s"] = (lane.self_time, "s")
        metrics[f"mem.{kind}.access_calls"] = (access.calls, "count")
        metrics[f"mem.{kind}.access_self_s"] = (access.self_time, "s")
    def setup_median(attribute: str) -> float:
        # Trace recording and decoding happen in set-up, once per repeat.
        values = getattr(scenario, attribute, None)
        return statistics.median(values) if values else 0.0

    get = layer("runner.cache_get")
    metrics.update(
        {
            "trace.record_s": (setup_median("record_seconds"), "s"),
            "trace.load_s": (setup_median("load_seconds"), "s"),
            "trace.kernel_self_s": (layer("trace.kernel").self_time, "s"),
            "trace.refs": (
                sum(
                    op.result.extras.get("replay", {}).get("references", 0)
                    for op in done
                ),
                "count",
            ),
            "runner.cache_get_s": (get.total, "s"),
            "runner.cache_put_s": (layer("runner.cache_put").total, "s"),
            "runner.cache_hit_ratio": (ratio(get.hits, get.calls), "ratio"),
            "runner.executed": (
                traced.extra.get(
                    "executed", sum(op.simulated for op in done)
                ),
                "count",
            ),
            "stats.to_dict_s": (layer("stats.to_dict").total, "s"),
            "serve.submit_s": (layer("serve.submit").total, "s"),
            "serve.watch_s": (layer("serve.watch").total, "s"),
            "serve.result_s": (layer("serve.result").total, "s"),
            "serve.dedup_ratio": (
                ratio(sum(op.reused for op in done), len(done)),
                "ratio",
            ),
            "tracing.untraced_wall_s": (plain.wall, "s"),
            "tracing.traced_wall_s": (traced.wall, "s"),
            "tracing.overhead_ratio": (traced.wall / plain.wall - 1.0, "ratio"),
            "tracing.unattributed_s": (unattributed(tracer), "s"),
        }
    )
    return metrics


def unattributed(tracer) -> float:
    """Self time of the benchmark's own spans: time no layer claims."""
    return sum(
        layer.self_time
        for name, layer in tracer.layers.items()
        if name.startswith("bench.")
    )


def tick_guards(name: str, counts: dict[str, int]) -> list[str]:
    return [
        f"{model} CPU ticked {counts[model]} times on {name}"
        for model in FORBIDDEN_TICKS[name]
        if counts[model]
    ]


def lane_guards(name: str, metrics: dict) -> list[str]:
    if name not in LANE_GUARD:
        return []
    return [
        f"mem.{kind} fast lane never hit on {name}"
        for kind in PAPER_KINDS
        if not metrics[f"mem.{kind}.lane_hit_ratio"][0] > 0
    ]


def run(args, work: Path) -> int:
    from repro.cpu.mipsy import MipsyCpu
    from repro.cpu.mxs import MxsCpu
    from scenarios import SCENARIOS
    from tracing import Tracer, count_calls

    scenario = SCENARIOS[args.workload]()
    print("fingerprint " + json.dumps(fingerprint(args.seed), sort_keys=True))
    try:
        scenario.prepare(args.seed, work / "inputs")
        setup_times = []
        for index in range(SETUP_REPEATS):
            seconds = import_seconds()
            seconds += scenario.setup(work / f"setup{index}")
            setup_times.append(seconds)

        ticks = {"mipsy": [0], "mxs": [0]}
        undo = [
            count_calls(cls, "tick", ticks[model])
            for model, cls in (("mipsy", MipsyCpu), ("mxs", MxsCpu))
            if model in FORBIDDEN_TICKS[args.workload]
        ]
        try:
            if args.trace:
                tracer = Tracer()
                plain, measured = scenario.traced(tracer, args.seconds)
            else:
                measured = scenario.measure(args.seconds)
        finally:
            for restore_count in undo:
                restore_count()
        problems = scenario.check(measured.ops)
        if args.trace:
            problems += scenario.check(plain.ops)
        paper_failed = scenario.paper_failures(measured.ops)
        guards = scenario.guards(measured.ops) + tick_guards(
            args.workload, {model: count[0] for model, count in ticks.items()}
        )
        if args.trace:
            metrics = per_layer(tracer, scenario, plain, measured)
            guards += lane_guards(args.workload, metrics)
        else:
            metrics = end_to_end(measured, setup_times)
    finally:
        scenario.close()

    attempted = len(measured.ops) + (len(plain.ops) if args.trace else 0)
    failed = len(problems)  # one line per wrong or failed op
    if args.trace:
        metrics["checks.error_rate"] = (failed / attempted, "ratio")
        metrics["checks.paper_failed"] = (paper_failed, "count")
    for line in problems + guards:
        print(f"FAIL {line}")
    print(
        f"{args.workload}: {attempted} op(s), {failed} wrong or failed, "
        f"error_rate {failed / attempted:.4f}, "
        f"paper_checks_failed {paper_failed}, path guards "
        + ("broken" if guards else "hold")
    )
    correct = not problems and not guards and paper_failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from scenarios import SCENARIOS

    if args.workload not in SCENARIOS:
        print(
            f"error: unknown workload {args.workload!r}; expected one of "
            f"{sorted(SCENARIOS)}",
            file=sys.stderr,
        )
        return 2
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    # The simulator's default cache and trace homes, kept in the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    # Temporary files too -- the service's bus manager binds a Unix
    # socket about 33 characters below the temporary directory, so a
    # checkout too deep for that keeps the system default.
    tmp = work / "tmp"
    if len(str(tmp)) + 33 < SOCKET_PATH_MAX:
        tmp.mkdir()
        os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
