"""The benchmark's workloads: seeded inputs, set-up, the timed run.

Each scenario drives the simulator only through its public API
(``Runner``/``Job``, ``TraceStore``, ``ServiceDaemon``/``ServiceClient``)
and turns every job or request into an :class:`Op`. The seed chooses
the inputs (job order, sweep points, request sequence); the program
sees only the jobs themselves.

Why each workload exists:

* ``paper-mipsy`` -- the seven applications x three paper presets under
  Mipsy at bench scale, serially through ``Runner`` with no result
  cache: what ``reproduce_all --quick`` runs. Stresses the workload
  generators, the Mipsy tick, the run loop and three memory kinds.
* ``paper-mxs`` -- the Figure 11 set (multiprog, eqntott, ear x three
  presets) under MXS, where most host time sits in ``cpu/mxs`` and
  neither the Mipsy tick nor the replay kernel runs.
* ``replay-sweep`` -- four recorded traces swept through the replay
  kernel over every memory kind ``build_memory`` knows, each point at a
  fixed line size and three seeded L2 associativities. The memory system dominates;
  generators and CPU ticks are bypassed. The only workload on
  ``shared-l3`` and ``cluster-l1``.
* ``service-mix`` -- an in-process ``ServiceDaemon`` with one worker,
  driven by one closed-loop client with a seeded mix of fresh,
  cache-warm and repeated test-scale jobs; fresh jobs are one multiprog
  machine under varied memory timing, so they cost alike. The only
  workload on ``serve/*``, the warm worker pool, the result cache and
  result serialization.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.configs import ARCHITECTURES
from repro.core.experiment import ExperimentResult
from repro.core.paper import PAPER_EXPECTATIONS, check_figure
from repro.core.runner import Job, ResultCache, Runner
from repro.trace import TraceStore
from repro.trace.kernel import load_packed

from tracing import Tracer, clock

GOLDENS = Path(__file__).resolve().parent / "goldens"

#: The bench-scale job settings ``scripts/reproduce_all.py`` uses (its
#: ``harness.BENCH_OVERRIDES`` and ``MAX_CYCLES``), copied so that the
#: benchmark's inputs cannot drift with the figure harness.
BENCH_OVERRIDES = {
    "ocean": {"l1d_size": 4096, "l1i_size": 4096, "l2_size": 512 * 1024},
}
MAX_CYCLES = 30_000_000

PAPER_APPS = ("eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "multiprog")
MXS_APPS = ("multiprog", "eqntott", "ear")

#: replay-sweep traces: (workload, CPU count) recorded at bench scale,
#: and the memory kinds each is swept over.
REPLAY_APPS = ("eqntott", "mp3d", "ocean", "multiprog")
REPLAY_KINDS = ("shared-l1", "shared-l2", "shared-mem", "shared-l3")
CLUSTER = ("multiprog", "cluster-l1", 16)
LINE_SIZES = (16, 32, 64)
L2_ASSOCS = (1, 2, 4, 8)

#: service-mix request blocks: one fresh spec, one cache-warm spec and
#: six repeats of earlier specs per eight requests.
SERVICE_BLOCK = ("fresh", "warm") + ("repeat",) * 6
SERVICE_ARCHS = ("shared-l1", "shared-l2", "shared-mem", "shared-l3")
WARM_SPECS = 40
#: requests a service-mix run completes whatever ``--seconds`` says
MIN_REQUESTS = 320
#: daemon worker processes. One client keeps at most one job in flight,
#: so one worker serves it; more clients or workers than the host's
#: few cores made the timings measure GIL hand-offs and the scheduler.
WORKERS = 1
FRESH_MEM_LATENCIES = tuple(range(40, 90, 5))
FRESH_L2_LATENCIES = (8, 9, 10, 11, 12)


def digest(result: ExperimentResult) -> str:
    """SHA-256 of the complete statistics of one run."""
    text = json.dumps(result.stats.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens(name: str) -> dict[str, str]:
    return json.loads((GOLDENS / f"{name}.json").read_text())


@dataclass
class Op:
    """One job or request, as the benchmark observed it."""

    key: str
    #: host seconds from submission to result
    latency: float
    result: ExperimentResult | None = None
    #: True when this op ran a simulation (not served by dedup/cache)
    simulated: bool = True
    #: True when the service absorbed the request into an existing job
    reused: bool = False
    error: str | None = None
    job: Job | None = None

    @property
    def sim_seconds(self) -> float:
        return self.result.wall_seconds

    @property
    def instructions(self) -> int:
        return self.result.stats.instructions


@dataclass
class Measurement:
    ops: list[Op]
    wall: float
    #: per-layer values a scenario reports beside the tracer's
    extra: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# batch scenarios


def _job_key(job: Job) -> str:
    parts = [job.workload_key(), job.arch, job.cpu_model, f"{job.n_cpus}cpu"]
    parts += [f"{k}={job.overrides[k]}" for k in sorted(job.overrides)]
    if job.replay:
        parts.append("replay")
    return "/".join(parts)


class BatchScenario:
    """Jobs run one at a time through ``Runner`` with no result cache."""

    name = ""
    #: passes a run makes whatever ``--seconds`` says: enough measured
    #: work for the run-to-run spread to stay inside the bounds
    min_passes = 1

    def prepare(self, seed: int, work: Path) -> None:
        """Seed the job order; batch inputs need no files."""
        self.rng = random.Random(seed)

    def setup(self, work: Path) -> float:
        """Timed set-up beyond the imports; nothing for generated runs."""
        return 0.0

    def passes(self):
        """Endless iterator of job lists; each is one pass."""
        raise NotImplementedError

    def run_jobs(self, jobs: list[Job], tracer: Tracer | None = None) -> list[Op]:
        runner = Runner(jobs=1)
        ops = []
        for job in jobs:
            started = clock()
            try:
                if tracer is None:
                    report = runner.run([job])
                else:
                    with tracer.span("bench.job"):
                        report = runner.run([job])
            except Exception as error:  # noqa: BLE001 - counted as failed
                ops.append(
                    Op(
                        _job_key(job),
                        clock() - started,
                        error=f"{type(error).__name__}: {error}",
                        job=job,
                    )
                )
                continue
            outcome = report.outcomes[0]
            ops.append(
                Op(
                    _job_key(job),
                    clock() - started,
                    result=outcome.result,
                    error=outcome.error,
                    job=job,
                )
            )
        return ops

    def measure(self, seconds: float) -> Measurement:
        """Whole passes until ``seconds`` have elapsed, and at least
        ``min_passes``."""
        ops: list[Op] = []
        started = clock()
        for number, jobs in enumerate(self.passes(), 1):
            ops += self.run_jobs(jobs)
            if number >= self.min_passes and clock() - started >= seconds:
                break
        return Measurement(ops, clock() - started)

    def traced(
        self, tracer: Tracer, seconds: float
    ) -> tuple[Measurement, Measurement]:
        """One pass untraced, then the same pass traced."""
        jobs = next(iter(self.passes()))
        started = clock()
        plain = Measurement(self.run_jobs(jobs), clock() - started)
        started = clock()
        with tracer.installed(), tracer.span("bench.pass"):
            ops = self.run_jobs(jobs, tracer)
        return plain, Measurement(ops, clock() - started)

    def check(self, ops: list[Op]) -> list[str]:
        """Golden digests; returns one line per wrong or failed op."""
        goldens = load_goldens(self.name)
        problems = []
        for op in ops:
            if op.result is None:
                problems.append(f"{op.key}: failed: {op.error}")
            elif goldens.get(op.key) != digest(op.result):
                problems.append(f"{op.key}: stats differ from the golden")
        return problems

    def paper_failures(self, ops: list[Op]) -> int:
        return 0

    def guards(self, ops: list[Op]) -> list[str]:
        return []

    def close(self) -> None:
        """Release whatever set-up started."""


class PaperScenario(BatchScenario):
    def __init__(
        self, name: str, cpu_model: str, apps: tuple, min_passes: int = 1
    ) -> None:
        self.name = name
        self.cpu_model = cpu_model
        self.apps = apps
        self.min_passes = min_passes

    def jobs(self) -> list[Job]:
        """The figure matrix, in the order reproduce_all builds it."""
        return [
            Job(
                arch=arch,
                workload=app,
                cpu_model=self.cpu_model,
                scale="bench",
                overrides=dict(BENCH_OVERRIDES.get(app, {})),
                max_cycles=MAX_CYCLES,
            )
            for app in self.apps
            for arch in ARCHITECTURES
        ]

    def passes(self):
        while True:
            jobs = self.jobs()
            self.rng.shuffle(jobs)
            yield jobs

    def paper_failures(self, ops: list[Op]) -> int:
        """Failed ``repro.core.paper`` claims over each complete figure."""
        if self.cpu_model != "mipsy":
            return 0
        by_app: dict[str, dict[str, ExperimentResult]] = {}
        for op in ops:
            if op.result is not None:
                by_app.setdefault(op.result.workload, {})[op.result.arch] = (
                    op.result
                )
        failed = 0
        for figure, expectation in PAPER_EXPECTATIONS.items():
            results = by_app.get(expectation.workload, {})
            if len(results) < len(ARCHITECTURES):
                failed += len(expectation.checks)
                continue
            failed += sum(
                not ok for _label, ok, _detail in check_figure(results, figure)
            )
        return failed


class ReplaySweep(BatchScenario):
    name = "replay-sweep"

    def __init__(self) -> None:
        #: seconds each set-up spent recording, and decoding, the traces
        self.record_seconds: list[float] = []
        self.load_seconds: list[float] = []

    def traces(self) -> list[tuple[str, int]]:
        return [(app, 4) for app in REPLAY_APPS] + [(CLUSTER[0], CLUSTER[2])]

    def setup(self, work: Path) -> float:
        """Record every trace into a fresh store and decode it once.

        A sweep pays both only once, so both are set-up; the packed
        decode then comes from ``load_packed``'s in-process memo.
        """
        store = TraceStore(work / "traces")
        started = clock()
        paths = [
            (n_cpus, store.get_or_record(app, "bench", n_cpus))
            for app, n_cpus in self.traces()
        ]
        recorded = clock()
        for n_cpus, path in paths:
            load_packed(n_cpus, path)
        loaded = clock()
        self.record_seconds.append(recorded - started)
        self.load_seconds.append(loaded - recorded)
        self.trace_dir = str(store.root)
        return loaded - started

    def points(self) -> list[tuple[str, str, int, int]]:
        """(workload, kind, CPUs, line size) of every point in a pass.

        Line size sets most of a point's cost, so it is not drawn: the
        sizes are laid out so each trace meets each size across the
        kinds, and every pass costs the same however many a run makes.
        """
        grid = [
            (app, kind, 4, LINE_SIZES[(row + column) % len(LINE_SIZES)])
            for row, app in enumerate(REPLAY_APPS)
            for column, kind in enumerate(REPLAY_KINDS)
        ]
        return grid + [CLUSTER + (LINE_SIZES[1],)]

    def passes(self):
        """Every point at three of the four L2 associativities per pass;
        the seed chooses the one left out and the order of the runs."""
        while True:
            jobs = [
                replay_job(app, kind, n_cpus, line, assoc, self.trace_dir)
                for app, kind, n_cpus, line in self.points()
                for assoc in self.rng.sample(L2_ASSOCS, len(L2_ASSOCS) - 1)
            ]
            self.rng.shuffle(jobs)
            yield jobs

    def guards(self, ops: list[Op]) -> list[str]:
        return [
            f"{op.key}: replay engine {engine!r}, not the kernel"
            for op in ops
            if op.result is not None
            and (engine := op.result.extras.get("replay", {}).get("engine"))
            != "kernel"
        ]


def replay_job(
    app: str, kind: str, n_cpus: int, line: int, assoc: int, trace_dir
) -> Job:
    return Job(
        arch=kind,
        workload=app,
        scale="bench",
        n_cpus=n_cpus,
        overrides={"line_size": line, "l2_assoc": assoc},
        max_cycles=MAX_CYCLES,
        replay=True,
        trace_dir=trace_dir,
    )


# ----------------------------------------------------------------------
# service-mix


def service_pool() -> list[Job]:
    """Specs the warm set is drawn from: test-scale Mipsy jobs of every
    application on every 4-CPU memory kind."""
    return [
        Job(
            arch=arch,
            workload=app,
            scale="test",
            overrides={"line_size": line, "l2_assoc": assoc},
        )
        for app in PAPER_APPS
        for arch in SERVICE_ARCHS
        for line in LINE_SIZES
        for assoc in L2_ASSOCS
    ]


def fresh_pool() -> list[Job]:
    """Specs service-mix simulates: one test-scale multiprog machine
    under varied memory timing.

    Timing parameters change the simulated cycles, not the work, so
    every fresh job costs about the same host time and a run's cost
    does not depend on which of them the seed draws. multiprog is the
    longest test-scale application (about 0.1 s in a worker), so each
    simulation outweighs the wake-ups around it and ``job_p50_s`` stays
    steady.
    """
    return [
        Job(
            arch="shared-l2",
            workload="multiprog",
            scale="test",
            overrides={
                "mem_latency": mem,
                "l2_latency": l2,
                "l2_assoc": assoc,
            },
        )
        for mem in FRESH_MEM_LATENCIES
        for l2 in FRESH_L2_LATENCIES
        for assoc in L2_ASSOCS
    ]


class ServiceMix:
    """One closed-loop client against an in-process ``ServiceDaemon``."""

    name = "service-mix"

    def __init__(self) -> None:
        self.daemon = None

    def prepare(self, seed: int, work: Path) -> None:
        """Draw the warm set and the fresh order; publish the warm set.

        The warm specs are published the way an earlier daemon would
        have left them: ``Job.run`` in-process, then ``ResultCache.put``.
        """
        rng = random.Random(seed)
        self.sequence_seed = rng.random()
        self.work = work
        self.warm = rng.sample(service_pool(), WARM_SPECS)
        self.fresh = fresh_pool()
        rng.shuffle(self.fresh)
        self.reference: dict[str, ExperimentResult] = {}
        self.warm_cache = work / "warm-cache"
        cache = ResultCache(self.warm_cache)
        for job in self.warm:
            result = job.run()
            self.reference[_job_key(job)] = result
            cache.put(job, result)

    def sequence(self):
        """The seeded request stream, endless. Once the fresh specs run
        out (a host several times faster than the one this was tuned
        on), their slots repeat earlier specs instead."""
        rng = random.Random(self.sequence_seed)
        fresh = iter(self.fresh)
        issued: list[Job] = []
        while True:
            block = list(SERVICE_BLOCK)
            rng.shuffle(block)
            if not issued:
                block.remove("fresh")
                block.insert(0, "fresh")
            for kind in block:
                job = None
                if kind == "fresh":
                    job = next(fresh, None)
                elif kind == "warm":
                    job = rng.choice(self.warm)
                if job is None:
                    job = rng.choice(issued)
                issued.append(job)
                yield job

    def _start(self, work: Path):
        from repro.serve import ServiceClient, ServiceDaemon

        cache_dir = work / "cache"
        shutil.copytree(self.warm_cache, cache_dir)
        started = clock()
        daemon = ServiceDaemon(
            port=0, jobs=WORKERS, cache=ResultCache(cache_dir)
        ).start()
        ServiceClient(f"http://127.0.0.1:{daemon.port}").health()
        return daemon, clock() - started

    def setup(self, work: Path) -> float:
        """Start a daemon over a copy of the warm cache; keeps the last.

        Returns the seconds spent starting it (the cache copy is input
        preparation, not set-up).
        """
        self.close()
        self.daemon, seconds = self._start(work)
        return seconds

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.shutdown(grace=30.0)
            self.daemon = None

    def _drive(
        self,
        seconds: float | None,
        limit: int | None,
        tracer: Tracer | None = None,
    ) -> Measurement:
        """Closed loop: the client sends its next request on a result,
        until ``limit`` requests or, past ``MIN_REQUESTS``, ``seconds``."""
        from repro.serve import ServiceClient

        client = ServiceClient(f"http://127.0.0.1:{self.daemon.port}")
        stream = self.sequence()
        ops: list[Op] = []
        started = clock()

        def loop() -> None:
            while limit is None or len(ops) < limit:
                if (
                    seconds is not None
                    and len(ops) >= MIN_REQUESTS
                    and clock() - started >= seconds
                ):
                    return
                ops.append(self._request(client, next(stream), tracer))

        if tracer is None:
            loop()
        else:
            with tracer.span("bench.client"):
                loop()
        return Measurement(
            ops,
            clock() - started,
            extra={"executed": self.daemon.scheduler.executed},
        )

    @staticmethod
    def _request(client, job: Job, tracer: Tracer | None) -> Op:
        started = clock()
        try:
            response = client.submit(job)
            state = None
            if tracer is None:
                for event in client.watch(response["id"]):
                    state = event.get("state", state)
            else:
                with tracer.span("serve.watch"):
                    for event in client.watch(response["id"]):
                        state = event.get("state", state)
            if state not in ("done", "cached"):
                raise RuntimeError(f"request ended {state}")
            result = client.result(response["id"])
        except Exception as error:  # noqa: BLE001 - counted as failed
            return Op(
                _job_key(job),
                clock() - started,
                error=f"{type(error).__name__}: {error}",
                job=job,
            )
        return Op(
            _job_key(job),
            clock() - started,
            result=result,
            simulated=not response["reused"] and state == "done",
            reused=response["reused"],
            job=job,
        )

    def measure(self, seconds: float) -> Measurement:
        return self._drive(seconds, None)

    def traced(
        self, tracer: Tracer, seconds: float
    ) -> tuple[Measurement, Measurement]:
        """The untraced stream, then its first N requests traced
        against a fresh daemon."""
        plain = self.measure(seconds)
        self.close()
        self.daemon, _ = self._start(self.work / "traced")
        with tracer.installed():
            traced = self._drive(None, len(plain.ops), tracer)
        return plain, traced

    def check(self, ops: list[Op]) -> list[str]:
        """Each result equals an in-process ``Job.run`` and its golden."""
        goldens = load_goldens(self.name)
        problems = []
        for op in ops:
            if op.result is None:
                problems.append(f"{op.key}: failed: {op.error}")
                continue
            reference = self.reference.get(op.key)
            if reference is None:
                reference = self.reference[op.key] = op.job.run()
            expected = digest(reference)
            if digest(op.result) != expected:
                problems.append(f"{op.key}: differs from Job.run")
            elif goldens.get(op.key) != expected:
                problems.append(f"{op.key}: stats differ from the golden")
        return problems

    def paper_failures(self, ops: list[Op]) -> int:
        return 0

    def guards(self, ops: list[Op]) -> list[str]:
        return []


SCENARIOS = {
    # One pass is only 11 s (Mipsy) or 16 s (MXS) of host time; two
    # keep the spread inside the bounds on a noisy host.
    "paper-mipsy": lambda: PaperScenario(
        "paper-mipsy", "mipsy", PAPER_APPS, min_passes=2
    ),
    "paper-mxs": lambda: PaperScenario(
        "paper-mxs", "mxs", MXS_APPS, min_passes=2
    ),
    "replay-sweep": ReplaySweep,
    "service-mix": ServiceMix,
}


def percentile(values: list[float], share: float) -> float:
    """Quantile ``share`` of ``values`` as a weighted mean of all the
    order statistics, weighted by the binomial probabilities of
    ``Binomial(n - 1, share)`` (the Bernstein form of the Harrell-Davis
    estimator). Neighbouring values share the weight, so the noise of
    whichever single job sits at the quantile does not set it.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    return sum(
        math.comb(last, index)
        * share**index
        * (1.0 - share) ** (last - index)
        * value
        for index, value in enumerate(ordered)
    )
