"""Process-parallel, cache-aware experiment runner.

The paper's evaluation is an embarrassingly parallel matrix — three
architectures x seven workloads x two CPU models, plus ablation sweeps
— and every point is an independent simulation. This module turns that
observation into infrastructure:

* :class:`Job` — a picklable description of one simulation (architecture,
  workload *name*, CPU model, scale, config overrides). Workloads are
  resolved through the :data:`repro.workloads.WORKLOADS` registry on the
  worker side, so a job crosses process boundaries as a few strings and
  ints rather than a live object graph.
* :class:`Runner` — executes a batch of jobs over a
  :class:`RunnerSession` worker pool (``jobs=N``), with a serial
  in-process fallback for ``jobs=1`` (debugging, non-picklable factories)
  that produces bit-identical results.
* :class:`RunnerSession` — the one process pool and crash policy,
  shared by the batch runner and the ``repro serve`` scheduler.
* :class:`ResultCache` — a content-addressed on-disk cache keyed by the
  SHA-256 of the job spec plus a fingerprint of the package source, so
  re-running an unchanged figure is instant and editing the simulator
  invalidates every stale entry.
* :class:`RunReport` — per-job wall times, cache hit/miss counts and
  worker utilization, for the CLI and scripts to surface.

Everything that previously looped ``run_one`` serially —
:func:`repro.core.experiment.run_architecture_comparison`, the sweep
helpers, the benchmark harness, ``scripts/reproduce_all.py`` — now
submits batches here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import repro
from repro.atomic import atomic_path
from repro.core.configs import CpuParams, config_for_scale
from repro.core.experiment import (
    ExperimentResult,
    WorkloadFactory,
    run_one,
)
from repro.errors import ConfigError, JobTimeoutError
from repro.obs import bus as obs_bus
from repro.obs.registry import Registry


#: Verdicts of :meth:`RunnerSession.settle`.
OK = "ok"
RETRY = "retry"
QUARANTINED = "quarantined"
TIMED_OUT = "timed_out"
FAILED = "failed"


def default_jobs() -> int:
    """Worker-count default: every core the host offers."""
    return os.cpu_count() or 1


def default_cache_dir() -> Path:
    """Cache location: ``$REPRO_CACHE_DIR``, else XDG cache dir."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-isca96"


# ----------------------------------------------------------------------
# Job specification


@dataclass
class Job:
    """One simulation, described by value.

    ``workload`` is normally a registry name (a key of
    :data:`repro.workloads.WORKLOADS`, extendable via
    :func:`register_workload`); the factory is looked up *in the worker
    process*, so the spec pickles as plain data. A factory callable is
    also accepted for ad-hoc workloads (tests, notebooks) — it must be
    picklable (module-level) to run under ``jobs > 1``, and such jobs
    hash by the callable's qualified name.

    ``overrides`` are :class:`~repro.mem.hierarchy.MemConfig` field
    overrides, applied on the worker via
    :meth:`~repro.mem.hierarchy.MemConfig.with_overrides` so they are
    re-validated like constructor arguments.

    ``obs_sample`` > 0 attaches observability with that sampling
    interval; the rollup travels back in ``extras["obs"]`` (and through
    the cache — the interval is part of the spec, so observed and
    unobserved runs never share an entry).

    ``replay=True`` routes the job down the trace-replay lane
    (:mod:`repro.trace.backend`): the workload's reference stream is
    recorded once on the fixed reference machine (automatically, into
    the :class:`~repro.trace.store.TraceStore` at ``trace_dir``) and
    re-simulated on this job's architecture/config instead of
    re-executing the generator program. Replayed statistics are a
    *different experiment* from generated ones (timing-dependent
    behaviour is frozen at recording time — see ``docs/REPLAY.md``),
    so ``replay`` is part of :meth:`spec`: a replayed run can never
    hit a generated run's cache entry or vice versa. ``trace_dir``,
    like the result-cache location, is policy and excluded.

    ``timeout_s``, ``ckpt_every`` and ``ckpt_dir`` are *execution
    policy*, not simulation inputs: they change how a run is babysat
    (wall-clock budget, periodic checkpointing for crash recovery), not
    what it computes, so they are excluded from :meth:`spec` and
    :meth:`key` — a checkpointed run shares its cache entry with a
    plain one. With ``ckpt_dir`` set, :meth:`run` automatically resumes
    from the job's latest checkpoint when one exists (a retry after a
    crash picks up mid-run instead of restarting from cycle 0).
    """

    arch: str
    workload: str | WorkloadFactory
    cpu_model: str = "mipsy"
    scale: str = "test"
    n_cpus: int = 4
    overrides: dict = field(default_factory=dict)
    cpu_params: CpuParams | None = None
    max_cycles: int | None = None
    obs_sample: int = 0
    replay: bool = False
    timeout_s: float = 0.0
    ckpt_every: int = 0
    ckpt_dir: str | None = None
    trace_dir: str | None = None

    def workload_key(self) -> str:
        """Stable identity of the workload for hashing and display."""
        if isinstance(self.workload, str):
            return self.workload
        qualname = getattr(self.workload, "__qualname__", None)
        module = getattr(self.workload, "__module__", "?")
        return f"{module}.{qualname or self.workload!r}"

    def resolve_factory(self) -> WorkloadFactory:
        """The workload factory this job runs (registry lookup)."""
        if not isinstance(self.workload, str):
            return self.workload
        from repro.workloads import WORKLOADS

        registry = {**WORKLOADS, **_EXTRA_WORKLOADS}
        try:
            return registry[self.workload]
        except KeyError:
            raise ConfigError(
                f"unknown workload {self.workload!r}; expected one of "
                f"{sorted(registry)}"
            ) from None

    def label(self) -> str:
        """Short human-readable description for progress lines."""
        text = f"{self.workload_key()}/{self.arch}/{self.cpu_model}"
        if self.replay:
            text += " (replay)"
        if self.overrides:
            text += " " + ",".join(
                f"{key}={value}"
                for key, value in sorted(self.overrides.items())
            )
        return text

    def resolve_topology(self):
        """The concrete :class:`~repro.mem.topology.Topology` this job
        simulates (preset resolved against the scaled config)."""
        from repro.core.configs import config_for_scale
        from repro.mem.topology import resolve_topology

        config = config_for_scale(self.scale, self.n_cpus)
        if self.overrides:
            config = config.with_overrides(**self.overrides)
        return resolve_topology(self.arch, config)

    def spec(self) -> dict:
        """The canonical JSON-serializable description of this job.

        The resolved topology is part of the spec: a 16-core
        ``cluster-l1`` run and a 4-core one describe different
        machines, so they can never share a cache entry even though
        the preset name matches.
        """
        topology = self.resolve_topology()
        return {
            "arch": topology.name,
            "topology": topology.to_dict(),
            "workload": self.workload_key(),
            "cpu_model": self.cpu_model,
            "scale": self.scale,
            "n_cpus": self.n_cpus,
            "overrides": {
                key: self.overrides[key] for key in sorted(self.overrides)
            },
            "cpu_params": (
                dataclasses.asdict(self.cpu_params)
                if self.cpu_params is not None
                else None
            ),
            "max_cycles": self.max_cycles,
            "obs_sample": self.obs_sample,
            # Replayed and generated runs are different experiments
            # and must never share a cache entry.
            "backend": "replay" if self.replay else "interpreter",
        }

    def key(self) -> str:
        """Content address: SHA-256 over the spec + code fingerprint."""
        payload = json.dumps(
            {
                "spec": self.spec(),
                "version": repro.__version__,
                "source": _source_fingerprint(),
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def run(
        self,
        obs: "ObsConfig | None" = None,
        resume_from: str | None = None,
    ) -> ExperimentResult:
        """Execute this job in the current process.

        ``obs`` overrides the observability configuration (the CLI's
        in-process ``--events`` path, which needs an output file the
        picklable spec cannot carry); by default ``obs_sample`` > 0
        enables sampling-only observability. ``resume_from`` names an
        explicit checkpoint digest to restore before running; without
        it, a job with ``ckpt_dir`` resumes from its latest checkpoint
        automatically when one exists.
        """
        config = config_for_scale(self.scale, self.n_cpus)
        if self.overrides:
            config = config.with_overrides(**self.overrides)
        if obs is None and self.obs_sample > 0:
            from repro.obs import ObsConfig

            obs = ObsConfig(sample_interval=self.obs_sample)
        ckpt_key = None
        if self.ckpt_dir:
            from repro.ckpt import CheckpointStore

            ckpt_key = self.key()
            if resume_from is None:
                resume_from = CheckpointStore(self.ckpt_dir).latest(
                    ckpt_key
                )
        if self.replay:
            from repro.trace.backend import run_replay

            return run_replay(
                self, config, obs=obs, resume_from=resume_from
            )
        return run_one(
            self.arch,
            self.resolve_factory(),
            cpu_model=self.cpu_model,
            scale=self.scale,
            n_cpus=self.n_cpus,
            mem_config=config,
            cpu_params=self.cpu_params,
            max_cycles=self.max_cycles,
            obs=obs,
            checkpoint_every=self.ckpt_every if self.ckpt_dir else 0,
            checkpoint_dir=self.ckpt_dir,
            checkpoint_key=ckpt_key,
            resume_from=resume_from,
        )


#: Extra workload factories registered at runtime (examples, tests).
_EXTRA_WORKLOADS: dict[str, WorkloadFactory] = {}


def register_workload(name: str, factory: WorkloadFactory) -> None:
    """Register a workload factory under ``name`` for job lookup.

    Lets custom workloads participate in the runner by name. Note that
    registration is per-process: under ``jobs > 1`` the worker resolves
    names against the static registry only, so parallel runs of a
    custom workload should pass the (picklable) factory itself.
    """
    if not name or not isinstance(name, str):
        raise ConfigError("workload name must be a non-empty string")
    _EXTRA_WORKLOADS[name] = factory


#: pids that have announced themselves on the bus (one spawn event per
#: worker process lifetime, however many jobs it executes)
_ANNOUNCED_PIDS: set[int] = set()


def _execute_job(
    job: Job,
    handle: "obs_bus.BusHandle | None" = None,
    attempt: int = 1,
    tag: str | None = None,
) -> ExperimentResult:
    """Module-level trampoline so the pool can pickle the call.

    With a bus ``handle`` (a picklable manager-queue proxy), the worker
    installs it as the process-current emitter — so store-level hooks
    (checkpoint saves, trace records) flow without plumbing — announces
    itself on first use, and brackets the execution in
    ``job.start``/``job.finish`` (or ``job.timeout``/``job.fail``)
    events. Emission is a synchronous RPC into the manager process, so
    everything emitted before a SIGKILL survives the worker.

    ``tag`` is an opaque caller identity (the service layer's job id)
    stamped onto every lifecycle event, so a consumer that knows only
    the tag — the daemon's per-job event stream — can follow this
    execution without parsing labels (two distinct specs can share a
    label; tags are unique).
    """
    if handle is None:
        return _run_with_timeout(job)
    obs_bus.set_current(handle)
    pid = os.getpid()
    if pid != handle.parent_pid and pid not in _ANNOUNCED_PIDS:
        _ANNOUNCED_PIDS.add(pid)
        handle.emit("worker.spawn")
    label = job.label()
    extra = {} if tag is None else {"tag": tag}
    handle.emit("job.start", job=label, attempt=attempt, **extra)
    started = time.perf_counter()
    try:
        result = _run_with_timeout(job)
    except JobTimeoutError as error:
        handle.emit(
            "job.timeout", job=label, attempt=attempt, error=str(error),
            **extra,
        )
        raise
    except Exception as error:
        handle.emit(
            "job.fail",
            job=label,
            attempt=attempt,
            error=f"{type(error).__name__}: {error}",
            **extra,
        )
        raise
    handle.emit(
        "job.finish",
        job=label,
        attempt=attempt,
        wall_seconds=time.perf_counter() - started,
        cycles=result.stats.cycles,
        **extra,
    )
    return result


def _run_with_timeout(job: Job) -> ExperimentResult:
    """Run ``job``, enforcing its wall-clock budget when one is set.

    The budget is enforced with ``SIGALRM`` (an interval timer raising
    :class:`~repro.errors.JobTimeoutError` inside the running
    simulation), which only works on the main thread of a POSIX
    process; elsewhere the job runs unbudgeted rather than failing.
    The previous handler and timer are restored on every exit path, so
    nesting and reuse of the worker process are safe.
    """
    timeout = job.timeout_s
    if (
        not timeout
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return job.run()

    def _expired(signum, frame):
        raise JobTimeoutError(
            f"job {job.label()} exceeded its {timeout:g}s budget"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return job.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_FINGERPRINT: str | None = None


def _source_fingerprint() -> str:
    """Digest of the installed package source (path, size, mtime).

    Part of every cache key: editing any module under ``repro``
    invalidates the whole cache, so a stale entry can never shadow a
    code change — without requiring a version bump per edit.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            stat = path.stat()
            digest.update(
                f"{path.relative_to(root)}:{stat.st_size}:"
                f"{stat.st_mtime_ns}\n".encode("utf-8")
            )
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


# ----------------------------------------------------------------------
# On-disk result cache

try:
    import fcntl as _fcntl
except ImportError:  # pragma: no cover — non-POSIX hosts
    _fcntl = None


@contextmanager
def _publish_lock(path: Path):
    """Advisory per-key lock held across a cache publish.

    Uses ``fcntl.flock`` on a sibling lock file where available and
    degrades to a no-op elsewhere — the atomic rename remains the
    correctness backstop for readers either way.
    """
    if _fcntl is None:
        yield
        return
    try:
        handle = open(path, "w")
    except OSError:
        yield
        return
    try:
        _fcntl.flock(handle, _fcntl.LOCK_EX)
        yield
    finally:
        try:
            _fcntl.flock(handle, _fcntl.LOCK_UN)
        except OSError:
            pass
        handle.close()
        try:
            path.unlink()
        except OSError:
            pass


class ResultCache:
    """Content-addressed store of :class:`ExperimentResult` payloads.

    Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is
    :meth:`Job.key`. Each file holds the job spec (for debuggability)
    and the result's :meth:`~ExperimentResult.to_dict` dump. Entries
    are written atomically (tmp + rename) so concurrent runners sharing
    a cache directory never observe torn files; corrupt or unreadable
    entries are treated as misses and dropped.

    Two further guards harden the daemon path, where many writers and
    readers share one store indefinitely: publishes of the same key are
    serialized by a per-key advisory lock (``fcntl.flock`` where the
    platform has it, a no-op elsewhere), so two workers finishing the
    same simulation can never interleave their tmp-and-rename windows;
    and every read audits the embedded content address against the
    entry's filename, so a torn, truncated or misplaced entry is
    evicted as corrupt rather than returned.

    Every instance counts its own traffic in a
    :class:`~repro.obs.registry.Registry` (``hits``/``misses``/
    ``stores``/``evictions`` plus bytes moved), with or without a bus;
    when a batch bus is current, each operation also lands on it as a
    ``cache.*`` event. The counters feed :meth:`Runner.summary` and
    ``RunReport.to_dict()["result_cache"]``.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.metrics = Registry()

    @property
    def hits(self) -> int:
        return self.metrics.counter("hits").value

    @property
    def misses(self) -> int:
        return self.metrics.counter("misses").value

    @property
    def stores(self) -> int:
        return self.metrics.counter("stores").value

    @property
    def evictions(self) -> int:
        return self.metrics.counter("evictions").value

    def stats(self) -> dict:
        """Counter snapshot for reports and ``bench_runner.json``."""
        return {
            name: counter.value
            for name, counter in sorted(self.metrics.counters.items())
        }

    def path_for(self, job: Job) -> Path:
        """Where ``job``'s result lives (whether or not it exists)."""
        key = job.key()
        return self.root / key[:2] / f"{key}.json"

    def get(self, job: Job) -> ExperimentResult | None:
        """The cached result for ``job``, or ``None`` on a miss."""
        path = self.path_for(job)
        try:
            text = path.read_text()
            payload = json.loads(text)
            # Integrity audit: the entry must claim the content address
            # it is filed under, or it is torn/misplaced — evict it.
            if payload.get("key") != path.stem:
                raise ValueError("content address mismatch")
            result = ExperimentResult.from_dict(payload["result"])
        except FileNotFoundError:
            self.metrics.counter("misses").inc()
            obs_bus.emit("cache.miss", key=path.stem)
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._evict(path)
            self.metrics.counter("misses").inc()
            obs_bus.emit("cache.miss", key=path.stem, corrupt=True)
            return None
        self.metrics.counter("hits").inc()
        self.metrics.counter("bytes_read").inc(len(text))
        obs_bus.emit("cache.hit", key=path.stem, bytes=len(text))
        return result

    def put(self, job: Job, result: ExperimentResult) -> None:
        """Store ``result`` under ``job``'s content address.

        The publish (tmp write + rename) happens under a per-key
        advisory lock so concurrent same-key writers are serialized;
        the rename itself stays atomic, so lockless readers (and
        platforms without ``fcntl``) still never see a torn entry.
        """
        path = self.path_for(job)
        payload = {
            "key": job.key(),
            "spec": job.spec(),
            "version": repro.__version__,
            "result": result.to_dict(),
        }
        text = json.dumps(payload, sort_keys=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        with _publish_lock(path.parent / f".{path.name}.lock"):
            with atomic_path(path) as tmp:
                tmp.write_text(text)
        self.metrics.counter("stores").inc()
        self.metrics.counter("bytes_written").inc(len(text))
        obs_bus.emit("cache.store", key=path.stem, bytes=len(text))

    def disk_stats(self) -> dict:
        """Scan the on-disk store: entry count, bytes, age span.

        Unlike :meth:`stats` (this instance's in-memory traffic
        counters), this inspects the shared directory itself — what
        ``repro cache stats`` surfaces for a store that many runners,
        daemons and CI jobs write to.
        """
        entries = 0
        total_bytes = 0
        oldest: float | None = None
        newest: float | None = None
        for entry in self.root.glob("??/*.json"):
            try:
                stat = entry.stat()
            except OSError:
                continue  # racing eviction
            entries += 1
            total_bytes += stat.st_size
            mtime = stat.st_mtime
            oldest = mtime if oldest is None else min(oldest, mtime)
            newest = mtime if newest is None else max(newest, mtime)
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def _evict(self, path: Path) -> None:
        """Drop a corrupt entry (counted, unlike a plain miss)."""
        self.metrics.counter("evictions").inc()
        obs_bus.emit("cache.evict", key=path.stem)
        self._drop(path)

    @staticmethod
    def _drop(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Runner and telemetry


@dataclass
class JobOutcome:
    """One job's result plus how it was obtained.

    ``result`` is ``None`` when the job failed: ``timed_out`` marks a
    blown wall-clock budget, otherwise ``error`` carries the failure
    text (an exception from the simulation, or quarantine after
    repeated worker crashes). ``attempts`` counts executions including
    retries after crashes.
    """

    job: Job
    result: ExperimentResult | None
    cached: bool = False
    wall_seconds: float = 0.0       # execution time *this* run (0 on hit)
    error: str | None = None
    timed_out: bool = False
    attempts: int = 1

    @property
    def failed(self) -> bool:
        return self.result is None


@dataclass
class RunReport:
    """Telemetry for one :meth:`Runner.run` batch.

    ``outcomes`` preserves submission order regardless of completion
    order, so callers can zip it back against their job list.
    """

    outcomes: list[JobOutcome] = field(default_factory=list)
    workers: int = 1
    total_wall: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    worker_crashes: int = 0
    #: ResultCache counter snapshot (hits/misses/stores/evictions/bytes)
    #: when the batch ran with a cache attached
    cache_stats: dict | None = None
    #: event-bus rollup (event counts by kind, worker count, log path)
    #: when the batch ran with telemetry on
    telemetry: dict | None = None

    @property
    def results(self) -> list[ExperimentResult]:
        return [
            outcome.result
            for outcome in self.outcomes
            if outcome.result is not None
        ]

    @property
    def failures(self) -> list[JobOutcome]:
        """Outcomes that produced no result (errors and timeouts)."""
        return [o for o in self.outcomes if o.result is None]

    @property
    def busy_seconds(self) -> float:
        """Total simulation time across all workers."""
        return sum(outcome.wall_seconds for outcome in self.outcomes)

    def utilization(self) -> float:
        """Busy fraction of the worker pool over the batch wall time."""
        if self.total_wall <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.workers * self.total_wall))

    def summary(self) -> str:
        """One-line account of the batch for logs and the CLI."""
        executed = len(self.outcomes) - self.cache_hits
        parts = [
            f"{len(self.outcomes)} job(s) in {self.total_wall:.1f}s "
            f"on {self.workers} worker(s)"
        ]
        parts.append(f"{executed} run, {self.cache_hits} cached")
        failed = self.failures
        if failed:
            timeouts = sum(1 for o in failed if o.timed_out)
            parts.append(f"{len(failed)} failed ({timeouts} timed out)")
        if self.worker_crashes:
            parts.append(f"{self.worker_crashes} worker crash(es)")
        if executed:
            parts.append(f"{100 * self.utilization():.0f}% utilization")
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """JSON-serializable telemetry (perf baselines, dashboards)."""
        per_job = []
        for outcome in self.outcomes:
            result = outcome.result
            entry = {
                "label": outcome.job.label(),
                "backend": (
                    "replay" if outcome.job.replay else "interpreter"
                ),
                "wall_seconds": outcome.wall_seconds,
                "cached": outcome.cached,
                "cycles": result.stats.cycles if result else None,
                # Simulation speed; None for cache hits (no host
                # time was spent simulating this run) and failures.
                "cycles_per_host_second": (
                    result.stats.cycles / outcome.wall_seconds
                    if result is not None and outcome.wall_seconds > 0
                    else None
                ),
                "error": outcome.error,
                "timed_out": outcome.timed_out,
                "attempts": outcome.attempts,
            }
            obs = result.extras.get("obs") if result is not None else None
            if obs:
                # Sampled-utilization rollup for observed jobs (mean /
                # max per series; the series themselves stay in the
                # result's extras).
                entry["obs"] = {
                    "sample_interval": obs.get("sample_interval"),
                    "samples": obs.get("samples"),
                    "utilization": obs.get("utilization", {}),
                }
            per_job.append(entry)
        out = {
            "jobs": len(self.outcomes),
            "workers": self.workers,
            "total_wall": self.total_wall,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "failures": len(self.failures),
            "worker_crashes": self.worker_crashes,
            "per_job": per_job,
        }
        if self.cache_stats is not None:
            out["result_cache"] = dict(self.cache_stats)
        if self.telemetry is not None:
            out["telemetry"] = dict(self.telemetry)
        return out


class BatchManifest:
    """On-disk record of which jobs of a batch have completed.

    One JSON file mapping :meth:`Job.key` to the finished result
    payload. The runner records every success as it lands (atomic
    tmp + rename per update, so a kill mid-batch leaves a readable
    manifest), and the pre-pass skips jobs already present — this is
    what ``scripts/reproduce_all.py --resume`` builds on. Keys include
    the package source fingerprint, so a manifest written by different
    code never satisfies a resume.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: dict[str, dict] = {}
        self.telemetry: dict | None = None
        try:
            payload = json.loads(self.path.read_text())
            entries = payload.get("jobs", {})
            if isinstance(entries, dict):
                self._entries = entries
            telemetry = payload.get("telemetry")
            if isinstance(telemetry, dict):
                self.telemetry = telemetry
        except (OSError, ValueError):
            # Missing or unreadable manifest: treat as empty rather than
            # failing the batch; completed work is re-run, never lost.
            pass

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, job: Job) -> ExperimentResult | None:
        """The recorded result for ``job``, or ``None``."""
        entry = self._entries.get(job.key())
        if entry is None:
            return None
        try:
            return ExperimentResult.from_dict(entry["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def record(self, job: Job, result: ExperimentResult) -> None:
        """Persist ``job``'s completion (atomic incremental write)."""
        self._entries[job.key()] = {
            "label": job.label(),
            "result": result.to_dict(),
        }
        self._write()

    def record_telemetry(self, rollup: dict) -> None:
        """Persist the batch's telemetry rollup alongside its jobs."""
        self.telemetry = rollup
        self._write()

    def _write(self) -> None:
        payload = {"version": repro.__version__, "jobs": self._entries}
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        with atomic_path(self.path) as tmp:
            tmp.write_text(json.dumps(payload, sort_keys=True))


class Runner:
    """Executes :class:`Job` batches, in-process or over a process pool.

    ``jobs`` is the worker count (default: all cores). ``jobs=1`` runs
    every job serially in the calling process — no pickling, easy
    breakpoints — and is guaranteed to produce the same statistics as
    the parallel path (the simulations are deterministic and share no
    state).

    ``cache`` is an optional :class:`ResultCache`; pass one to make
    re-runs of unchanged jobs instant. The library default is *no*
    caching — the CLI and scripts opt in explicitly.

    ``progress`` is an optional callable receiving one line per job
    event (completion, cache hit, failure, or worker crash).

    ``manifest`` is an optional :class:`BatchManifest`: completed jobs
    are recorded as they land, and jobs already in the manifest are
    skipped (reported as cached) — the resumable-batch layer.

    Fault tolerance: ``jobs > 1`` runs on a :class:`RunnerSession`,
    the crash policy ``repro serve`` uses too. A worker killed mid-job
    (OOM killer, node preemption) breaks the pool; every job that was
    in flight is retried at most ``max_retries`` times, ahead of jobs
    not yet dispatched (which are never charged for the crash). With
    ``ckpt_dir`` set on the jobs, each retry resumes from the job's
    last checkpoint. A job still crashing after its retries is
    quarantined: recorded as a failed :class:`JobOutcome` so the rest
    of the batch completes.
    Timeouts are terminal (a retry would time out again); other
    exceptions from a parallel run are recorded as failures, while the
    serial path re-raises them (debugging-friendly, and the historical
    contract).

    ``bus`` is an optional started :class:`~repro.obs.bus.EventBus`:
    with one attached, the batch emits the full fleet event stream
    (job/worker/pool lifecycle from the runner and its workers,
    ``cache.*``/``ckpt.*``/``trace.*`` from the instrumented stores)
    and the report carries the bus rollup. Without one — the default —
    not a single event object is constructed.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        progress: Callable[[str], None] | None = None,
        manifest: BatchManifest | None = None,
        max_retries: int = 2,
        bus: "obs_bus.EventBus | None" = None,
    ) -> None:
        requested = default_jobs() if jobs is None else jobs
        if requested < 1:
            raise ConfigError("runner needs at least one worker")
        if max_retries < 0:
            raise ConfigError("max_retries cannot be negative")
        self.n_jobs = requested
        self.cache = cache
        self.progress = progress
        self.manifest = manifest
        self.max_retries = max_retries
        self.bus = bus
        self.last_report: RunReport | None = None

    def _tick(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def summary(self) -> str:
        """One-line account of the last batch, with cache counters."""
        if self.last_report is None:
            return "no batch has run"
        text = self.last_report.summary()
        if self.cache is not None:
            text += (
                f"; result cache: {self.cache.hits} hit(s), "
                f"{self.cache.misses} miss(es), "
                f"{self.cache.stores} store(s)"
            )
        return text

    def session(self) -> "RunnerSession":
        """Open a persistent warm pool for incremental submission.

        :meth:`run` drives one for each parallel batch; a long-lived
        caller (the ``repro serve`` daemon) keeps one open, submits jobs
        one at a time against workers that stay warm between them, and
        settles each result independently. See :class:`RunnerSession`.
        """
        return RunnerSession(self)

    def run(self, batch: Sequence[Job]) -> RunReport:
        """Execute ``batch``; returns outcomes in submission order."""
        batch = list(batch)
        handle = self.bus.handle() if self.bus is not None else None
        previous_handle = None
        if handle is not None:
            # Current-handle for the parent process: store hooks that
            # fire here (cache pre-pass gets, cache puts on completion)
            # reach the bus without explicit plumbing.
            previous_handle = obs_bus.set_current(handle)
            handle.emit("batch.start", jobs=len(batch))
        report: RunReport | None = None
        try:
            report = self._run_batch(batch, handle)
        finally:
            if handle is not None:
                fields = {"jobs": len(batch)}
                if report is not None:
                    fields["failures"] = len(report.failures)
                handle.emit("batch.end", **fields)
                self.bus.flush()
                obs_bus.set_current(previous_handle)
        if self.bus is not None:
            report.telemetry = self.bus.rollup()
        return report

    def _run_batch(
        self,
        batch: list[Job],
        handle: "obs_bus.BusHandle | None",
    ) -> RunReport:
        started = time.perf_counter()
        outcomes: list[JobOutcome | None] = [None] * len(batch)

        pending: list[tuple[int, Job]] = []
        hits = 0
        for index, job in enumerate(batch):
            done = self.manifest.get(job) if self.manifest else None
            if done is not None:
                hits += 1
                outcomes[index] = JobOutcome(job, done, cached=True)
                if handle is not None:
                    handle.emit(
                        "job.cached", job=job.label(), source="manifest"
                    )
                self._tick(f"[manifest] {job.label()}")
                continue
            cached = self.cache.get(job) if self.cache else None
            if cached is not None:
                hits += 1
                outcomes[index] = JobOutcome(job, cached, cached=True)
                if self.manifest is not None:
                    self.manifest.record(job, cached)
                if handle is not None:
                    handle.emit(
                        "job.cached", job=job.label(), source="cache"
                    )
                self._tick(f"[cache] {job.label()}")
            else:
                pending.append((index, job))

        workers = min(self.n_jobs, len(pending)) if pending else 1
        crashes = 0
        if workers <= 1:
            for index, job in pending:
                try:
                    result = _execute_job(job, handle)
                except JobTimeoutError as error:
                    outcomes[index] = self._fail(
                        job, str(error), timed_out=True
                    )
                else:
                    outcomes[index] = self._finish(job, result)
        else:
            crashes = self._run_pool(pending, workers, outcomes)

        report = RunReport(
            outcomes=[outcome for outcome in outcomes if outcome is not None],
            workers=workers,
            total_wall=time.perf_counter() - started,
            cache_hits=hits,
            cache_misses=len(pending) if self.cache else 0,
            worker_crashes=crashes,
            cache_stats=self.cache.stats() if self.cache else None,
        )
        self.last_report = report
        return report

    def _run_pool(
        self,
        pending: list[tuple[int, Job]],
        workers: int,
        outcomes: list[JobOutcome | None],
    ) -> int:
        """Parallel execution over a session; returns the crash count.

        At most ``workers`` jobs are in flight, in batch order. After a
        crash, every future of the dead pool is settled before anything
        is dispatched again, and retries re-enter ahead of every job
        not yet dispatched (the serve queue's order).
        """
        session = self.session()
        session.workers = workers  # no idle workers for a short batch
        # A heap on batch index: (index, attempts so far, job).
        queue = [(index, 0, job) for index, job in pending]
        inflight: dict[Future, tuple[int, int, Job, int]] = {}
        try:
            while queue or inflight:
                current = session.generation
                if all(gen == current for *_, gen in inflight.values()):
                    while queue and len(inflight) < workers:
                        index, tries, job = heapq.heappop(queue)
                        future, generation = session.submit(
                            job, attempt=tries + 1
                        )
                        inflight[future] = (index, tries + 1, job, generation)
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    index, tries, job, generation = inflight.pop(future)
                    verdict, value = session.settle(
                        future, generation, tries
                    )
                    label = job.label()
                    if verdict == RETRY:
                        session.emit("job.retry", job=label, attempt=tries + 1)
                        self._tick(f"[retry] {label}")
                        heapq.heappush(queue, (index, tries, job))
                    elif verdict == OK:
                        outcomes[index] = self._finish(job, value, tries)
                    else:
                        if verdict == QUARANTINED:
                            session.emit(
                                "job.quarantined", job=label, attempts=tries
                            )
                        outcomes[index] = self._fail(
                            job, value, attempts=tries,
                            timed_out=verdict == TIMED_OUT,
                        )
        finally:
            session.close()
        return session.generation

    def _finish(
        self,
        job: Job,
        result: ExperimentResult,
        attempts: int = 1,
    ) -> JobOutcome:
        if self.cache is not None:
            self.cache.put(job, result)
        if self.manifest is not None:
            self.manifest.record(job, result)
        self._tick(f"[{result.wall_seconds:5.1f}s] {job.label()}")
        return JobOutcome(
            job,
            result,
            wall_seconds=result.wall_seconds,
            attempts=attempts,
        )

    def _fail(
        self,
        job: Job,
        error: str,
        timed_out: bool = False,
        attempts: int = 1,
    ) -> JobOutcome:
        self._tick(
            f"[{'timeout' if timed_out else 'failed'}] {job.label()}: "
            f"{error}"
        )
        return JobOutcome(
            job,
            None,
            error=error,
            timed_out=timed_out,
            attempts=attempts,
        )


class RunnerSession:
    """Persistent warm worker pool and the one crash policy over it.

    The only place that builds a process pool; the batch
    :meth:`Runner.run` and the ``repro serve`` scheduler are its
    clients. ``submit`` returns a ``concurrent.futures.Future`` plus
    the pool *generation* it was submitted against, and :meth:`settle`
    turns the finished future into a verdict. Each client bounds its
    own in-flight work, so a crash hits only dispatched jobs.

    A SIGKILLed worker breaks the whole executor, failing every
    in-flight future with ``BrokenProcessPool``; settling the first of
    them rebuilds the pool, the rest carry the same stale generation.
    A crashed job is retried while its attempt count is within
    ``runner.max_retries`` and quarantined after. With a bus attached,
    submitted jobs emit the same ``job.*``/``worker.*`` lifecycle
    events batch jobs do.
    """

    def __init__(self, runner: "Runner") -> None:
        self.runner = runner
        self.workers = runner.n_jobs
        self._handle = (
            runner.bus.handle() if runner.bus is not None else None
        )
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._generation = 0
        self._closed = False

    @property
    def generation(self) -> int:
        """Monotonic pool incarnation: the number of rebuilds so far."""
        with self._lock:
            return self._generation

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Build the executor lazily (caller holds the lock)."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def submit(
        self,
        job: Job,
        attempt: int = 1,
        tag: str | None = None,
    ) -> tuple[Future, int]:
        """Queue ``job`` on the warm pool.

        Returns ``(future, generation)``; pass both to :meth:`settle`
        once the future is done. ``attempt`` and ``tag`` are forwarded
        to the telemetry events.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("RunnerSession is closed")
            try:
                future = self._ensure_pool().submit(
                    _execute_job, job, self._handle, attempt, tag
                )
            except BrokenProcessPool:
                # The pool broke since the last settle; replace it and
                # submit into the fresh one.
                self._rebuild_locked()
                future = self._ensure_pool().submit(
                    _execute_job, job, self._handle, attempt, tag
                )
            return future, self._generation

    def settle(
        self, future: Future, generation: int, attempts: int
    ) -> tuple[str, "ExperimentResult | str | None"]:
        """Sort a finished future into ``(verdict, value)``.

        ``(OK, result)``, or ``(RETRY, None)`` for a crash with
        ``attempts`` within the retry budget (or a future a shutdown
        cancelled before it ran), else ``(QUARANTINED | TIMED_OUT |
        FAILED, error text)``. A crash first rebuilds the pool of
        ``generation`` (the one :meth:`submit` returned).
        """
        try:
            return OK, future.result()
        except BrokenProcessPool:
            self.rebuild(generation)
            if attempts > self.runner.max_retries:
                return QUARANTINED, (
                    f"quarantined after {attempts} crashed attempt(s)"
                )
            return RETRY, None
        except CancelledError:
            return RETRY, None
        except JobTimeoutError as error:
            return TIMED_OUT, str(error)
        except Exception as error:  # noqa: BLE001
            return FAILED, f"{type(error).__name__}: {error}"

    def rebuild(self, generation: int) -> bool:
        """Replace the pool if ``generation`` is still the current one.

        Returns ``True`` when this call performed the rebuild (and
        emitted its ``worker.death``/``pool.rebuild`` pair). Stale
        generations (another settle already rebuilt) and closed
        sessions return ``False``.
        """
        with self._lock:
            if self._closed or generation != self._generation:
                return False
            self._rebuild_locked()
            return True

    def _rebuild_locked(self) -> None:
        """Drop the broken pool (the next :meth:`submit` builds one).

        The bus is drained first, so the dead pool's events precede the
        ``worker.death``/``pool.rebuild`` pair; the held lock keeps the
        next pool's events after it."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._generation += 1
        if self.runner.bus is not None:
            self.runner.bus.flush()
        self.emit("worker.death", generation=self._generation - 1)
        self.emit("pool.rebuild", generation=self._generation)

    def emit(self, kind: str, **fields) -> None:
        """Parent-side event on the runner's bus (no-op without one)."""
        if self._handle is not None:
            self._handle.emit(kind, **fields)

    def pids(self) -> list[int]:
        """Live worker process ids (ops introspection, fault tests)."""
        with self._lock:
            if self._pool is None:
                return []
            processes = getattr(self._pool, "_processes", None) or {}
            return list(processes.keys())

    def close(self, force: bool = False) -> None:
        """Shut the pool down.

        ``force=True`` SIGKILLs the workers instead of waiting for
        in-flight jobs — the daemon's hard-shutdown path, where
        unfinished jobs are persisted to a queue manifest and re-run
        (resuming from their checkpoints) on the next start.
        """
        victims = self.pids() if force else []
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is None:
            return
        pool.shutdown(wait=not force, cancel_futures=force)
        for pid in victims:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass


def run_jobs(
    batch: Sequence[Job],
    jobs: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable[[str], None] | None = None,
    manifest: BatchManifest | None = None,
    bus: "obs_bus.EventBus | None" = None,
) -> RunReport:
    """One-shot convenience wrapper around :class:`Runner`."""
    return Runner(
        jobs=jobs,
        cache=cache,
        progress=progress,
        manifest=manifest,
        bus=bus,
    ).run(batch)
