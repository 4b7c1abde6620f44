"""Dispatch loop between the service queue and the warm worker pool.

The :class:`Scheduler` owns one dispatcher thread and one
:class:`~repro.core.runner.RunnerSession`. The thread claims the
highest-priority queued record, serves it straight from the
content-addressed :class:`ResultCache` when possible (``job.cached``
on the bus, no worker touched), and otherwise dispatches it to the
warm pool under a bounded-slot semaphore — at most ``runner.n_jobs``
simulations in flight, however fast clients submit.

Completions are handled on executor callback threads by the crash
policy the batch :class:`~repro.core.runner.Runner` uses too:
``RunnerSession.settle`` sorts each finished future into ok / retry /
quarantined / timed out / failed, rebuilding the pool when a SIGKILLed
worker broke it; a retried record keeps its queue position and attempt
count. The scheduler adds only the service's rules: a record with
``cancel_requested`` set has its result discarded and lands as
``cancelled`` (process workers are never interrupted mid-simulation,
because killing one would break the pool for innocent neighbours), and
a crash during shutdown re-queues the record for the manifest.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, wait

from repro.core.runner import OK, QUARANTINED, RETRY, TIMED_OUT, Runner
from repro.serve.queue import JobQueue, JobRecord


class Scheduler:
    """Moves jobs from a :class:`JobQueue` through a warm worker pool."""

    def __init__(self, runner: Runner, queue: JobQueue) -> None:
        self.runner = runner
        self.queue = queue
        self.session = runner.session()
        self._slots = threading.BoundedSemaphore(runner.n_jobs)
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self._executed = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-dispatch", daemon=True
        )

    @property
    def executed(self) -> int:
        """Simulations actually run to completion (dedup/cache skip
        neither submits nor increments this — the test hook proving
        identical specs simulated exactly once)."""
        with self._lock:
            return self._executed

    def inflight(self) -> int:
        """Jobs currently dispatched to the pool."""
        with self._lock:
            return len(self._inflight)

    def start(self) -> None:
        """Start the dispatcher thread."""
        self._thread.start()

    def _emit(self, kind: str, record: JobRecord, **fields) -> None:
        self.session.emit(
            kind, job=record.job.label(), tag=record.id, **fields
        )

    # -- dispatch side --------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            record = self.queue.claim(timeout=0.2)
            if record is None:
                continue
            if self._stop.is_set():
                self.queue.requeue(record)
                return
            self._dispatch(record)

    def _dispatch(self, record: JobRecord) -> None:
        # Cache pre-pass before consuming a worker slot: a second
        # daemon sharing the cache directory (or a restart) may have
        # published the result since this record was submitted.
        cache = self.runner.cache
        if cache is not None and not record.cancel_requested:
            result = cache.get(record.job)
            if result is not None:
                self.queue.finish(record, result, cached=True)
                self._emit("job.cached", record, source="dispatch")
                return
        while not self._slots.acquire(timeout=0.2):
            if self._stop.is_set():
                self.queue.requeue(record)
                return
        if not self.queue.mark_running(record):
            # Cancelled (or otherwise moved on) between claim and
            # dispatch — drop the slot and the record.
            self._slots.release()
            return
        try:
            future, generation = self.session.submit(
                record.job, attempt=record.attempts, tag=record.id
            )
        except RuntimeError:
            # Session closed under us (shutdown): roll the record back
            # so the queue manifest captures it.
            self.queue.requeue(record)
            self._slots.release()
            return
        with self._lock:
            self._inflight[record.id] = future
        future.add_done_callback(
            lambda f, r=record, g=generation: self._complete(r, g, f)
        )

    # -- completion side ------------------------------------------------

    def _complete(
        self, record: JobRecord, generation: int, future: Future
    ) -> None:
        try:
            verdict, value = self.session.settle(
                future, generation, record.attempts
            )
            if verdict in (RETRY, QUARANTINED):
                self._crashed(record, verdict, value)
            elif verdict != OK:
                self.queue.fail(
                    record, value, timed_out=verdict == TIMED_OUT
                )
            else:
                if record.cancel_requested:
                    # The simulation ran to completion but the client
                    # withdrew the request: discard, do not publish.
                    self.queue.mark_cancelled(record)
                    self._emit("job.cancelled", record, discarded=True)
                else:
                    if self.runner.cache is not None:
                        self.runner.cache.put(record.job, value)
                    self.queue.finish(record, value)
                with self._lock:
                    self._executed += 1
        finally:
            with self._lock:
                self._inflight.pop(record.id, None)
            self._slots.release()

    def _crashed(
        self, record: JobRecord, verdict: str, error: str | None
    ) -> None:
        """The job's worker died (or shutdown cancelled it): requeue,
        cancel, quarantine or retry."""
        if self._stop.is_set():
            self.queue.requeue(record)
        elif record.cancel_requested:
            self.queue.mark_cancelled(record)
            self._emit("job.cancelled", record, crashed=True)
        elif verdict == QUARANTINED:
            self._emit(
                "job.quarantined", record, attempts=record.attempts
            )
            self.queue.fail(record, error, quarantined=True)
        else:
            self._emit("job.retry", record, attempt=record.attempts + 1)
            self.queue.requeue(record)

    # -- shutdown -------------------------------------------------------

    def stop(self, timeout: float = 10.0, force: bool = True) -> None:
        """Stop dispatching and tear the pool down.

        With ``force=True`` the session is closed first — SIGKILLing
        any workers still simulating, which settles their futures with
        ``BrokenProcessPool`` and rolls the records back to ``queued``
        (so the shutdown manifest captures them; checkpoint auto-resume
        makes the re-run cheap). With ``force=False`` in-flight work is
        allowed up to ``timeout`` seconds to land first.
        """
        self._stop.set()
        # The 0.2 s claim()/acquire() timeouts bound how long the
        # dispatcher takes to notice the stop flag.
        if self._thread.is_alive():
            self._thread.join(timeout=max(1.0, timeout))
        if force:
            self.session.close(force=True)
        with self._lock:
            inflight = list(self._inflight.values())
        wait(inflight, timeout=timeout)
        self.session.close(force=force)
