"""Per-layer span accounting for the traced benchmark run.

The wrappers live here, in the benchmark, not in the program:
:func:`install` patches public entry points of the simulator with
timing wrappers and returns a callable that restores them. Every wrapped
call records its duration on a per-thread stack, so a layer's *self*
time is its calls' duration minus the part covered by wrapped calls
beneath it. Coarse layers (one call per job, lookup or request) also
keep a span record ``(id, name, start, end, parent)`` in memory; hot
layers (one call per instruction or memory reference) keep only counts
and times, which is what the per-layer metrics need.

Layers and the entry points that feed them:

=====================  ====================================================
``system.build``       ``System.__init__``
``system.run``         ``System.run``
``mipsy.tick``         ``MipsyCpu.tick``
``mxs.tick``           ``MxsCpu.tick``
``workload.build``     the factory ``Job.resolve_factory`` returns
``workload.gen``       each resumption of a ``Workload.program`` generator
``mem.<kind>.access``  ``access`` of the object ``build_memory`` returns
``mem.<kind>.lane``    the closures its ``fast_lanes`` returns
``trace.record``       ``TraceStore.get_or_record``
``trace.load``         ``repro.trace.kernel.load_packed``
``trace.kernel``       ``repro.trace.kernel.replay_kernel``
``runner.cache_get``   ``ResultCache.get`` (a hit is a returned result)
``runner.cache_put``   ``ResultCache.put``
``stats.to_dict``      ``SystemStats.to_dict``
``serve.submit``       ``ServiceClient.submit``
``serve.result``       ``ServiceClient.result``
=====================  ====================================================

``<kind>`` is the module the memory system class lives in
(``shared_l1``, ``shared_l2``, ``shared_mem``, ``shared_l3``,
``cluster``). Spans the benchmark opens itself with :meth:`Tracer.span`
(the pass root, the ``serve.watch`` stream) nest the same way.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

clock = time.perf_counter


class Layer:
    """Accumulated calls, hits and times of one layer."""

    __slots__ = ("calls", "hits", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        #: calls with a useful outcome (lane hits, cache hits, yields)
        self.hits = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span stacks per thread plus the per-layer accumulators."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        #: coarse spans: (id, name, start, end, parent id or None)
        self.spans: list[tuple] = []
        self.origin = clock()
        self._local = threading.local()
        self._lock = threading.Lock()

    def layer(self, name: str) -> Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer()
        return layer

    @contextmanager
    def installed(self):
        """Trace the block: patch every entry point, restore on exit."""
        restore = install(self)
        try:
            yield self
        finally:
            restore()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # -- wrappers -------------------------------------------------------

    def hot(self, name: str, fn, hit=None):
        """Wrap a per-instruction or per-reference callable.

        ``hit`` classifies a return value as a useful outcome. Hot
        layers take no lock: each is driven by one thread at a time.
        """
        layer = self.layer(name)
        local = self._local
        stack_of = self._stack

        def traced(*args):
            try:
                stack = local.stack
            except AttributeError:
                stack = stack_of()
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                layer.calls += 1
                layer.total += elapsed
                layer.self_time += elapsed - frame[0]
            if hit is not None and hit(result):
                layer.hits += 1
            return result

        return traced

    def coarse(self, name: str, fn, hit=None):
        """Wrap a per-job or per-request callable; records a span."""

        def traced(*args, **kwargs):
            with self.span(name) as outcome:
                result = fn(*args, **kwargs)
                if hit is not None and hit(result):
                    outcome.hit = True
                return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Open a span around a block of the benchmark's own code."""
        layer = self.layer(name)
        stack = self._stack()
        parent = stack[-1][1] if stack else None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [0.0, span_id]
        stack.append(frame)
        outcome = _Outcome()
        start = clock()
        try:
            yield outcome
        finally:
            end = clock()
            elapsed = end - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                self.spans[span_id] = (
                    span_id,
                    name,
                    start - self.origin,
                    end - self.origin,
                    parent,
                )
                layer.calls += 1
                layer.hits += outcome.hit
                layer.total += elapsed
                layer.self_time += elapsed - frame[0]


class _Outcome:
    __slots__ = ("hit",)

    def __init__(self) -> None:
        self.hit = False


class _Program:
    """A thread program whose every resumption is a ``workload.gen`` call."""

    __slots__ = ("_next", "_send", "close", "throw")

    def __init__(self, tracer: Tracer, generator) -> None:
        yielded = _always
        self._next = tracer.hot("workload.gen", generator.__next__, yielded)
        self._send = tracer.hot("workload.gen", generator.send, yielded)
        self.close = generator.close
        self.throw = generator.throw

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()

    def send(self, value):
        return self._send(value)


def _always(_result) -> bool:
    # Reached only when the resumption yielded (StopIteration skips it).
    return True


def _lane_hit(latency: int) -> bool:
    return latency >= 0


def _memory_kind(memory) -> str:
    return type(memory).__module__.rsplit(".", 1)[-1]


def install(tracer: Tracer):
    """Patch every traced entry point; returns the undo callable."""
    import repro.core.configs as configs
    import repro.core.system as system_module
    import repro.trace.kernel as kernel
    from repro.core.runner import Job, ResultCache
    from repro.core.system import System
    from repro.cpu.mipsy import MipsyCpu
    from repro.cpu.mxs import MxsCpu
    from repro.serve.client import ServiceClient
    from repro.sim.stats import SystemStats
    from repro.trace.store import TraceStore

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attribute: str, replacement) -> None:
        undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    system_init = System.__init__

    def traced_program(program):
        def build(cpu_id):
            return _Program(tracer, program(cpu_id))

        return build

    def system_build(self, arch, workload, *args, **kwargs):
        workload.program = traced_program(workload.program)
        try:
            system_init(self, arch, workload, *args, **kwargs)
        finally:
            del workload.program

    patch(System, "__init__", tracer.coarse("system.build", system_build))
    patch(System, "run", tracer.coarse("system.run", System.run))
    patch(MipsyCpu, "tick", tracer.hot("mipsy.tick", MipsyCpu.tick))
    patch(MxsCpu, "tick", tracer.hot("mxs.tick", MxsCpu.tick))

    resolve_factory = Job.resolve_factory

    def traced_resolve(self):
        return tracer.coarse("workload.build", resolve_factory(self))

    patch(Job, "resolve_factory", traced_resolve)

    build_memory = configs.build_memory

    def traced_build_memory(*args, **kwargs):
        memory = build_memory(*args, **kwargs)
        prefix = f"mem.{_memory_kind(memory)}"
        memory.access = tracer.hot(f"{prefix}.access", memory.access)
        fast_lanes = memory.fast_lanes

        def traced_lanes(cpu_id):
            return tuple(
                tracer.hot(f"{prefix}.lane", lane, _lane_hit)
                for lane in fast_lanes(cpu_id)
            )

        memory.fast_lanes = traced_lanes
        return memory

    patch(configs, "build_memory", traced_build_memory)
    patch(system_module, "build_memory", traced_build_memory)

    patch(
        TraceStore,
        "get_or_record",
        tracer.coarse("trace.record", TraceStore.get_or_record),
    )
    patch(kernel, "load_packed", tracer.coarse("trace.load", kernel.load_packed))
    patch(
        kernel,
        "replay_kernel",
        tracer.coarse("trace.kernel", kernel.replay_kernel),
    )
    patch(
        ResultCache,
        "get",
        tracer.coarse(
            "runner.cache_get", ResultCache.get, lambda r: r is not None
        ),
    )
    patch(
        ResultCache, "put", tracer.coarse("runner.cache_put", ResultCache.put)
    )
    patch(
        SystemStats,
        "to_dict",
        tracer.coarse("stats.to_dict", SystemStats.to_dict),
    )
    patch(
        ServiceClient,
        "submit",
        tracer.coarse("serve.submit", ServiceClient.submit),
    )
    patch(
        ServiceClient,
        "result",
        tracer.coarse("serve.result", ServiceClient.result),
    )

    def restore() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
        undo.clear()

    return restore


def count_calls(owner, attribute: str, counter: list):
    """Patch ``owner.attribute`` to bump ``counter[0]`` per call.

    The untraced run's path guard: installed on the CPU model a
    workload must never tick, so on the right path it costs nothing.
    Returns the undo callable.
    """
    original = owner.__dict__[attribute]

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    setattr(owner, attribute, counted)

    def restore() -> None:
        setattr(owner, attribute, original)

    return restore
