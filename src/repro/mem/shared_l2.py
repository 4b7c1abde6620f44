"""The shared-L2 (shared secondary cache) architecture — paper Section 2.3.

Each CPU keeps a private, single-cycle, *write-through* L1 pair; all
four share a 4-banked write-back L2 behind a crossbar chip. The
crossbar and extra die crossings raise the L2 latency from 10 to 14
cycles, and its 64-bit datapath doubles the per-line occupancy from 2
to 4 cycles.

Coherence is the simple directory scheme the paper describes: every L2
line has a directory entry naming the L1s that hold a copy; a write (as
it drains through the write buffer into the L2) or an L2 replacement
invalidates the other copies. Stores release the CPU in one cycle while
a per-CPU write buffer drains them into the L2 banks — the resulting
port contention between write traffic and L1 miss refills is exactly
the effect the paper blames for this architecture's loss on the OS
workload.

The class is built from the topology spec: private write-through
levels (``l1d`` plus any further private levels) over one shared,
banked, write-back level with the directory. With a private L2 per CPU
over a shared L3 it is the 3D-stacked ``shared-l3`` point (arXiv
2504.19984): the directory then names the CPUs whose private levels
hold a copy, and an invalidation drops the line from all of them (the
private hierarchy is clean by construction, so that is a pure tag
operation).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.mem.bank import Resource
from repro.mem.cache import MODIFIED, SHARED, CacheArray
from repro.mem.coherence.directory import Directory
from repro.mem.crossbar import make_crossbar
from repro.mem.hierarchy import MemConfig, MemorySystem, count_miss
from repro.mem.mainmem import MainMemory
from repro.mem.topology import Topology, resolve_topology
from repro.mem.types import AccessResult, StallLevel
from repro.mem.writebuffer import WriteBuffer
from repro.sim.stats import SystemStats


class SharedL2System(MemorySystem):
    """Private write-through levels over a shared, banked, write-back
    level with a directory."""

    name = "shared-l2"

    def __init__(
        self,
        config: MemConfig,
        stats: SystemStats,
        topology: Topology | None = None,
    ) -> None:
        super().__init__(config, stats)
        if topology is None:
            topology = resolve_topology(self.name, config)
        self.topology = topology
        self.name = topology.name
        l1_level, *private_levels, shared_level = topology.levels
        if private_levels and config.l1_coherence != "invalidate":
            raise ConfigError(
                f"topology {topology.name!r}: write-update coherence "
                "refreshes L1 copies only; a private level below the L1 "
                "needs l1_coherence='invalidate'"
            )
        line = config.line_size
        n_cpus = config.n_cpus
        self.l1i = [
            CacheArray(f"cpu{i}.l1i", config.l1i_size, config.l1i_assoc, line)
            for i in range(n_cpus)
        ]
        self._l1i_stats = [stats.cache(f"cpu{i}.l1i") for i in range(n_cpus)]
        self.l1d = [
            CacheArray(f"cpu{i}.l1d", l1_level.size, l1_level.assoc, line)
            for i in range(n_cpus)
        ]
        self._l1d_stats = [stats.cache(f"cpu{i}.l1d") for i in range(n_cpus)]
        # Private write-through levels below the L1, outermost last;
        # each is indexed [level][cpu] and reached through a per-CPU
        # port that its latency is paid behind.
        self.private = []
        self._private_stats = []
        self.private_ports = []
        self._private_latency = []
        self._private_occupancy = []
        for level in private_levels:
            name = level.name
            self.private.append([
                CacheArray(f"cpu{i}.{name}", level.size, level.assoc, line)
                for i in range(n_cpus)
            ])
            self._private_stats.append(
                [stats.cache(f"cpu{i}.{name}") for i in range(n_cpus)]
            )
            self.private_ports.append(
                [Resource(f"cpu{i}.{name}.port") for i in range(n_cpus)]
            )
            self._private_latency.append(level.latency)
            self._private_occupancy.append(level.occupancy)
        shared = shared_level.name
        self.shared = CacheArray(
            f"shared.{shared}", shared_level.size, shared_level.assoc, line
        )
        self._shared_stats = stats.cache(f"shared.{shared}")
        self.crossbar = make_crossbar(
            f"{shared}.xbar", shared_level, topology.interconnect, line, n_cpus
        )
        self.directory = Directory()
        self.mem = MainMemory(
            config.mem_latency,
            config.mem_occupancy,
            config.n_mem_banks,
            line,
        )
        # Per-CPU write buffers draining into the shared banks.
        self._write_buffers = [
            WriteBuffer(config.write_buffer_depth) for _ in range(n_cpus)
        ]
        self._line_shift = self.shared.line_shift
        self._build_lanes()

    def attach_obs(self, obs) -> None:
        """Wire the shared-level crossbar for conflict events."""
        super().attach_obs(obs)
        self.crossbar.obs = obs

    def obs_probes(self) -> list[tuple]:
        """Crossbar grants/conflicts, per-bank busy, per-CPU port busy,
        memory busy and write-buffer fill."""
        shared = self.topology.levels[-1].name
        probes: list[tuple] = [
            ("rate", f"{shared}.xbar.grants", lambda: self.crossbar.requests),
            (
                "rate",
                f"{shared}.xbar.conflict",
                lambda: self.crossbar.wait_cycles,
            ),
            ("rate", "mem.busy", lambda: self.mem.banks.busy_cycles),
        ]
        for index, bank in enumerate(self.crossbar.banks.banks):
            probes.append(
                (
                    "rate",
                    f"{shared}.bank{index}.busy",
                    lambda b=bank: b.busy_cycles,
                )
            )
        # The per-CPU port a refill enters first: the private levels'
        # ports, or the crossbar's when the L1 sits right on it.
        if self.private_ports:
            for level, ports in zip(
                self.topology.levels[1:-1], self.private_ports
            ):
                for index, port in enumerate(ports):
                    probes.append(
                        (
                            "rate",
                            f"cpu{index}.{level.name}.busy",
                            lambda p=port: p.busy_cycles,
                        )
                    )
        else:
            for index, port in enumerate(self.crossbar.ports):
                probes.append(
                    (
                        "rate",
                        f"{shared}.port{index}.busy",
                        lambda p=port: p.busy_cycles,
                    )
                )
        for index, buffer in enumerate(self._write_buffers):
            probes.append(
                ("gauge", f"cpu{index}.wb", lambda b=buffer: b.occupancy)
            )
        return probes

    def resource_report(self, cycles: int) -> dict[str, float]:
        """Busy fractions of the crossbar ports, shared banks, private
        level ports and memory."""
        shared = self.topology.levels[-1].name
        report = {
            "memory": self.mem.banks.busy_cycles / cycles if cycles else 0.0,
        }
        for index, port in enumerate(self.crossbar.ports):
            report[f"{shared}.port{index}"] = port.utilization(cycles)
        for index, bank in enumerate(self.crossbar.banks.banks):
            report[f"{shared}.bank{index}"] = bank.utilization(cycles)
        for ports in self.private_ports:
            for port in ports:
                report[port.name] = port.utilization(cycles)
        return report

    # ------------------------------------------------------------------
    # Fast lanes. Loads resolve single-cycle private L1 hits (a miss
    # returns -1 untouched and the general path re-probes — a missing
    # probe does not mutate, so the double probe is invisible). The
    # *store* lane covers the whole write-through path for posted
    # value-less stores — private-level touches, buffer admission,
    # shared-level drain, directory invalidations — because under
    # write-through every store takes it; it must mirror
    # _store(posted=True) exactly (the differential suite runs with the
    # lane off and asserts identical stats). It runs on every store, so
    # it is specialized at build time for an L1 that sits right on the
    # crossbar versus one with private levels below it.

    def _make_load_lane(self, cpu: int):
        probe = self.l1d[cpu].make_probe()
        stats = self._l1d_stats[cpu]
        shift = self._line_shift

        def fast_load(addr: int, at: int) -> int:
            if probe(addr >> shift) < 0:
                return -1
            stats.reads += 1
            return at + 1

        return fast_load

    def _make_store_lane(self, cpu: int):
        if self.config.l1_coherence != "invalidate":
            # The write-update walk refreshes sharers in place and
            # charges crossbar word transfers; keep it on the one
            # general path.
            return lambda addr, at: -1
        shift = self._line_shift
        l1_probe = self.l1d[cpu].make_probe()
        l1d_stats = self._l1d_stats[cpu]
        buffer_admit = self._write_buffers[cpu].admit
        buffer_push = self._write_buffers[cpu].push
        shared_probe_modify = self.shared.make_probe_modify()
        shared_stats = self._shared_stats
        xbar_lane = self.crossbar.make_lane(cpu, occupancy=1)
        invalidate_mask = self.directory.invalidate_for_write_mask
        system = self

        if not self.private:
            def fast_store(addr: int, at: int) -> int:
                l1d_stats.writes += 1
                l1d_stats.write_throughs += 1
                line_addr = addr >> shift
                # Write-through: a resident copy is updated in place
                # and stays valid; a store miss does not allocate.
                l1_probe(line_addr)
                release, _stalled = buffer_admit(at)
                # The drain enters the shared pipeline now; only the
                # CPU is held back when the buffer is full.
                ready = xbar_lane(addr, at)
                shared_stats.writes += 1
                if shared_probe_modify(line_addr) >= 0:
                    drain_done = ready
                else:
                    drain_done = system._shared_write_miss(
                        addr, line_addr, ready
                    )
                victims = invalidate_mask(line_addr, cpu)
                if victims:
                    system._invalidate(victims, line_addr, cpu, at)
                buffer_push(drain_done)
                return release + 1

            return fast_store

        private = tuple(
            (arrays[cpu].make_probe(), stats[cpu])
            for arrays, stats in zip(self.private, self._private_stats)
        )

        def fast_store(addr: int, at: int) -> int:
            l1d_stats.writes += 1
            l1d_stats.write_throughs += 1
            line_addr = addr >> shift
            l1_probe(line_addr)
            for probe, stats in private:
                stats.writes += 1
                probe(line_addr)
            release, _stalled = buffer_admit(at)
            ready = xbar_lane(addr, at)
            shared_stats.writes += 1
            if shared_probe_modify(line_addr) >= 0:
                drain_done = ready
            else:
                drain_done = system._shared_write_miss(addr, line_addr, ready)
            victims = invalidate_mask(line_addr, cpu)
            if victims:
                system._invalidate(victims, line_addr, cpu, at)
            buffer_push(drain_done)
            return release + 1

        return fast_store

    # ------------------------------------------------------------------

    def _ifetch(self, cpu: int, addr: int, at: int) -> AccessResult:
        cache = self.l1i[cpu]
        line_addr = addr >> self._line_shift
        if cache.probe(line_addr) >= 0:
            return AccessResult(at + 1, StallLevel.NONE)
        self._l1i_stats[cpu].read_misses_repl += 1
        done, level = self._refill(cpu, addr, at + 1)
        cache.fill(line_addr, SHARED)
        return AccessResult(done, level)

    def _load(self, cpu: int, addr: int, at: int) -> AccessResult:
        cache = self.l1d[cpu]
        cache_stats = self._l1d_stats[cpu]
        cache_stats.reads += 1
        line_addr = addr >> self._line_shift
        if cache.probe(line_addr) >= 0:
            return AccessResult(at + 1, StallLevel.NONE)

        miss_kind = cache.classify_line(line_addr)
        count_miss(cache_stats, miss_kind, is_store=False)
        done, level = self._refill(cpu, addr, at + 1)
        victim = cache.fill(line_addr, SHARED)
        self.directory.add_holder(line_addr, cpu)
        if victim >= 0:
            cache_stats.evictions += 1
            self._drop_holder(cpu, victim >> 2)
        return AccessResult(done, level)

    def _store(
        self, cpu: int, addr: int, at: int, posted: bool
    ) -> AccessResult:
        """Write-through, no-allocate store via the per-CPU write buffer.

        Every private level is write-through: a resident copy is
        updated in place, a miss allocates nowhere, and the drain goes
        all the way to the shared level. The CPU is released after one
        cycle unless the buffer is full, in which case it waits for the
        oldest drain to finish. The value becomes visible to other CPUs
        when the drain reaches the shared level
        (``AccessResult.visible``). Store-conditionals are not posted —
        the CPU waits for the drain itself.
        """
        cache_stats = self._l1d_stats[cpu]
        cache_stats.writes += 1
        cache_stats.write_throughs += 1
        line_addr = addr >> self._line_shift
        self.l1d[cpu].probe(line_addr)
        for arrays, stats in zip(self.private, self._private_stats):
            stats[cpu].writes += 1
            arrays[cpu].probe(line_addr)

        if posted:
            release, stalled = self._write_buffers[cpu].admit(at)
        else:
            release, stalled = at, False
        # The drain enters the shared pipeline now; only the CPU is held
        # back when the buffer is full.
        drain_done = self._shared_write_drain(cpu, addr, at)

        if self.config.l1_coherence == "update":
            # Write-update: sharers' copies are refreshed in place; the
            # broadcast costs one word transfer on the writer's
            # crossbar port per live sharer.
            for other in self.directory.holders(line_addr, excluding=cpu):
                if self.l1d[other].probe_quiet(line_addr) < 0:
                    # The sharer silently dropped the line; stop
                    # updating it.
                    self.directory.remove_holder(line_addr, other)
                    continue
                self._l1d_stats[other].updates_received += 1
                self.crossbar.access(addr, at, port=cpu, occupancy=1)
                if self.obs is not None:
                    self.obs.record_coherence(
                        other, "update", at, {"by": cpu}
                    )
        else:
            victims = self.directory.invalidate_for_write_mask(line_addr, cpu)
            if victims:
                self._invalidate(victims, line_addr, cpu, at)

        if not posted:
            return AccessResult(drain_done, StallLevel.L2, visible=drain_done)
        visible = self._write_buffers[cpu].push(drain_done)
        level = StallLevel.STOREBUF if stalled else StallLevel.NONE
        return AccessResult(release + 1, level, visible=visible)

    def _invalidate(
        self, victims: int, line_addr: int, writer: int, at: int
    ) -> None:
        """Drop the copies a write invalidates (``victims`` is the
        directory's CPU bitmask) from every private level."""
        other = 0
        while victims:
            if victims & 1:
                hit = self.l1d[other].evict(line_addr) >= 0
                for arrays in self.private:
                    if arrays[other].evict(line_addr) >= 0:
                        hit = True
                if hit:
                    self._l1d_stats[other].invalidations_received += 1
                    if self.obs is not None:
                        self.obs.record_coherence(
                            other, "inval", at, {"by": writer}
                        )
            victims >>= 1
            other += 1

    def _drop_holder(self, cpu: int, line_addr: int) -> None:
        """Clear ``cpu``'s directory bit for a line its L1 no longer
        holds, unless a private level below still does (the private
        levels are not inclusive of each other)."""
        for arrays in self.private:
            if arrays[cpu].probe_quiet(line_addr) >= 0:
                return
        self.directory.remove_holder(line_addr, cpu)

    # ------------------------------------------------------------------

    def _refill(
        self, cpu: int, addr: int, at: int, depth: int = 0
    ) -> tuple[int, StallLevel]:
        """L1 miss refill (data or instruction): down the private
        levels from ``depth``, then the shared level."""
        if depth == len(self.private):
            return self._shared_read(cpu, addr, at)
        cache = self.private[depth][cpu]
        cache_stats = self._private_stats[depth][cpu]
        start = self.private_ports[depth][cpu].acquire(
            at, self._private_occupancy[depth]
        )
        ready = start + self._private_latency[depth]
        cache_stats.reads += 1
        line_addr = addr >> self._line_shift
        if cache.probe(line_addr) >= 0:
            return ready, StallLevel.L2
        miss_kind = cache.classify_line(line_addr)
        count_miss(cache_stats, miss_kind, is_store=False)
        done, level = self._refill(cpu, addr, ready, depth + 1)
        victim = cache.fill(line_addr, SHARED)
        if victim >= 0:
            cache_stats.evictions += 1
            victim_line = victim >> 2
            if self.l1d[cpu].probe_quiet(victim_line) < 0:
                self._drop_holder(cpu, victim_line)
        return done, level

    def _shared_read(
        self, cpu: int, addr: int, at: int
    ) -> tuple[int, StallLevel]:
        """Refill path through the shared level's crossbar and banks."""
        ready, _wait = self.crossbar.access(addr, at, port=cpu)
        self._shared_stats.reads += 1
        line_addr = addr >> self._line_shift
        if self.shared.probe(line_addr) >= 0:
            return ready, StallLevel.L2
        miss_kind = self.shared.classify_line(line_addr)
        count_miss(self._shared_stats, miss_kind, is_store=False)
        done = self.mem.access(addr, ready)
        victim = self.shared.fill(line_addr, SHARED)
        if victim >= 0:
            self._handle_shared_eviction(victim, ready)
        return done, StallLevel.MEM

    def _shared_write_drain(self, cpu: int, addr: int, at: int) -> int:
        """One write-buffer entry draining into its shared bank.

        The drain is a word write — one cycle on the 64-bit datapath;
        only a write-allocate line fetch pays the full line-transfer
        occupancy.
        """
        ready, _wait = self.crossbar.access(addr, at, port=cpu, occupancy=1)
        self._shared_stats.writes += 1
        line_addr = addr >> self._line_shift
        if self.shared.probe_modify(line_addr) >= 0:
            return ready
        return self._shared_write_miss(addr, line_addr, ready)

    def _shared_write_miss(
        self, addr: int, line_addr: int, ready: int
    ) -> int:
        """Write-allocate in the (write-back) shared level: fetch the
        line first."""
        miss_kind = self.shared.classify_line(line_addr)
        count_miss(self._shared_stats, miss_kind, is_store=True)
        done = self.mem.access(addr, ready)
        victim = self.shared.fill(line_addr, MODIFIED)
        if victim >= 0:
            self._handle_shared_eviction(victim, ready)
        return done

    def _handle_shared_eviction(self, victim: int, at: int) -> None:
        """Shared-level replacement: invalidate every private copy
        (inclusion) and write dirty data to memory.

        ``victim`` is packed ``(line_addr << 2) | state``.
        """
        self._shared_stats.evictions += 1
        victim_line = victim >> 2
        for cpu in self.directory.clear(victim_line):
            # Replacement-caused, not communication: classify later
            # misses on this line as replacement misses.
            self.l1d[cpu].evict(victim_line, coherence=False)
            for arrays in self.private:
                arrays[cpu].evict(victim_line, coherence=False)
        if victim & 3 == MODIFIED:
            self._shared_stats.writebacks += 1
            self.mem.write_back(victim_line << self._line_shift, at)
