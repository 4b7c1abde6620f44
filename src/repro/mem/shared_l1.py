"""The shared-L1 (shared primary cache) architecture — paper Section 2.2.

CPUs share one banked write-back L1 *data* cache through a crossbar;
instruction caches stay private per CPU. In the paper's 4-CPU machine
the crossbar and bank arbitration raise the L1 data hit time from 1
cycle to 3, and references from different CPUs can conflict in the
banks — except under the Mipsy model, which the paper deliberately
runs optimistically (1-cycle hits, no bank contention;
``MemConfig.shared_l1_optimistic``).

Below the shared L1 the chip looks like a uniprocessor: one unified L2
(10-cycle latency, 2-cycle occupancy over a 128-bit bus) and main
memory (50/6). No inter-CPU coherence machinery exists anywhere — the
processors communicate by construction inside the one data cache.

The same class builds the MemPool-style cluster (``cluster-l1``, arXiv
2012.02973): many cores pooling their L1 behind a pipelined
multi-stage crossbar. Geometry comes from the topology spec's ``l1d``
and ``l2`` levels and the interconnect from its ``interconnect``; a
multi-stage interconnect is the design point under study there, so
both CPU models pay it — optimism applies only to a single-stage
crossbar.
"""

from __future__ import annotations

from repro.mem.bank import Resource
from repro.mem.cache import MODIFIED, SHARED, CacheArray
from repro.mem.crossbar import MultistageCrossbar, make_crossbar
from repro.mem.hierarchy import MemConfig, MemorySystem, count_miss
from repro.mem.mainmem import MainMemory
from repro.mem.topology import Topology, resolve_topology
from repro.mem.types import AccessResult, StallLevel
from repro.mem.writebuffer import WriteBuffer
from repro.sim.stats import SystemStats


class SharedL1System(MemorySystem):
    """Crossbar-connected shared L1 data cache over a chip-level L2."""

    name = "shared-l1"

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
        l1_level = topology.level("l1d")
        l2_level = topology.level("l2")
        line = config.line_size
        n_cpus = config.n_cpus
        self.l1i = [
            CacheArray(f"cpu{i}.l1i", config.l1i_size, config.l1i_assoc, line)
            for i in range(n_cpus)
        ]
        self._l1i_stats = [stats.cache(f"cpu{i}.l1i") for i in range(n_cpus)]
        self.l1d = CacheArray(
            "shared.l1d", l1_level.size, l1_level.assoc, line
        )
        self._l1d_stats = stats.cache("shared.l1d")
        self.crossbar = make_crossbar(
            "l1.xbar", l1_level, topology.interconnect, line, n_cpus
        )
        # Mipsy's 1-cycle, contention-free hits stand in for the
        # paper's single-stage crossbar only.
        self._optimistic = config.shared_l1_optimistic and not isinstance(
            self.crossbar, MultistageCrossbar
        )
        self.l2 = CacheArray("chip.l2", l2_level.size, l2_level.assoc, line)
        self._l2_stats = stats.cache("chip.l2")
        self._l2_latency = l2_level.latency
        self._l2_occupancy = l2_level.occupancy
        self.l2_port = Resource("chip.l2.port")
        self.mem = MainMemory(
            config.mem_latency,
            config.mem_occupancy,
            config.n_mem_banks,
            line,
        )
        self._write_buffers = [
            WriteBuffer(config.write_buffer_depth) for _ in range(n_cpus)
        ]
        # Obs-only shadow crossbar (see attach_obs): measures the bank
        # contention the optimistic Mipsy timing deliberately ignores,
        # without feeding back into any completion time.
        self._shadow_xbar = None
        self._line_shift = self.l1d.line_shift
        self._build_lanes()

    def attach_obs(self, obs) -> None:
        """Wire the crossbar for conflict events.

        Under optimistic timing (the Mipsy model) the real crossbar is
        never consulted — hits complete in one cycle by fiat — so a
        *shadow* crossbar with the same geometry is driven alongside
        the optimistic path. Its grant/conflict/bank counters show the
        contention the optimism hides; simulated timing and statistics
        are untouched (the shadow's completion times are discarded).
        """
        super().attach_obs(obs)
        if self._optimistic:
            self._shadow_xbar = make_crossbar(
                "l1.xbar",
                self.topology.level("l1d"),
                self.topology.interconnect,
                self.config.line_size,
                self.config.n_cpus,
            )
            self._shadow_xbar.obs = obs
        else:
            self.crossbar.obs = obs

    def obs_probes(self) -> list[tuple]:
        """Crossbar grants/conflicts, per-bank (and per-switch) busy, L2
        port, memory and write-buffer fill (see
        :meth:`MemorySystem.obs_probes`)."""
        xbar = (
            self._shadow_xbar
            if self._shadow_xbar is not None
            else self.crossbar
        )
        probes: list[tuple] = [
            ("rate", "l1.xbar.grants", lambda x=xbar: x.requests),
            ("rate", "l1.xbar.conflict", lambda x=xbar: x.wait_cycles),
            ("rate", "l2.port.busy", lambda: self.l2_port.busy_cycles),
            ("rate", "mem.busy", lambda: self.mem.banks.busy_cycles),
        ]
        for index, bank in enumerate(xbar.banks.banks):
            probes.append(
                ("rate", f"l1.bank{index}.busy", lambda b=bank: b.busy_cycles)
            )
        for stage, column in enumerate(xbar.switches):
            for index, switch in enumerate(column):
                probes.append(
                    (
                        "rate",
                        f"l1.s{stage}.sw{index}.busy",
                        lambda s=switch: s.busy_cycles,
                    )
                )
        for index, buffer in enumerate(self._write_buffers):
            probes.append(
                ("gauge", f"cpu{index}.wb", lambda b=buffer: b.occupancy)
            )
        return probes

    def resource_report(self, cycles: int) -> dict[str, float]:
        """Busy fractions of the L1 banks (and switches), L2 port and
        memory."""
        report = {
            "l2.port": self.l2_port.utilization(cycles),
            "memory": self.mem.banks.busy_cycles / cycles if cycles else 0.0,
        }
        for index, bank in enumerate(self.crossbar.banks.banks):
            report[f"l1.bank{index}"] = bank.utilization(cycles)
        for stage, column in enumerate(self.crossbar.switches):
            for index, switch in enumerate(column):
                report[f"l1.s{stage}.sw{index}"] = switch.utilization(cycles)
        return report

    # ------------------------------------------------------------------
    # Fast lanes: a single packed tag probe + LRU stamp, no dispatch.
    # Must mirror the hit legs of _load/_store exactly — the
    # differential tests run with the lane off and assert identical
    # stats. The crossbar acquire commutes with the tag probe (their
    # state is disjoint), so probing first is safe. Each lane is
    # specialized at build time: optimistic, or through the crossbar.

    def _make_load_lane(self, cpu: int):
        probe = self.l1d.make_probe()
        stats = self._l1d_stats
        shift = self._line_shift
        if self._optimistic:
            def fast_load(addr: int, at: int) -> int:
                if probe(addr >> shift) < 0:
                    return -1
                stats.reads += 1
                return at + 1

            return fast_load
        xbar_lane = self.crossbar.make_lane(cpu)

        def fast_load(addr: int, at: int) -> int:
            if probe(addr >> shift) < 0:
                return -1
            stats.reads += 1
            return xbar_lane(addr, at)

        return fast_load

    def _make_store_lane(self, cpu: int):
        probe_modify = self.l1d.make_probe_modify()
        stats = self._l1d_stats
        buffer_admit = self._write_buffers[cpu].admit
        buffer_push = self._write_buffers[cpu].push
        shift = self._line_shift
        if self._optimistic:
            def fast_store(addr: int, at: int) -> int:
                if probe_modify(addr >> shift) < 0:
                    return -1
                stats.writes += 1
                release, _stalled = buffer_admit(at)
                buffer_push(at + 1)
                return release + 1

            return fast_store
        xbar_lane = self.crossbar.make_lane(cpu)

        def fast_store(addr: int, at: int) -> int:
            if probe_modify(addr >> shift) < 0:
                return -1
            stats.writes += 1
            release, _stalled = buffer_admit(at)
            buffer_push(xbar_lane(addr, at))
            return release + 1

        return fast_store

    # ------------------------------------------------------------------

    def _ifetch(self, cpu: int, addr: int, at: int) -> AccessResult:
        cache = self.l1i[cpu]
        line_addr = addr >> self._line_shift
        if cache.probe(line_addr) >= 0:
            return AccessResult(at + 1, StallLevel.NONE)
        cache_stats = self._l1i_stats[cpu]
        cache_stats.read_misses_repl += 1  # code is never invalidated
        done, level = self._l2_access(addr, at + 1, is_store=False)
        cache.fill(line_addr, SHARED)
        return AccessResult(done, level)

    def _load(self, cpu: int, addr: int, at: int) -> AccessResult:
        self._l1d_stats.reads += 1
        done, level = self._data_path(cpu, addr, at, is_store=False)
        return AccessResult(done, level)

    def _store(
        self, cpu: int, addr: int, at: int, posted: bool
    ) -> AccessResult:
        """Stores post through the write buffer; SCs wait out the path."""
        self._l1d_stats.writes += 1
        if not posted:
            done, level = self._data_path(cpu, addr, at, is_store=True)
            return AccessResult(done, level)
        buffer = self._write_buffers[cpu]
        release, stalled = buffer.admit(at)
        # The drain enters the memory pipeline now; only the CPU is
        # held back when the buffer is full.
        complete, _level = self._data_path(cpu, addr, at, is_store=True)
        visible = buffer.push(complete)
        level = StallLevel.STOREBUF if stalled else StallLevel.NONE
        return AccessResult(release + 1, level, visible=visible)

    def _data_path(
        self, cpu: int, addr: int, at: int, is_store: bool
    ) -> tuple[int, StallLevel]:
        """The shared-L1 access pipeline common to loads and stores."""
        if self._optimistic:
            hit_done = at + 1
            if self._shadow_xbar is not None:
                # Observability-only: record the collision the real
                # crossbar would have seen; timing is untouched.
                self._shadow_xbar.probe(addr, at, port=cpu)
        else:
            hit_done, _wait = self.crossbar.access(addr, at, port=cpu)

        l1d = self.l1d
        line_addr = addr >> self._line_shift
        state = (
            l1d.probe_modify(line_addr) if is_store else l1d.probe(line_addr)
        )
        if state >= 0:
            level = StallLevel.NONE if hit_done - at <= 1 else StallLevel.L1
            return hit_done, level

        miss_kind = l1d.classify_line(line_addr)
        count_miss(self._l1d_stats, miss_kind, is_store)
        done, level = self._l2_access(addr, hit_done, is_store=is_store)
        fill_state = MODIFIED if is_store else SHARED
        victim = l1d.fill(line_addr, fill_state)
        if victim >= 0 and victim & 3 == MODIFIED:
            # The writeback drains from the victim buffer opportunistically;
            # reserving the port at the *initiating* time keeps the busy
            # timeline causal (a future reservation would head-of-line
            # block demand misses arriving in between).
            self._write_back_to_l2(
                (victim >> 2) << self._line_shift, hit_done
            )
        return done, level

    # ------------------------------------------------------------------

    def _l2_access(
        self, addr: int, at: int, is_store: bool
    ) -> tuple[int, StallLevel]:
        """Access the chip-level L2; returns (done, serving level)."""
        start = self.l2_port.acquire(at, self._l2_occupancy)
        if is_store:
            self._l2_stats.writes += 1
        else:
            self._l2_stats.reads += 1
        line_addr = addr >> self._line_shift
        l2 = self.l2
        if l2.probe(line_addr) >= 0:
            return start + self._l2_latency, StallLevel.L2

        miss_kind = l2.classify_line(line_addr)
        count_miss(self._l2_stats, miss_kind, is_store)
        done = self.mem.access(addr, start + self._l2_latency)
        victim = l2.fill(line_addr, SHARED)
        if victim >= 0:
            self._handle_l2_eviction(victim, start)
        return done, StallLevel.MEM

    def _handle_l2_eviction(self, victim: int, at: int) -> None:
        """Maintain inclusion and write dirty victims to memory.

        ``victim`` is packed ``(line_addr << 2) | state``.
        """
        victim_line = victim >> 2
        self._l2_stats.evictions += 1
        dirty = victim & 3 == MODIFIED
        # Inclusion: the shared L1 data cache may not keep a line the L2
        # no longer holds. Replacement-caused, so it does not count as
        # an invalidation miss later. Instruction lines are read-only
        # and need no coherence, so the I-caches are exempt from
        # inclusion (as in real designs).
        l1_state = self.l1d.evict(victim_line, coherence=False)
        if l1_state == MODIFIED:
            dirty = True
        if dirty:
            self._l2_stats.writebacks += 1
            self.mem.write_back(victim_line << self._line_shift, at)

    def _write_back_to_l2(self, addr: int, at: int) -> None:
        """Posted write-back of a dirty shared-L1 victim into the L2."""
        self._l1d_stats.writebacks += 1
        self.l2_port.acquire(at, self._l2_occupancy)
        # Inclusion means the line is normally present; if it raced out,
        # the data goes to memory instead.
        if not self.l2.set_state(addr >> self._line_shift, MODIFIED):
            self.mem.write_back(addr, at)
