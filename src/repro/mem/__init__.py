"""Memory-system models, composed from declarative topology specs.

The package provides the building blocks (cache arrays, banked
resources, buses, crossbars, main memory, coherence engines, the timed
functional memory used for synchronization), the :class:`Topology`
spec language plus its preset/builder registries
(:mod:`repro.mem.topology`), and one memory system per level at which
the CPUs meet, each built from the resolved spec:

* :class:`~repro.mem.shared_l1.SharedL1System` — CPUs share a banked
  write-back L1 data cache through a crossbar (paper Section 2.2; the
  ``shared-primary`` kind), or through a multi-stage crossbar in the
  MemPool-style ``cluster-l1`` preset (``clustered-primary``);
* :class:`~repro.mem.shared_l2.SharedL2System` — private write-through
  levels over one shared, banked write-back level with directory
  invalidation: the private L1s over a shared L2 of Section 2.3
  (``shared-secondary``), or private L1+L2 per CPU over a shared L3 in
  the 3D-stacked ``shared-l3`` preset (``shared-tertiary``);
* :class:`~repro.mem.shared_mem.SharedMemorySystem` — private L1+L2 per
  CPU kept coherent by a snoopy MESI bus with cache-to-cache transfers
  (Section 2.4; ``shared-memory``).

The paper's three architectures are the ``shared-l1`` / ``shared-l2``
/ ``shared-mem`` presets; ``repro list`` enumerates all of them (see
docs/TOPOLOGIES.md).
"""

from repro.mem.types import AccessKind, AccessResult, StallLevel
from repro.mem.cache import CacheArray, CacheLine
from repro.mem.bank import BankedResource, Resource
from repro.mem.functional import FunctionalMemory
from repro.mem.hierarchy import MemorySystem
from repro.mem.topology import (
    CacheLevel,
    Interconnect,
    Topology,
    TopologyPreset,
    build_topology,
    get_preset,
    register_builder,
    register_topology,
    resolve_topology,
    topology_names,
)
from repro.mem.shared_l1 import SharedL1System
from repro.mem.shared_l2 import SharedL2System
from repro.mem.shared_mem import SharedMemorySystem

__all__ = [
    "AccessKind",
    "AccessResult",
    "StallLevel",
    "CacheArray",
    "CacheLine",
    "BankedResource",
    "Resource",
    "FunctionalMemory",
    "MemorySystem",
    "CacheLevel",
    "Interconnect",
    "Topology",
    "TopologyPreset",
    "build_topology",
    "get_preset",
    "register_builder",
    "register_topology",
    "resolve_topology",
    "topology_names",
    "SharedL1System",
    "SharedL2System",
    "SharedMemorySystem",
]
