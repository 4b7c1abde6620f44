#!/usr/bin/env python
"""Regenerate the golden stats for the topology differential suite.

Runs every paper preset x CPU model x {eqntott, fft} at test scale and
dumps the full ``SystemStats.to_dict()`` payload to
``tests/data/topology_golden.json``. The scenario presets (``shared-l3``
at 4 CPUs, ``cluster-l1`` at 16) get the same matrix under
``scenario_cases``, keyed with their CPU count. The paper cases were
produced by the pre-refactor string-dispatch code and the scenario
cases by the bespoke ``shared-l3``/``cluster-l1`` classes before they
were folded into the shared-L2/shared-L1 systems; the differential
suite (``tests/test_topology_regression.py``) asserts the current code
reproduces both bit-for-bit.

Only rerun this script to *extend* the matrix (new workloads/scales) —
never to paper over a mismatch, which is exactly the regression the
suite exists to catch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.configs import ARCHITECTURES, CPU_MODELS, config_for_scale
from repro.core.system import System
from repro.mem.functional import FunctionalMemory
from repro.workloads import WORKLOADS

GOLDEN_WORKLOADS = ("eqntott", "fft")
SCALE = "test"
N_CPUS = 4
#: non-paper presets and the core count each is pinned at
SCENARIO_TOPOLOGIES = (("shared-l3", 4), ("cluster-l1", 16))


def run_case(
    arch: str, cpu_model: str, workload_name: str, n_cpus: int = N_CPUS
) -> dict:
    config = config_for_scale(SCALE, n_cpus)
    workload = WORKLOADS[workload_name](n_cpus, FunctionalMemory(), SCALE)
    system = System(arch, workload, cpu_model=cpu_model, mem_config=config)
    stats = system.run()
    return stats.to_dict()


def main() -> int:
    out_path = Path(__file__).resolve().parent.parent / "tests" / "data"
    out_path.mkdir(parents=True, exist_ok=True)
    golden: dict[str, dict] = {}
    for arch in ARCHITECTURES:
        for cpu_model in CPU_MODELS:
            for workload_name in GOLDEN_WORKLOADS:
                key = f"{arch}/{cpu_model}/{workload_name}"
                print(f"running {key} ...", flush=True)
                golden[key] = run_case(arch, cpu_model, workload_name)
    scenarios: dict[str, dict] = {}
    for arch, n_cpus in SCENARIO_TOPOLOGIES:
        for cpu_model in CPU_MODELS:
            for workload_name in GOLDEN_WORKLOADS:
                key = f"{arch}/{n_cpus}/{cpu_model}/{workload_name}"
                print(f"running {key} ...", flush=True)
                scenarios[key] = run_case(
                    arch, cpu_model, workload_name, n_cpus
                )
    target = out_path / "topology_golden.json"
    target.write_text(
        json.dumps(
            {
                "scale": SCALE,
                "n_cpus": N_CPUS,
                "cases": golden,
                "scenario_cases": scenarios,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {target} ({len(golden) + len(scenarios)} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
