"""Tests of the benchmark itself: tracing determinism, time accounting,
output checks and the refusal to run without the simulator source.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from scenarios import PaperScenario, digest  # noqa: E402
from tracing import Tracer  # noqa: E402


def small_paper(cpu_model: str) -> PaperScenario:
    """One application on the three paper presets: a short pass."""
    name = "paper-mipsy" if cpu_model == "mipsy" else "paper-mxs"
    scenario = PaperScenario(name, cpu_model, ("eqntott",))
    scenario.prepare(seed=3, work=Path("unused"))
    return scenario


def traced_run(cpu_model: str):
    tracer = Tracer()
    plain, traced = small_paper(cpu_model).traced(tracer, seconds=0)
    return tracer, plain, traced


@pytest.mark.parametrize("cpu_model", ["mipsy", "mxs"])
def test_traced_runs_repeat_every_count_and_account_for_the_wall(cpu_model):
    first, plain, traced = traced_run(cpu_model)
    second, _, _ = traced_run(cpu_model)

    def counts(tracer):
        return {
            name: (layer.calls, layer.hits)
            for name, layer in tracer.layers.items()
        }

    assert counts(first) == counts(second)
    tick = first.layers[f"{cpu_model}.tick"]
    assert tick.calls > 0
    other = "mxs" if cpu_model == "mipsy" else "mipsy"
    assert first.layers[f"{other}.tick"].calls == 0
    assert all(
        first.layers[f"mem.{kind}.lane"].hits > 0
        for kind in ("shared_l1", "shared_l2", "shared_mem")
    )

    # Self times telescope: together with the benchmark's own spans
    # they add up to the root span, and the layers alone cover the
    # traced wall to within the tracing overhead the run states.
    layers = sum(
        layer.self_time
        for name, layer in first.layers.items()
        if not name.startswith("bench.")
    )
    everything = sum(layer.self_time for layer in first.layers.values())
    overhead = traced.wall - plain.wall
    assert overhead > 0
    assert everything == pytest.approx(first.layers["bench.pass"].total)
    assert abs(traced.wall - layers) <= overhead


def test_spans_nest_inside_their_parents():
    tracer, _, _ = traced_run("mipsy")
    spans = {span[0]: span for span in tracer.spans}
    assert spans and all(span is not None for span in tracer.spans)
    for _id, name, start, end, parent in spans.values():
        assert start <= end
        if parent is not None:
            _, _, parent_start, parent_end, _ = spans[parent]
            assert parent_start <= start and end <= parent_end


def test_check_flags_a_result_that_differs_from_its_golden():
    scenario = small_paper("mipsy")
    ops = scenario.run_jobs(scenario.jobs()[:1])
    assert scenario.check(ops) == []
    result = ops[0].result
    stats = dataclasses.replace(result.stats, cycles=result.stats.cycles + 1)
    ops[0].result = dataclasses.replace(result, stats=stats)
    assert digest(ops[0].result) != digest(result)
    assert len(scenario.check(ops)) == 1


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        command
        + ["--workload", "paper-mipsy", "--seed", "0", "--seconds", "1"]
        + ["--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
