"""The bench gate's runner-trajectory check never compares across hosts.

``scripts/bench_gate.py`` judges the newest ``bench_runner.json`` entry
against the most recent earlier entry with the same profile. The host
fingerprint is part of that profile, and entries recorded before the
fingerprint existed compare only with each other.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("bench_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOST_A = {"nproc": 2, "cpu_model": "cpu-a", "python": "3.11.7"}
HOST_B = {"nproc": 8, "cpu_model": "cpu-b", "python": "3.11.7"}


def _entry(wall: float, host: dict | None = None, when: str = "t") -> dict:
    entry = {
        "when": when,
        "quick": True,
        "backend": "interpreter",
        "jobs": 2,
        "cache": False,
        "total_wall_seconds": wall,
    }
    if host is not None:
        entry["host"] = host
    return entry


def test_host_splits_the_profile(gate):
    legacy = gate.runner_profile(_entry(9.0))
    on_a = gate.runner_profile(_entry(9.0, HOST_A))
    assert on_a != legacy
    assert on_a != gate.runner_profile(_entry(9.0, HOST_B))
    assert on_a == gate.runner_profile(_entry(5.0, dict(HOST_A)))
    assert legacy == gate.runner_profile(_entry(5.0))


def test_fingerprint_is_what_entries_are_stamped_with(gate):
    host = gate.host_fingerprint()
    assert set(host) == {"nproc", "cpu_model", "python"}
    assert gate.runner_profile(_entry(1.0, host))[-1] is not None


def _check(gate, tmp_path, entries):
    path = tmp_path / "bench_runner.json"
    path.write_text(json.dumps(entries))
    return gate.check_runner_trajectory(path, tolerance=0.15)


def test_no_comparison_across_hosts(gate, tmp_path):
    # A much faster run on another host, or a legacy run without a
    # fingerprint, is not a baseline for this one.
    other_host = [_entry(2.0, HOST_B), _entry(9.0, HOST_A)]
    assert _check(gate, tmp_path, other_host) == []
    legacy = [_entry(2.0), _entry(9.0, HOST_A)]
    assert _check(gate, tmp_path, legacy) == []


def test_same_host_regression_is_caught(gate, tmp_path):
    regressions = _check(
        gate,
        tmp_path,
        [_entry(2.0, HOST_A), _entry(2.0, HOST_B), _entry(9.0, HOST_A)],
    )
    assert [name for name, _ in regressions] == ["runner"]


def test_legacy_entries_still_compare_with_each_other(gate, tmp_path):
    regressions = _check(gate, tmp_path, [_entry(2.0), _entry(9.0)])
    assert [name for name, _ in regressions] == ["runner"]
