"""The committed ``BENCH_*.json`` trajectories share one record shape.

Each is what :func:`repro.bench.harness.append_bench_record` writes: one
JSON document ``{"benchmark": <name>, "runs": [<record>, ...]}``, which
``json.load`` reads whole and a new run extends rather than starts over.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.bench.harness import _e2e_module, append_bench_record, speed_probe

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORIES = sorted(ROOT.glob("BENCH_*.json"))


def test_every_bench_writes_a_trajectory():
    assert {path.name for path in TRAJECTORIES} >= {
        "BENCH_chaos_cluster.json",
        "BENCH_cluster.json",
        "BENCH_engine.json",
        "BENCH_net.json",
    }


@pytest.mark.parametrize("path", TRAJECTORIES, ids=lambda path: path.name)
def test_trajectory_loads_whole_in_the_common_shape(path):
    with path.open(encoding="utf-8") as handle:
        data = json.load(handle)
    assert set(data) == {"benchmark", "runs"}
    assert isinstance(data["benchmark"], str)
    assert data["runs"] and all(isinstance(run, dict) for run in data["runs"])


def test_records_append_in_order(tmp_path):
    path = tmp_path / "BENCH_chaos_cluster.json"
    for seed in (11, 17):
        append_bench_record(path, "chaos_cluster", {"seed": seed})
    data = json.loads(path.read_text())
    assert data["benchmark"] == "chaos_cluster"
    assert [run["seed"] for run in data["runs"]] == [11, 17]
    for run in data["runs"]:
        time.strptime(run["timestamp"], "%Y-%m-%dT%H:%M:%SZ")
        block = run["provenance"]
        assert set(block) == {"allowed_cpus", "loadavg_1m", "speed_factor"}
        assert block["allowed_cpus"] == sorted(os.sched_getaffinity(0))
        assert block["loadavg_1m"] >= 0 and block["speed_factor"] > 0


def test_a_probe_taken_before_the_run_stamps_the_pair(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    before = speed_probe()
    append_bench_record(path, "bench_scaling", {"seed": 11}, before)
    block = json.loads(path.read_text())["runs"][0]["provenance"]
    assert block["probe_before_s"] == round(before, 6) and block["probe_after_s"] > 0
    factor = _e2e_module("calibrate").factor(block["probe_before_s"], block["probe_after_s"])
    assert block["speed_factor"] == pytest.approx(factor, abs=2e-3)


@pytest.mark.parametrize(
    "text", ['{"benchmark": "chaos_cluster"}\n{"seed": 3}\n', "[1, 2]\n", "{"]
)
def test_a_file_that_is_not_a_trajectory_is_refused_not_replaced(tmp_path, text):
    path = tmp_path / "BENCH_chaos_cluster.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="not overwriting"):
        append_bench_record(path, "chaos_cluster", {"seed": 11})
    assert path.read_text() == text


def test_an_empty_file_starts_a_trajectory(tmp_path):
    path = tmp_path / "BENCH_chaos_cluster.json"
    path.write_text("")
    append_bench_record(path, "chaos_cluster", {"seed": 11})
    assert [run["seed"] for run in json.loads(path.read_text())["runs"]] == [11]
