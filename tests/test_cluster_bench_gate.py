"""Count gate of the cluster bench, and the multi-process helpers it shares.

``benchmarks/bench_cluster.py`` gates only what the code determines, not
what the host's core count does to throughput: progress, orphaned shard
processes, where 2PC may and must run, and the RPCs a read-only
transaction costs beyond its one ``CALL``.  These tests feed its pure
:func:`gate` synthetic curves, so they run in tier-1 without a fleet.
"""

from __future__ import annotations

import copy
import os

import pytest

from benchmarks.bench_cluster import gate
from repro.bench.harness import process_work, split_mpl

OVERHEAD = {"iterations": 100, "fastpath_us": 500.0, "twopc_us": 900.0, "overhead": 1.8}


def _point(shards: int, mix: str, *, twopc_commits: int = 0, rpcs_over: int = 3) -> dict:
    decided = 1000
    return {
        "shards": shards,
        "mix": mix,
        "mpl": 4,
        "tps": 5000.0,
        "decided": decided,
        "rpcs": decided + rpcs_over,
        "orphans": 0,
        "counters": {
            "fastpath_commits": decided - twopc_commits,
            "twopc_commits": twopc_commits,
            "twopc_aborts": 0,
        },
    }


CLEAN = [
    _point(1, "readonly", rpcs_over=1),
    _point(2, "readonly", rpcs_over=6),
    _point(1, "uniform", rpcs_over=300),
    _point(2, "uniform", twopc_commits=150, rpcs_over=700),
]


def _broken(index: int, **changes) -> "list[dict]":
    points = copy.deepcopy(CLEAN)
    for key, value in changes.items():
        if key in points[index]["counters"]:
            points[index]["counters"][key] = value
        else:
            points[index][key] = value
    return points


def test_a_clean_curve_passes():
    assert gate(CLEAN, OVERHEAD) == []


@pytest.mark.parametrize(
    "points, expected",
    [
        (_broken(2, twopc_commits=5), "2PC transaction(s): uniform at 1 shard(s)"),
        (_broken(1, twopc_commits=1), "2PC transaction(s): readonly at 2 shard(s)"),
        (_broken(1, twopc_aborts=1), "2PC transaction(s): readonly at 2 shard(s)"),
        (_broken(1, rpcs=1000 + 17), "17 RPCs beyond one per transaction (> 16)"),
        (_broken(3, twopc_commits=0), "no 2PC commit: uniform at 2 shard(s)"),
        (_broken(0, orphans=1), "1 orphaned or force-killed shard process(es)"),
        (_broken(3, tps=0.0, decided=0), "no progress: uniform at 2 shard(s)"),
    ],
    ids=["2pc-at-1-shard", "2pc-commit-read-only", "2pc-abort-read-only",
         "read-only-excess-rpcs", "no-2pc-on-uniform", "orphan", "no-progress"],
)
def test_each_broken_count_fails(points, expected):
    failures = gate(points, OVERHEAD)
    assert len(failures) == 1 and expected in failures[0], failures


def test_the_read_only_rpc_bound_is_inclusive():
    assert gate(_broken(1, rpcs=1000 + 2 * 2 * 4), OVERHEAD) == []


def test_2pc_no_dearer_than_the_fast_path_fails():
    failures = gate(CLEAN, {**OVERHEAD, "overhead": 1.0})
    assert len(failures) == 1 and "no dearer" in failures[0]


@pytest.mark.parametrize(
    "mpl, processes, shares",
    [(5, 2, [3, 2]), (8, 3, [3, 3, 2]), (2, 4, [1, 1]), (3, 0, [3]), (3, -1, [3]), (4, 1, [4])],
)
def test_split_mpl(mpl, processes, shares):
    assert split_mpl(mpl, processes) == shares
    assert sum(shares) == mpl


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_process_work_reads_this_process():
    work = process_work(os.getpid())
    assert work["cpu_s"] > 0
    assert work["voluntary"] >= 0 and work["involuntary"] >= 0
