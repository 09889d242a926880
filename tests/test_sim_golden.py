"""Simulator output pinned to numbers.

The simulator is deterministic: event order is a pure function of the
``(time, sequence)`` heap, so every ``run_once`` point has one exact
answer.  The literals below were captured at the commit *before* the
baton-passing hand-off replaced the scheduler thread; any change to
``repro.sim`` that alters the event stream — a different queue order in
``Resource``, one sequence number more or less — moves them.
"""

from __future__ import annotations

import errno
import os
import sys

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.sim import SimulationConfig, run_once
from repro.workload.retry import RetryPolicy


def point(**overrides) -> SimulationConfig:
    defaults = dict(customers=400, hotspot=40, ramp_up=0.25, measure=1.0, seed=3)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


CHAOS = FaultPlan(  # stateful, so good for the one run the test makes
    [
        FaultSpec("wal-stall", probability=0.2, magnitude=0.03),
        FaultSpec("client-death", probability=0.01, max_fires=3),
    ],
    seed=11,
)

# name -> (config, run_once keywords, (commits, aborts, mean response time))
POINTS = {
    "postgres-mpl1": (
        point(strategy="base-si", mpl=1), {},
        (86, 0, 0.011649360465116363),
    ),
    "postgres-mpl20": (
        point(strategy="promote-all", mpl=20), {},
        (778, 273, 0.020664871465295276),
    ),
    "commercial-mpl1": (
        point(strategy="materialize-all", platform="commercial", mpl=1), {},
        (79, 0, 0.012705443037974672),
    ),
    "commercial-mpl20": (
        point(strategy="base-si", platform="commercial", mpl=20), {},
        (851, 220, 0.019112185663924506),
    ),
    "hotspot10": (
        point(strategy="promote-all", mpl=20, hotspot=10), {},
        (481, 590, 0.02171244282744265),
    ),
    "retry-policy": (
        point(strategy="base-si", mpl=20, hotspot=10),
        {"retry": RetryPolicy.exponential(max_attempts=3)},
        (585, 570, 0.02312450427350445),
    ),
    "wal-stall+client-death": (
        point(strategy="materialize-all", mpl=10),
        {"fault_plan": CHAOS},
        (222, 41, 0.032475698198198115),
    ),
}


def outcome(config: SimulationConfig, keywords: dict) -> tuple[int, int, float]:
    stats = run_once(config, **keywords)
    return stats.total_commits, stats.abort_count(), stats.mean_response_time


@pytest.mark.parametrize("name", sorted(POINTS))
def test_run_once_matches_the_parent_commit(name):
    config, keywords, expected = POINTS[name]
    assert outcome(config, keywords) == expected


def test_outcome_is_independent_of_thread_switch_timing():
    """Twenty client threads with the interpreter forced to consider a
    switch every microsecond: if anything but the baton holder ever ran
    simulation code, the event stream (and these numbers) would move."""
    config, keywords, expected = POINTS["hotspot10"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert outcome(config, keywords) == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no sched_getaffinity")
def test_the_caller_keeps_its_scheduling_policy_and_affinity():
    """Only the simulator's own process threads go under ``SCHED_BATCH``."""
    before = os.sched_getscheduler(0), os.sched_getaffinity(0)
    config, keywords, expected = POINTS["postgres-mpl20"]
    assert outcome(config, keywords) == expected
    assert (os.sched_getscheduler(0), os.sched_getaffinity(0)) == before


def _refuse(*args):
    raise OSError(errno.EPERM, "not permitted")


@pytest.mark.parametrize("without", ["refused", "absent"])
def test_outcome_does_not_depend_on_the_batch_policy(monkeypatch, without):
    """The baton orders execution, not the kernel: where ``SCHED_BATCH``
    is refused or does not exist the numbers are the same."""
    if without == "refused":
        monkeypatch.setattr(os, "sched_setscheduler", _refuse, raising=False)
    else:
        monkeypatch.delattr(os, "SCHED_BATCH", raising=False)
    config, keywords, expected = POINTS["postgres-mpl20"]
    assert outcome(config, keywords) == expected
