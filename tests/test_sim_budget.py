"""Work-count gate on the simulator's charge path (``repro.sim``).

Every paper figure charges the CPU model once per statement, so what a
charge costs in Python-level calls (``sys.setprofile`` ``call`` events,
counted with ``benchmarks/bench_scaling.py``'s counter) is what the
figures pay for.  A profiler watches one thread only, so it is installed
inside the body of one simulated process that is alone in its
simulation: every wake-up it pops is its own and the baton never leaves
its thread.  Each count includes the measured operation's own frame.
Upper bounds only.  Before the path was flattened: 10 calls per
``Resource.use``, 5 per ``Simulator.sleep`` and 13 per statement charge;
2, 2 and 3 after.
"""

from __future__ import annotations

import random

from benchmarks.bench_scaling import python_calls
from repro.sim.client import SimulatedClient
from repro.sim.core import Simulator
from repro.sim.platform import postgres_platform
from repro.sim.resources import GroupCommitLog, Resource
from repro.smallbank import PopulationConfig, build_database, get_strategy
from repro.workload.mix import HotspotConfig, ParameterGenerator, get_mix
from repro.workload.stats import RunStats

USE_BUDGET = 3
SLEEP_BUDGET = 3
STATEMENT_BUDGET = 4


def charge_path_calls() -> dict[str, int]:
    """Calls per ``Resource.use``, ``Simulator.sleep`` and statement
    charge (``SimulatedClient._statement_hook``), each measured once
    after a warm-up, uncontended."""
    platform = postgres_platform()
    sim = Simulator()
    cpu = Resource(sim, capacity=platform.cpu_servers, name="cpu")
    wal = GroupCommitLog(sim, flush_time=platform.wal_flush_time)
    rng = random.Random(1)
    client = SimulatedClient(
        sim,
        build_database(platform.engine_config, PopulationConfig(customers=10)),
        platform,
        cpu,
        wal,
        get_strategy("base-si").transactions(),
        get_mix("uniform"),
        ParameterGenerator(HotspotConfig(customers=10, hotspot=2), rng),
        RunStats(window_start=0.0, window_end=1.0),
        mpl=1,
        rng=rng,
    )
    operations = {
        "use": lambda: cpu.use(0.001),
        "sleep": lambda: sim.sleep(0.001),
        "statement": lambda: client._statement_hook("select", None),
    }
    calls: dict[str, int] = {}

    def body() -> None:
        for name, operation in operations.items():
            operation()
            calls[name] = python_calls(operation)

    sim.spawn(body)
    try:
        sim.run_for(1.0)
    finally:
        sim.shutdown()
    return calls


def test_charges_stay_within_their_call_budgets():
    calls = charge_path_calls()
    assert calls.keys() == {"use", "sleep", "statement"}, calls
    assert calls["use"] <= USE_BUDGET, calls
    assert calls["sleep"] <= SLEEP_BUDGET, calls
    assert calls["statement"] <= STATEMENT_BUDGET, calls
