"""Work-count gates.  A count of Python-level calls (profiler ``call``
events) does not depend on the host, so a 2-core runner passes or fails
it for a reason.  Every count is :func:`repro.bench.harness.count_calls`'s
over a shape ``bench_scaling.py`` or ``bench_net.py`` records.  Upper
bounds only: an interpreter that inlines more counts fewer."""

from __future__ import annotations

import functools
import math
import random
import threading

import pytest

from benchmarks.bench_net import ping_calls
from benchmarks.bench_scaling import (
    LAYER_URLS,
    layer_budget,
    shape_calls,
    statement_path_shapes,
    write_path_shapes,
)
from repro.bench import harness
from repro.bench.harness import count_calls
from repro.net import DatabaseServer
from repro.sim.client import SimulatedClient
from repro.sim.core import Simulator
from repro.sim.platform import postgres_platform
from repro.sim.resources import GroupCommitLog, Resource
from repro.smallbank import PopulationConfig, build_database, get_strategy
from repro.workload.mix import HotspotConfig, ParameterGenerator, get_mix
from repro.workload.stats import RunStats

#: Calls per program and URL of :func:`layer_budget` when first counted
#: (client and every server loop); each is gated at PROGRAM_MARGIN times it.
PROGRAM_CALLS = {
    "Balance": (33, 60, 77, 77),
    "DepositChecking": (48, 75, 92, 92),
    "TransactSaving": (54, 81, 98, 98),
    "Amalgamate": (95, 122, 143, 314),
    "WriteCheck": (62, 89, 106, 106),
}
PROGRAM_MARGIN = 1.1

BUDGETS = {
    # Added to an empty begin + commit (10 calls); 2 / 20 today.
    "write": {"read": 5, "update": 30},
    # 6 / 9 / 14 / 10 / 33 today.
    "statement": {
        "get_saving": 6,  # GET_SAVING.execute: a key SELECT ... INTO
        "get_saving_sfu": 14,  # GET_SAVING_SFU.execute: the same, FOR UPDATE
        "add_checking": 14,  # ADD_CHECKING.execute: a key UPDATE
        "begin_commit": 12,  # session.begin() + session.commit(), nothing between
        "balance": 42,  # SmallBankTransactions.run(session, "Balance", ...)
    },
    # session() + PING + close() on a pooled wire, client and server loop apart; 14 / 11 today.
    "ping": {"client": 16, "server": 11},
    # One simulated charge; 2 / 2 / 3 today.
    "sim": {"use": 3, "sleep": 3, "statement": 4},
    "program": {
        f"{program} {url}": math.floor(PROGRAM_MARGIN * calls)
        for program, row in PROGRAM_CALLS.items()
        for url, calls in zip(LAYER_URLS, row)
    },
}


def charge_path_calls() -> "dict[str, int]":
    """Calls per ``Resource.use``, ``Simulator.sleep`` and statement charge,
    the operation's frame counted, inside one simulated process alone in
    its simulation (a profiler sees one thread), after a warm-up."""
    platform, sim, rng = postgres_platform(), Simulator(), random.Random(1)
    cpu = Resource(sim, capacity=platform.cpu_servers, name="cpu")
    client = SimulatedClient(
        sim, build_database(platform.engine_config, PopulationConfig(customers=10)),
        platform, cpu, GroupCommitLog(sim, flush_time=platform.wal_flush_time),
        get_strategy("base-si").transactions(), get_mix("uniform"),
        ParameterGenerator(HotspotConfig(customers=10, hotspot=2), rng),
        RunStats(window_start=0.0, window_end=1.0), mpl=1, rng=rng,
    )
    operations = {
        "use": lambda: cpu.use(0.001),
        "sleep": lambda: sim.sleep(0.001),
        "statement": lambda: client._statement_hook("select", None),
    }
    calls: "dict[str, int]" = {}

    def body() -> None:
        for name, operation in operations.items():
            operation()
            calls[name] = sum(count_calls(operation)["caller"].values())

    sim.spawn(body)
    try:
        sim.run_for(1.0)
    finally:
        sim.shutdown()
    return calls


@functools.cache
def measured(group: str) -> "dict[str, int]":
    """The gated numbers of one :data:`BUDGETS` group."""
    if group == "write":
        calls = shape_calls(write_path_shapes())
        return {name: calls[name] - calls["empty"] for name in calls}
    if group == "program":
        return {
            f"{program} {url}": sum(layers.values())
            for program, row in layer_budget().items()
            for url, layers in row.items()
        }
    if group == "statement":
        return shape_calls(statement_path_shapes())
    return ping_calls() if group == "ping" else charge_path_calls()


@pytest.mark.parametrize("group", BUDGETS)
def test_work_stays_within_its_budget(group):
    calls = measured(group)
    assert calls.keys() >= BUDGETS[group].keys(), calls
    over = {name: calls[name] for name, bound in BUDGETS[group].items() if calls[name] > bound}
    assert not over, (calls, BUDGETS[group])


def test_a_further_row_costs_no_more_than_the_first():
    calls = measured("write")
    assert (calls["update3"] - calls["update"]) / 2 <= calls["update"], calls


def test_a_second_shard_adds_at_most_a_tenth_to_a_balance():
    calls = measured("program")
    assert calls["Balance cluster2"] <= 1.1 * calls["Balance cluster1"], calls


def test_a_busy_server_loop_fails_the_count_instead_of_hanging_it(monkeypatch):
    monkeypatch.setattr(harness, "POST_TIMEOUT", 0.2)
    server = DatabaseServer(build_database(population=PopulationConfig(customers=2))).start_in_thread()
    busy, release = threading.Event(), threading.Event()

    def block() -> None:
        busy.set()
        release.wait()

    try:
        server._post(block)
        busy.wait()  # the loop is not back in its select until released
        with pytest.raises(RuntimeError, match="did not return to its select"):
            count_calls(lambda: None, servers=(server,))
    finally:
        release.set()
        server.shutdown()
