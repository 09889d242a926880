"""Work-count gates.  A count of Python-level calls (profiler ``call``
events) or of lock acquisitions does not depend on the host, so a 2-core
runner passes or fails it for a reason.  Every call count is
:func:`repro.bench.harness.count_calls`'s over a shape ``bench_scaling.py``
or ``bench_net.py`` records; :func:`latch_counts` counts the locks and
:func:`retained_bytes` the memory a commit leaves behind.  Upper bounds
only: an interpreter that inlines more counts fewer."""

from __future__ import annotations

import functools
import gc
import math
import random
import threading
import tracemalloc

import pytest

import repro
from benchmarks.bench_net import ping_calls
from benchmarks.bench_scaling import (
    LAYER_URLS,
    draw_shapes,
    layer_budget,
    shape_calls,
    statement_path_shapes,
    write_path_shapes,
)
from repro.api import ISOLATION_CONFIGS
from repro.bench import harness
from repro.bench.harness import count_calls
from repro.errors import ApplicationRollback
from repro.net import DatabaseServer
from repro.sim.client import SimulatedClient
from repro.sim.core import Simulator
from repro.sim.platform import postgres_platform
from repro.sim.resources import GroupCommitLog, Resource
from repro.smallbank import (
    CHECKING,
    SAVING,
    PopulationConfig,
    build_database,
    get_strategy,
)
from repro.workload.mix import HotspotConfig, ParameterGenerator, get_mix
from repro.workload.stats import RunStats

#: Calls per program and URL of :func:`layer_budget` (client and every
#: server loop, the shards settled before counting stops); each is gated
#: at PROGRAM_MARGIN times it.  A cross-shard Amalgamate is 151 since its
#: decisions went out as one-way frames, no reply encoded, sent, read or
#: decoded (182 before).  Counted again
#: once a remote program call was one frame at each end of the wire: the
#: client sends and reads its ``CALL`` in one ``WireConnection.call`` and
#: checks its wire out and back in the session's own frames, the server
#: answers a read of one whole request where it reads it and commits the
#: program's transaction on the engine, the router routes, sends and
#: counts a one-shard program in one frame, and a cross-shard program
#: enters and leaves no snapshot or decision window (Balance 20 / 46 /
#: 62 / 62 and a cross-shard Amalgamate 251 before; 191 with the router's
#: windows; 24 / 49 / 65 / 65 and 275 before the engine ticked its clock,
#: took a row lock and appended a version in its own frames; 30 / 55 /
#: 72 / 72 and 300 before an UPDATE was one engine call).
PROGRAM_CALLS = {
    "Balance": (20, 33, 39, 39),
    "DepositChecking": (20, 33, 39, 39),
    "TransactSaving": (24, 37, 43, 43),
    "Amalgamate": (47, 60, 67, 151),
    "WriteCheck": (28, 41, 47, 47),
}
PROGRAM_MARGIN = 1.1

BUDGETS = {
    # Added to an empty begin + commit (5 calls, 7 while the clock ticked
    # in a frame of its own); 2 / 6 today (12 while a row lock, a version
    # append and the WAL's group-commit sync each took a frame, 17 when an
    # UPDATE was a read and a write).
    "write": {"read": 5, "update": 6},
    # 4 / 7 / 8 / 5 / 20 today (4 / 7 / 12 / 7 / 24 before the SET list
    # became one generated function and the engine half of a write lost
    # its helper frames; 6 / 9 / 14 / 7 / 30 before the plan was kept per
    # database, a result became a tuple and an UPDATE one engine call).
    "statement": {
        "get_saving": 4,  # GET_SAVING.execute: a key SELECT ... INTO
        "get_saving_sfu": 7,  # GET_SAVING_SFU.execute: the same, FOR UPDATE
        "add_checking": 8,  # ADD_CHECKING.execute: a key UPDATE
        "begin_commit": 5,  # session.begin() + session.commit(), nothing between (10 before)
        "balance": 20,  # SmallBankTransactions.run(session, "Balance", ...)
    },
    # TransactionMix.choose: its own frame, the draw and bisection in C; 1 today.
    # ParameterGenerator.args_for: its frame, one pick_customer frame per
    # customer (the draw in C) and one customer_name per name; 6 / 7 / 7 /
    # 12 / 7 before the draw moved into pick_customer.
    "draw": {
        "choose": 1,
        "args_for Balance": 3,
        "args_for DepositChecking": 3,
        "args_for TransactSaving": 3,
        "args_for Amalgamate": 6,
        "args_for WriteCheck": 3,
    },
    # session() + PING + close() on a pooled wire, client and server loop
    # apart; 8 / 8 today (14 / 11 while the reply was read through the
    # client's decoder, the pool took a frame each way and the server
    # queued every request before answering it).
    "ping": {"client": 10, "server": 8},
    # One simulated charge and one group-commit flush wait; 1 / 1 / 2 / 7
    # / 1 today, the clock moved in place and a refused CPU offer a queue
    # rotation (2 / 2 / 3 / 7 / 3 while each charge and sleep went through
    # the event heap; the flush was 13 with a SimEvent per waiter).
    "sim": {"use": 1, "sleep": 1, "statement": 2, "flush": 7, "use with a waiter": 1},
    "program": {
        f"{program} {url}": math.floor(PROGRAM_MARGIN * calls)
        for program, row in PROGRAM_CALLS.items()
        for url, calls in zip(LAYER_URLS, row)
    },
    # Lock acquisitions per transaction on local:// (the commit mutex for
    # begin, each S2PL lock or SSI read, each write and commit); 2 / 4 / 4
    # / 3 today, the update 4 while a writer also took the WAL's flush
    # mutex, and 3 / 7 / 7 / 7 with 64 row-latch stripes, a certifier
    # lock and a lock per transaction.
    "latch": {"select2 si": 2, "select2 s2pl": 4, "select2 ssi": 4, "update si": 3},
    # Bytes a committed balance60 request leaves behind on local://: its
    # versions, WAL record and redo entries; 310 today, 333 while a stored
    # row was a MappingProxyType over a private dict, 346 when records
    # were dataclasses and a redo entry nested its row id.
    "retained": {"balance60 local": 315},
}


class _CountingLock:
    """A lock that counts its acquisitions into ``counter[0]``."""

    def __init__(self, lock, counter: "list[int]") -> None:
        self._lock, self._counter = lock, counter

    def acquire(self, *args, **kwargs) -> bool:
        self._counter[0] += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self._lock.release()


def latch_counts() -> "dict[str, int]":
    """Lock acquisitions per transaction on one ``local://`` session, after
    a warm-up: begin, two key selects and commit under SI, S2PL and SSI,
    and begin, a one-row update and commit under SI.  Every lock built from
    ``threading.Lock`` / ``threading.RLock`` while the database is built
    and used counts; module-level ones built at import do not."""
    counter = [0]
    factories = threading.Lock, threading.RLock
    counts = {}
    threading.Lock = lambda: _CountingLock(factories[0](), counter)
    threading.RLock = lambda: _CountingLock(factories[1](), counter)
    try:
        for isolation in ("si", "s2pl", "ssi"):
            session = repro.connect(
                "local://",
                database=build_database(
                    ISOLATION_CONFIGS[isolation](), PopulationConfig(customers=10)
                ),
            ).session()
            shapes = {
                "select2": lambda c: (session.select(CHECKING, c), session.select(SAVING, c))
            }
            if isolation == "si":
                shapes["update"] = lambda c: session.update(CHECKING, c, {"Balance": 1.0})
            for name, body in shapes.items():
                for customer in (1, 2):  # the first is the warm-up
                    counter[0] = 0
                    session.begin("latch")
                    body(customer)
                    session.commit()
                counts[f"{name} {isolation}"] = counter[0]
    finally:
        threading.Lock, threading.RLock = factories
    return counts


def charge_path_calls() -> "dict[str, int]":
    """Calls per ``Resource.use``, ``Simulator.sleep``, statement charge
    and ``GroupCommitLog.commit_flush``, the operation's frame counted,
    inside one simulated process alone in its simulation (a profiler sees
    one thread, and the flush's scheduler work runs on it), after a
    warm-up; last, ``Resource.use`` again while a second process waits
    in the CPU's queue, so each release offers it the CPU and each
    re-take refuses that offer."""
    platform, sim, rng = postgres_platform(), Simulator(), random.Random(1)
    cpu = Resource(sim, capacity=platform.cpu_servers, name="cpu")
    wal = GroupCommitLog(sim, flush_time=platform.wal_flush_time)
    client = SimulatedClient(
        sim, build_database(platform.engine_config, PopulationConfig(customers=10)),
        platform, cpu, wal,
        get_strategy("base-si").transactions(), get_mix("uniform"),
        ParameterGenerator(HotspotConfig(customers=10, hotspot=2), rng),
        RunStats(window_start=0.0, window_end=1.0), mpl=1, rng=rng,
    )
    operations = {
        "use": lambda: cpu.use(0.001),
        "sleep": lambda: sim.sleep(0.001),
        "statement": lambda: client._statement_hook("select", None),
        "flush": lambda: wal.commit_flush(),
        "use with a waiter": lambda: cpu.use(0.001),
    }
    calls: "dict[str, int]" = {}

    def body() -> None:
        for name, operation in operations.items():
            if name == "use with a waiter":  # queues while the warm-up holds the CPU
                sim.spawn(lambda: cpu.use(0.001), name="waiter")
            operation()
            calls[name] = sum(count_calls(operation)["caller"].values())

    sim.spawn(body)
    try:
        sim.run_for(1.0)
    finally:
        sim.shutdown()
    return calls


def retained_bytes(requests: int = 5_000) -> "dict[str, float]":
    """Bytes still allocated (``tracemalloc``, after a collection) per
    committed request once ``requests`` ``balance60`` requests have run
    on one ``local://`` session, after a warm-up: what each commit leaves
    in the database until it is torn down."""
    customers, rng = 3_600, random.Random(7)
    session = repro.connect(
        "local://", database=build_database(population=PopulationConfig(customers=customers))
    ).session()
    mix, draw = get_mix("balance60"), ParameterGenerator(HotspotConfig(customers, 200), rng)
    programs = get_strategy("base-si").transactions()

    def run(count: int) -> int:
        committed = 0
        for _ in range(count):
            program = mix.choose(rng)
            try:
                programs.run(session, program, draw.args_for(program))
                committed += 1
            except ApplicationRollback:
                session.rollback()
        return committed

    run(500)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        committed = run(requests)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {"balance60 local": (after - before) / committed}


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
    if group == "draw":
        return shape_calls(draw_shapes())
    if group == "latch":
        return latch_counts()
    if group == "retained":
        return retained_bytes()
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
