"""Scaling benchmark: threaded throughput of the one-latch engine.

Two measurements, both on real OS threads (the GIL serializes the
interpreter, so the engine cannot exceed single-core throughput — what the
benchmark demonstrates is that the latch-free SI read path and the one
short-held commit mutex, DESIGN.md §9, add no serialization or convoy
overhead of the *engine's own*):

* **SI read microbenchmark** — MPL long-lived snapshot transactions each
  hammer ``Database.read`` on a shared table; the gate is that the
  aggregate rate at MPL 8 stays near the MPL-1 rate (no convoy).  Each
  point, like each TPS point below, runs pinned to the lowest allowed
  CPU (:func:`pinned`; the record's ``provenance`` block lists them).  (The
  comparison with the pre-§9 global-mutex engine, 3.6x at MPL 8, is a
  dated measurement in EXPERIMENTS.md.)

* **SmallBank TPS curves** — the threaded closed-system driver runs the
  ``readonly`` and ``balance60`` mixes under SI, S2PL and SSI at
  MPL ∈ {1, 4, 8, 16, 30} (the smoke run: both mixes at MPL 1 and 8, so
  CI's MPL-8 points exercise the write path too).

* **Write path** — what a read, a one-row and a three-row update add to
  an empty transaction on one thread: microseconds (recorded, never
  gated) and Python-level call counts (host-independent; gated in tier-1
  by ``tests/test_work_budget.py``).

* **Statement path** — the same two figures for SmallBank's prepared
  statements on a ``Session``: a key ``SELECT ... INTO``, its ``FOR
  UPDATE`` form, a key ``UPDATE``, an empty ``begin`` + ``commit`` and a
  whole Balance (counts gated by the same file).

* **Draw** — the same two figures for the driver's pick of each
  request's program, ``TransactionMix.choose`` on the ``balance60`` mix,
  and for each program's ``ParameterGenerator.args_for`` (counts gated
  by the same file).

* **Hand-off** — one simulated baton pass (``repro.sim``, what every
  figure runs on) on one pinned CPU: microseconds and kernel context
  switches per pass in a ring of 2 and of 20 processes.  A pass is one
  switch when the processes run under ``SCHED_BATCH``; the run exits
  non-zero above :data:`MAX_SWITCHES_PER_PASS`.

* **Layer budget** — the calls of each SmallBank program by ``repro``
  layer on ``local://``, ``tcp://`` and ``cluster://`` at 1 and 2 shards
  (totals gated by the same file).  Every count is ``count_calls``'s.

* **Latency histograms** — SI, S2PL and SSI on ``balance60`` with an
  :class:`~repro.obs.Observability` installed; each registry must pass
  :func:`check_metrics` (the run exits non-zero otherwise).

Results are appended to ``BENCH_engine.json`` at the repo root so the
performance trajectory is tracked across PRs (CI uploads it as an
artifact).

Run the CI smoke version (reduced grid, relaxed assertions) with::

    PYTHONPATH=src python benchmarks/bench_scaling.py --smoke

the full version (tighter retention floor, full grid) with::

    PYTHONPATH=src python benchmarks/bench_scaling.py

or the pytest variant with::

    PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py -q
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import random
import resource
import statistics
import threading
import time
from pathlib import Path
from typing import Callable

import repro
from repro.bench.harness import append_bench_record, count_calls
from repro.cluster import Cluster
from repro.engine import EngineConfig, Session
from repro.engine.engine import Database
from repro.net import DatabaseServer
from repro.obs import Observability
from repro.sim.core import Simulator
from repro.smallbank import (
    AMALGAMATE,
    BALANCE,
    CHECKING,
    PROGRAM_NAMES,
    SAVING,
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
)
from repro.smallbank.transactions import (
    ADD_CHECKING,
    GET_SAVING,
    GET_SAVING_SFU,
    SmallBankTransactions,
)
from repro.workload.driver import ThreadedDriver, ThreadedDriverConfig
from repro.workload.mix import BALANCE60_MIX, HotspotConfig, ParameterGenerator

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"

MPLS = (1, 4, 8, 16, 30)
SMOKE_MPLS = (1, 8)
ISOLATION_CONFIGS = {
    "si": EngineConfig.postgres,
    "s2pl": EngineConfig.s2pl,
    "ssi": EngineConfig.ssi,
}


# ----------------------------------------------------------------------
# Pinning: one allowed CPU while a threaded point measures
# ----------------------------------------------------------------------
@contextlib.contextmanager
def pinned():
    """Pin this thread -- and so every thread it starts -- to the lowest
    CPU it may run on, restoring its affinity on exit.  A Python process
    runs its threads on one CPU at a time anyway; pinned, a threaded
    point measures the engine, not the GIL moving between CPUs."""
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, affinity)


# ----------------------------------------------------------------------
# SI read microbenchmark
# ----------------------------------------------------------------------
def measure_read_rate(
    db: Database, mpl: int, duration: float, customers: int
) -> float:
    """Aggregate ``Database.read`` calls/second across ``mpl`` threads.

    Each thread opens one snapshot transaction and reads Checking rows in
    a cycle for ``duration`` seconds — the pure read path, no commits in
    the timed window.
    """
    barrier = threading.Barrier(mpl + 1)
    stop = threading.Event()
    counts = [0] * mpl
    errors: list[BaseException] = []

    def worker(idx: int) -> None:
        try:
            txn = db.begin(f"bench-reader-{idx}")
            keys = itertools.cycle(range(1, customers + 1))
            read = db.read
            is_set = stop.is_set
            barrier.wait()
            n = 0
            while not is_set():
                read(txn, CHECKING, next(keys))
                n += 1
            counts[idx] = n
            db.abort(txn)
        except BaseException as exc:  # pragma: no cover - diagnostics
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(mpl)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    time.sleep(duration)
    stop.set()
    elapsed = time.perf_counter() - start
    for t in threads:
        t.join(timeout=30.0)
    if errors:
        raise errors[0]
    return sum(counts) / elapsed


def run_read_scaling(
    mpls: "tuple[int, ...]", duration: float, customers: int = 100
) -> dict:
    """Reads/second by MPL (``{"lockfree": {mpl: rate}}``, the record
    shape since the first BENCH_engine.json entry), each point
    :func:`pinned`."""
    rates = {}
    for mpl in mpls:
        db = build_database(
            EngineConfig.postgres(), PopulationConfig(customers=customers)
        )
        with pinned():
            rates[str(mpl)] = round(measure_read_rate(db, mpl, duration, customers))
    return {"lockfree": rates}


# ----------------------------------------------------------------------
# SmallBank TPS curves
# ----------------------------------------------------------------------
def measure_tps(
    isolation: str, mpl: int, mix: str, duration: float, customers: int = 100
) -> dict:
    config = ISOLATION_CONFIGS[isolation]()
    db = build_database(config, PopulationConfig(customers=customers))
    driver = ThreadedDriver(
        db,
        get_strategy("base-si").transactions(),
        ThreadedDriverConfig(
            mpl=mpl,
            customers=customers,
            hotspot=10,
            mix=mix,
            duration=duration,
            seed=7,
        ),
    )
    with pinned():
        stats = driver.run()
    return {
        "tps": round(stats.tps, 1),
        "aborts": stats.abort_count(),
        "abort_rate": round(stats.abort_rate(), 4),
    }


def run_tps_curves(mpls: "tuple[int, ...]", duration: float) -> dict:
    out: dict = {}
    for isolation in ISOLATION_CONFIGS:
        out[isolation] = {}
        for mix in ("readonly", "balance60"):
            out[isolation][mix] = {
                str(mpl): measure_tps(isolation, mpl, mix, duration)
                for mpl in mpls
            }
    return out


# ----------------------------------------------------------------------
# Write path: what a statement adds to an empty transaction
# ----------------------------------------------------------------------
def write_path_shapes() -> "dict[str, Callable[[], None]]":
    """One-transaction bodies over a fresh SI SmallBank database with no
    fault plan, observer or observability installed.  Each call moves on
    to the next customer: ``update`` writes a row not written before
    (until 100 have been), ``update3`` two such rows and the one the call
    before it wrote."""
    customers = 100
    session = Session(
        build_database(EngineConfig.postgres(), PopulationConfig(customers=customers))
    )
    fresh = itertools.count(1)

    def empty() -> None:
        session.begin("write-path")
        session.commit()

    def read() -> None:
        session.begin("write-path")
        session.select(CHECKING, next(fresh) % customers + 1)
        session.commit()

    def update() -> None:
        session.begin("write-path")
        session.update(CHECKING, next(fresh) % customers + 1, {"Balance": 1.0})
        session.commit()

    def update3() -> None:
        c = next(fresh) % customers + 1
        session.begin("write-path")
        session.update(CHECKING, c, {"Balance": 1.0})
        session.update(SAVING, c, {"Balance": 1.0})
        session.update(CHECKING, c % customers + 1, {"Balance": 1.0})
        session.commit()

    return {"empty": empty, "read": read, "update": update, "update3": update3}


def statement_path_shapes() -> "dict[str, Callable[[], None]]":
    """SmallBank statement bodies over a fresh SI SmallBank database with
    no hook, fault plan, observer or observability installed.  The three
    statements run inside one transaction left open on a session of their
    own; the empty transaction and Balance run on a second session."""
    customers = 100
    db = build_database(EngineConfig.postgres(), PopulationConfig(customers=customers))
    inside, outside = Session(db), Session(db)
    inside.begin("statement-path")
    fresh = itertools.count(1)
    names = [customer_name(c) for c in range(1, customers + 1)]
    programs = SmallBankTransactions()

    def get_saving() -> None:
        GET_SAVING.execute(inside, {"x": next(fresh) % customers + 1})

    def get_saving_sfu() -> None:
        GET_SAVING_SFU.execute(inside, {"x": next(fresh) % customers + 1})

    def add_checking() -> None:
        ADD_CHECKING.execute(inside, {"x": next(fresh) % customers + 1, "V": 1.0})

    def begin_commit() -> None:
        outside.begin("statement-path")
        outside.commit()

    def balance() -> None:
        programs.run(outside, "Balance", {"N": names[next(fresh) % customers]})

    return {
        "get_saving": get_saving,
        "get_saving_sfu": get_saving_sfu,
        "add_checking": add_checking,
        "begin_commit": begin_commit,
        "balance": balance,
    }


def draw_shapes() -> "dict[str, Callable[[], None]]":
    """One program drawn by the ``balance60`` mix, as every driver draws
    each request's program, and one draw of each program's parameters
    (``args_for <program>``), as every driver draws them."""
    rng = random.Random(1)
    generator = ParameterGenerator(HotspotConfig(customers=100, hotspot=10), rng)
    shapes = {"choose": lambda: BALANCE60_MIX.choose(rng)}
    for program in PROGRAM_NAMES:
        shapes[f"args_for {program}"] = lambda p=program: generator.args_for(p)
    return shapes


def shape_calls(shapes: "dict[str, Callable[[], None]]") -> "dict[str, int]":
    """Python-level calls per shape, after one unmeasured run."""
    counts = {}
    for name, shape in shapes.items():
        shape()
        counts[name] = sum(count_calls(shape)["caller"].values())
    return counts


def shape_micros(shapes: "dict[str, Callable[[], None]]") -> "dict[str, float]":
    """Microseconds per shape: median of 9 batches of 300, one thread."""
    micros = {}
    for name, shape in shapes.items():
        samples = []
        for _ in range(1 + 9):  # the first batch warms up
            started = time.perf_counter()
            for _ in range(300):
                shape()
            samples.append((time.perf_counter() - started) / 300 * 1e6)
        micros[name] = round(statistics.median(samples[1:]), 2)
    return micros


def measure_write_path() -> dict:
    """The ``write_path`` block of a run record: microseconds and calls
    for an empty, a one-read, a one-update and a three-update
    transaction."""
    return {
        "us_per_txn": shape_micros(write_path_shapes()),
        "python_calls_per_txn": shape_calls(write_path_shapes()),
    }


def measure_per_op(shapes: "Callable[[], dict[str, Callable[[], None]]]") -> dict:
    """The ``statement_path`` (:func:`statement_path_shapes`) or ``draw``
    (:func:`draw_shapes`) block of a run record: microseconds and calls
    per operation."""
    return {
        "us_per_op": shape_micros(shapes()),
        "python_calls_per_op": shape_calls(shapes()),
    }


# ----------------------------------------------------------------------
# Hand-off: one simulated baton pass
# ----------------------------------------------------------------------
#: Ceiling on kernel context switches per baton pass on one CPU.  Under
#: ``SCHED_BATCH`` a pass reads 1.00-1.02; under the default policy 3.2-3.4
#: (the woken thread preempts its waker, finds the GIL held and sleeps
#: again: DESIGN.md §3).
MAX_SWITCHES_PER_PASS = 1.2
HANDOFF_PROCESSES = (2, 20)


def handoff(processes: int, passes: int = 4000) -> dict:
    """Microseconds and context switches (``ru_nvcsw + ru_nivcsw`` of the
    whole process) per baton pass: a ring of ``processes`` simulated
    processes, each calling ``sim.sleep(1e-6)`` ``passes // processes``
    times, so every sleep hands the baton to the next thread.  The
    calling thread, and so every process thread, is pinned to one
    allowed CPU for the ring."""
    sim, laps = Simulator(), passes // processes

    def ring() -> None:
        for _ in range(laps):
            sim.sleep(1e-6)

    with pinned():
        for _ in range(processes):
            sim.spawn(ring)
        before, started = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        sim.run_for(1.0)
        wall, after = time.perf_counter() - started, resource.getrusage(resource.RUSAGE_SELF)
        sim.shutdown()
    switches = after.ru_nvcsw + after.ru_nivcsw - before.ru_nvcsw - before.ru_nivcsw
    return {
        "us_per_pass": round(wall / (laps * processes) * 1e6, 2),
        "switches_per_pass": round(switches / (laps * processes), 3),
    }


# ----------------------------------------------------------------------
# Layer budget: one SmallBank program on every URL, by layer
# ----------------------------------------------------------------------
#: ``layer_budget``'s URLs and the shards behind each (``None``: ``local://``).
LAYER_URLS = {"local": None, "tcp": 0, "cluster1": 1, "cluster2": 2}


def layer_budget() -> dict:
    """``{program: {url: {layer: calls}}}``: one ``base-si`` run of each
    SmallBank program after an unmeasured one, counted on this thread
    plus every server loop behind the URL.  Customers 1 and 2 live on
    different shards of ``cluster2``: its Amalgamate commits across both."""
    customers = 10
    txns = get_strategy("base-si").transactions()
    one, two = customer_name(1), customer_name(2)
    args = {program: {"N": one, "V": 1.0} for program in PROGRAM_NAMES}
    args.update({BALANCE: {"N": one}, AMALGAMATE: {"N1": one, "N2": two}})
    budget: dict = {program: {} for program in PROGRAM_NAMES}
    for url, shards in LAYER_URLS.items():
        with contextlib.ExitStack() as stack:
            db = build_database(EngineConfig.postgres(), PopulationConfig(customers=customers))
            if shards is None:
                servers, conn = (), repro.connect("local://", database=db)
            elif shards == 0:
                servers = (DatabaseServer(db).start_in_thread(),)
                stack.callback(servers[0].shutdown)
                conn = repro.connect(f"tcp://127.0.0.1:{servers[0].port}")
            else:
                cluster = stack.enter_context(Cluster(shards, customers=customers, record=False))
                servers, conn = [shard.server for shard in cluster.shards], cluster.connect()
            session = stack.enter_context(conn).session()
            stack.callback(session.close)
            for program, run_args in args.items():
                txns.run(session, program, run_args)
                sides = count_calls(lambda: txns.run(session, program, run_args), servers=servers)
                layers = sides["caller"].copy()
                layers.update(sides["servers"])  # exact: no layer clipped at 0
                budget[program][url] = {layer: n for layer, n in layers.items() if n}
    return budget


# ----------------------------------------------------------------------
# Observability snapshot (latency histograms per isolation level)
# ----------------------------------------------------------------------
#: Instruments both expositions must carry, whether or not they fired.
EXPOSED_METRICS = (
    "repro_wal_batch_size",
    "repro_ssi_aborts_total",
    "repro_response_time_seconds",
    "repro_lock_wait_seconds",
)


def check_metrics(isolation: str, obs: Observability) -> "list[str]":
    """What is wrong with the registry of one threaded ``balance60`` run
    under ``isolation``; empty when it passes.  Only S2PL must have
    waited for a row lock."""
    failures = []
    rt = obs.response_time
    if rt.count == 0:
        failures.append("response-time histogram is empty")
    if not 0.0 < rt.p95 <= 10.0:
        failures.append(f"response-time p95 {rt.p95} outside (0, 10s]")
    if isolation == "s2pl" and obs.lock_wait.count == 0:
        failures.append("no lock waits recorded under S2PL")
    if obs.wal_batch.count == 0:
        failures.append("WAL batch-size histogram is empty")
    if obs.commits.value == 0:
        failures.append("no commits counted")
    expositions = {"JSON": obs.metrics.to_json(), "Prometheus": obs.metrics.to_prometheus()}
    for name in EXPOSED_METRICS:
        for kind, exposition in expositions.items():
            if name not in exposition:
                failures.append(f"{name} missing from the {kind} exposition")
    return [f"{isolation}: {failure}" for failure in failures]


def _histogram_summary(h) -> dict:
    return {
        "count": h.count,
        "mean_ms": round(h.mean * 1000, 3),
        "p50_ms": round(h.p50 * 1000, 3),
        "p95_ms": round(h.p95 * 1000, 3),
        "p99_ms": round(h.p99 * 1000, 3),
    }


def collect_metrics_snapshot(
    mpl: int, duration: float, customers: int = 100
) -> "tuple[dict, list[str]]":
    """Run SI, S2PL and SSI on the balance60 mix with an
    :class:`~repro.obs.Observability` installed and distill the histograms
    the trajectory tracks: response time, lock wait, commit path, WAL
    group-commit batch size and the SSI false-positive abort counter.
    Returns the snapshot and every run's :func:`check_metrics` failures."""
    out: dict = {"mpl": mpl, "mix": "balance60"}
    failures: list[str] = []
    for isolation in ISOLATION_CONFIGS:
        obs = Observability()
        db = build_database(
            ISOLATION_CONFIGS[isolation](),
            PopulationConfig(customers=customers),
        )
        driver = ThreadedDriver(
            db,
            get_strategy("base-si").transactions(),
            ThreadedDriverConfig(
                mpl=mpl,
                customers=customers,
                hotspot=10,
                mix="balance60",
                duration=duration,
                seed=7,
            ),
            obs=obs,
        )
        driver.run()
        failures += check_metrics(isolation, obs)
        m = obs.metrics
        wal_batch = m.histogram("repro_wal_batch_size")
        out[isolation] = {
            "response_time": _histogram_summary(
                m.histogram("repro_response_time_seconds")
            ),
            "lock_wait": _histogram_summary(
                m.histogram("repro_lock_wait_seconds")
            ),
            "commit_path": _histogram_summary(
                m.histogram("repro_commit_path_seconds")
            ),
            "wal_batch": {
                "count": wal_batch.count,
                "mean": round(wal_batch.mean, 2),
                "p95": round(wal_batch.p95, 2),
            },
            "lock_waits": int(m.counter("repro_lock_waits_total").value),
            "ssi_aborts": int(m.counter("repro_ssi_aborts_total").value),
        }
    return out, failures


# ----------------------------------------------------------------------
# pytest entry points (not part of tier-1: testpaths excludes benchmarks/)
# ----------------------------------------------------------------------
def test_read_throughput_survives_mpl() -> None:
    """No convoy: MPL-8 aggregate read rate stays near the MPL-1 rate."""
    scaling = run_read_scaling((1, 8), duration=0.6)
    retention = scaling["lockfree"]["8"] / scaling["lockfree"]["1"]
    assert retention >= 0.5, f"MPL-8/MPL-1 retention {retention:.2f} < 0.5"


def test_all_isolation_levels_make_progress_threaded() -> None:
    for isolation in ISOLATION_CONFIGS:
        result = measure_tps(isolation, mpl=16, mix="balance60", duration=0.5)
        assert result["tps"] > 0, f"{isolation} made no progress at MPL 16"


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced grid + CI-safe assertion margins",
    )
    parser.add_argument(
        "--no-json", action="store_true",
        help="skip appending to BENCH_engine.json",
    )
    args = parser.parse_args(argv)

    mpls = SMOKE_MPLS if args.smoke else MPLS
    read_duration = 0.6 if args.smoke else 1.0
    tps_duration = 0.5 if args.smoke else 1.0
    # Smoke keeps a margin wide enough for noisy shared CI runners.
    min_retention = 0.5 if args.smoke else 0.6

    print(f"== SI read microbenchmark (reads/s, {read_duration:.1f}s/point, "
          f"pinned to CPU {min(os.sched_getaffinity(0))}) ==")
    scaling = run_read_scaling(mpls, read_duration)
    for mpl in mpls:
        print(f"  MPL {mpl:>2}: {scaling['lockfree'][str(mpl)]:>9,d}/s")
    retention = scaling["lockfree"]["8"] / scaling["lockfree"]["1"]
    print(f"  MPL-8 / MPL-1 retention: {retention:.2f} (floor {min_retention})")

    print(f"== SmallBank threaded TPS ({tps_duration:.1f}s/point, pinned) ==")
    curves = run_tps_curves(mpls, tps_duration)
    for isolation, by_mix in curves.items():
        for mix, by_mpl in by_mix.items():
            points = "  ".join(
                f"mpl{mpl}={by_mpl[str(mpl)]['tps']:.0f}" for mpl in mpls
            )
            print(f"  {isolation:<5} {mix:<10} {points}")

    metrics_mpl = 8 if args.smoke else 20
    print(f"== Latency histograms (balance60, MPL {metrics_mpl}) ==")
    metrics, metric_failures = collect_metrics_snapshot(metrics_mpl, tps_duration)
    for isolation in ISOLATION_CONFIGS:
        snap = metrics[isolation]
        print(
            f"  {isolation:<5} rt p95 {snap['response_time']['p95_ms']:8.3f}ms"
            f"   lock-wait p95 {snap['lock_wait']['p95_ms']:8.3f}ms"
            f"   wal batch mean {snap['wal_batch']['mean']:5.2f}"
            f"   ssi aborts {snap['ssi_aborts']}"
        )

    print("== Read-only SSI / SI tps (recorded, not gated) ==")
    ssi_over_si = {
        str(mpl): round(
            curves["ssi"]["readonly"][str(mpl)]["tps"]
            / curves["si"]["readonly"][str(mpl)]["tps"],
            3,
        )
        for mpl in mpls
    }
    for mpl, ratio in ssi_over_si.items():
        print(f"  MPL {mpl:>2}: {ratio:.3f}")

    write_path = measure_write_path()
    print("== Write path (one thread, per transaction; recorded, not gated) ==")
    for name, micros in write_path["us_per_txn"].items():
        calls = write_path["python_calls_per_txn"][name]
        print(f"  {name:<8} {micros:7.2f} us  {calls:3d} Python-level calls")
    statement_path, draw = measure_per_op(statement_path_shapes), measure_per_op(draw_shapes)
    for title, block in (("Statement path", statement_path), ("Draw", draw)):
        print(f"== {title} (one thread, per operation; recorded, not gated) ==")
        for name, micros in block["us_per_op"].items():
            calls = block["python_calls_per_op"][name]
            print(f"  {name:<26} {micros:7.2f} us  {calls:3d} Python-level calls")
    handoffs = {str(n): handoff(n) for n in HANDOFF_PROCESSES}
    print("== Hand-off (one simulated baton pass, one pinned CPU) ==")
    for n, point in handoffs.items():
        print(f"  {n:>2} processes {point['us_per_pass']:7.2f} us  "
              f"{point['switches_per_pass']:5.3f} context switches")
    budget = layer_budget()
    print("== Python-level calls per program, by URL (recorded, not gated) ==")
    print(f"  {'':<16}" + "".join(f"{url:>10}" for url in LAYER_URLS))
    for program, row in budget.items():
        print(f"  {program:<16}" + "".join(f"{sum(row[url].values()):>10}" for url in LAYER_URLS))

    failures = 0
    if retention < min_retention:
        print(f"FAIL: MPL-8/MPL-1 retention {retention:.2f} below {min_retention}")
        failures += 1
    for isolation, by_mix in curves.items():
        for mix, by_mpl in by_mix.items():
            if any(p["tps"] <= 0 for p in by_mpl.values()):
                print(f"FAIL: {isolation}/{mix} made no progress")
                failures += 1
    for failure in metric_failures:
        print(f"FAIL: {failure}")
        failures += 1
    for n, point in handoffs.items():
        if point["switches_per_pass"] > MAX_SWITCHES_PER_PASS:
            print(f"FAIL: a baton pass among {n} processes took "
                  f"{point['switches_per_pass']} context switches "
                  f"(ceiling {MAX_SWITCHES_PER_PASS})")
            failures += 1

    if not args.no_json:
        append_bench_record(
            BENCH_JSON,
            "bench_scaling",
            {
                "mode": "smoke" if args.smoke else "full",
                "read_scaling": scaling,
                "mpl8_over_mpl1_retention": round(retention, 2),
                "smallbank_tps": curves,
                "metrics": metrics,
                "ssi_over_si_readonly": ssi_over_si,
                "write_path": write_path,
                "statement_path": statement_path,
                "draw": draw,
                "handoff": handoffs,
                "layer_budget": budget,
            }
        )
        print(f"appended run record to {BENCH_JSON.name}")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
