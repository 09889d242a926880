"""Timed calls into each layer's public functions.

Every figure is the median over :data:`BATCHES` batches of one thread
calling one public function in a loop, reported per call.  They say what
a layer costs in isolation; the traced pass says what it costs inside a
transaction.
"""

from __future__ import annotations

import random
import statistics
import time

import repro
from repro.cluster import HashPartitioner, TimestampOracle
from repro.engine import EngineConfig
from repro.net.protocol import FrameDecoder, encode_frame
from repro.sim.core import Simulator
from repro.smallbank import PopulationConfig, build_database
from repro.smallbank import transactions as programs
from repro.sqlmini import PreparedStatement, parse
from repro.workload.mix import HotspotConfig, ParameterGenerator, get_mix

import loadgen

BATCHES = 9


def timed(action) -> float:
    started = time.perf_counter()
    action()
    return time.perf_counter() - started


def per_call_us(batch, calls: int, batches: int = BATCHES) -> float:
    """Median over ``batches`` runs of ``batch()`` (which makes ``calls``
    calls), in microseconds per call."""
    return statistics.median(
        timed(batch) / calls * 1e6 for _ in range(batches)
    )


def workload_layer(mix_name: str) -> dict:
    rng = random.Random("micro")
    mix = get_mix(mix_name)
    generator = ParameterGenerator(
        HotspotConfig(loadgen.CUSTOMERS, loadgen.HOTSPOT), rng
    )

    def batch():
        for _ in range(2_000):
            generator.args_for(mix.choose(rng))

    return {"workload.args_for_us": per_call_us(batch, 2_000)}


def smallbank_layer() -> dict:
    population = PopulationConfig(customers=loadgen.CUSTOMERS)
    seconds = per_call_us(
        lambda: build_database(EngineConfig.postgres(), population), 1, 3
    ) / 1e6
    return {"smallbank.build_database_s": seconds}


def sqlmini_layer() -> dict:
    texts = [
        statement.sql
        for statement in vars(programs).values()
        if isinstance(statement, PreparedStatement)
    ]

    def batch():
        for sql in texts:
            parse(sql)

    return {"sqlmini.parse_us": per_call_us(batch, len(texts))}


def engine_layer() -> dict:
    db = build_database(EngineConfig.postgres(), PopulationConfig(customers=400))
    session = repro.connect("local://", database=db).session()

    def empty():
        for _ in range(500):
            session.begin("micro")
            session.commit()

    def reads():
        session.begin("micro")
        for key in range(1, 401):
            session.select("Checking", key)
        session.commit()

    def writes():
        for key in range(1, 201):
            session.begin("micro")
            session.update("Checking", key, {"Balance": float(key)})
            session.commit()

    try:
        return {
            "engine.begin_commit_empty_us": per_call_us(empty, 500),
            # begin/commit amortised over 400 reads: under 1 % of a call.
            "engine.read_us": per_call_us(reads, 400),
            "engine.write_commit_us": per_call_us(writes, 200),
        }
    finally:
        session.close()


def net_codec() -> dict:
    request = {
        "op": "EXEC",
        "sid": 7,
        "params": {"x": 1234, "V": 42.17},
        "begin": "WriteCheck",
    }
    reply = {
        "ok": True,
        "rows": [{"Balance": 3141.59}],
        "rowcount": 1,
        "params": {"a": 3141.59},
        "begin_txid": 123456,
        "begin_snapshot_ts": 123455,
    }
    frames = encode_frame(request) + encode_frame(reply)
    decoder = FrameDecoder()

    def encode():
        for _ in range(1_000):
            encode_frame(request)
            encode_frame(reply)

    def decode():
        for _ in range(1_000):
            decoder.feed(frames)

    return {
        "net.encode_frame_us": per_call_us(encode, 2_000),
        "net.decode_frame_us": per_call_us(decode, 2_000),
    }


def net_live(host: str, port: int) -> dict:
    """Against a live server: the zero-engine-work RPC floor and the cost
    of a fresh connection (connect + first round trip)."""
    url = f"tcp://{host}:{port}"
    connection = repro.connect(url, pool_size=1, timeout=30.0)
    try:
        connection.ping()

        def pings():
            for _ in range(200):
                connection.ping()

        rtt = per_call_us(pings, 200)
    finally:
        connection.close()

    def connect():
        fresh = repro.connect(url, pool_size=1, timeout=30.0)
        try:
            fresh.ping()
        finally:
            fresh.close()

    return {
        "net.ping_rtt_us": rtt,
        "net.connect_ms": per_call_us(connect, 1) / 1e3,
    }


def cluster_inproc() -> dict:
    partitioner = HashPartitioner(2)
    oracle = TimestampOracle()

    def route():
        for key in range(2_000):
            partitioner.shard_for_row("Checking", key)

    def snapshots():
        for _ in range(2_000):
            with oracle.snapshot_window():
                pass

    def decisions():
        for _ in range(2_000):
            with oracle.decision_window():
                pass

    return {
        "cluster.route_us": per_call_us(route, 2_000),
        "cluster.oracle_snapshot_window_us": per_call_us(snapshots, 2_000),
        "cluster.oracle_decision_window_us": per_call_us(decisions, 2_000),
    }


def cluster_commit_pair(connection, pairs: int) -> dict:
    """Paired single-shard vs cross-shard update on a live 2-shard fleet,
    as ``bench_cluster.measure_2pc_overhead`` does: customers 1 and 2 sit
    on different shards, so the second transaction needs 2PC."""
    session = connection.session()

    def single(i: int) -> None:
        session.begin("FastDeposit")
        session.update("Checking", 1, {"Balance": float(i)})
        session.commit()

    def cross(i: int) -> None:
        session.begin("CrossTransfer")
        session.update("Checking", 1, {"Balance": float(i) + 1.0})
        session.update("Checking", 2, {"Balance": float(i) + 2.0})
        session.commit()

    fast, twopc = [], []
    try:
        for i in range(pairs):
            fast.append(timed(lambda: single(i)))
            twopc.append(timed(lambda: cross(i)))
    finally:
        session.close()
    return {
        "cluster.fastpath_commit_us": statistics.median(fast) * 1e6,
        "cluster.twopc_commit_us": statistics.median(twopc) * 1e6,
    }


def sim_layer() -> dict:
    def events():
        sim = Simulator()
        for i in range(5_000):
            sim.schedule(i * 1e-6, lambda: None)
        sim.run_for(1.0)

    def handoffs():
        sim = Simulator()

        def sleeper():
            for _ in range(2_000):
                sim.sleep(1e-6)

        sim.spawn(sleeper)
        try:
            sim.run_for(1.0)
        finally:
            sim.shutdown()

    return {
        "sim.event_us": per_call_us(events, 5_000),
        # One sleep = scheduler -> process thread -> scheduler.
        "sim.handoff_us": per_call_us(handoffs, 2_000),
    }
