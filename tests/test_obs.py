"""The observability layer: metrics instruments, trace events, engine
wiring, and a traced threaded run certified after the fact."""

from __future__ import annotations

import math
import threading
from collections import Counter

import pytest

from benchmarks.bench_scaling import check_metrics
from repro.analysis import check_history
from repro.engine import Database, EngineConfig
from repro.obs import (
    EVENT_KINDS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    Observability,
    TraceEvent,
    TraceRecorder,
)
from repro.sim.runner import SimulationConfig, run_once
from repro.smallbank import PopulationConfig, build_database, get_strategy
from repro.workload.driver import ThreadedDriver, ThreadedDriverConfig
from repro.workload.retry import RetryPolicy
from tests.conftest import bank_schemas, make_bank_db


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestCounterAndGauge:
    def test_counter_accumulates(self) -> None:
        registry = MetricsRegistry()
        c = registry.counter("hits_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self) -> None:
        c = MetricsRegistry().counter("hits_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self) -> None:
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.dec(2)
        g.inc(0.5)
        assert g.value == 3.5


class TestHistogram:
    def test_count_sum_mean(self) -> None:
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(5.0)
        assert h.mean == pytest.approx(5.0 / 3.0)

    def test_empty_quantile_is_zero(self) -> None:
        h = MetricsRegistry().histogram("lat")
        assert h.p50 == 0.0 and h.p99 == 0.0

    def test_quantile_interpolates_within_bucket(self) -> None:
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        for _ in range(10):
            h.observe(1.5)  # all mass in the (1, 2] bucket
        # Any quantile lands inside that bucket's bounds.
        assert 1.0 <= h.p50 <= 2.0
        assert 1.0 <= h.p99 <= 2.0

    def test_quantile_stays_inside_the_observed_range(self) -> None:
        h = MetricsRegistry().histogram("batch", buckets=(1.0, 2.0))
        for _ in range(20):
            h.observe(1.0)  # all at the bucket's upper bound
        assert h.quantile(0.95) == 1.0 and h.p50 == 1.0
        h.observe(1.25)
        assert 1.0 <= h.quantile(0.99) <= 1.25

    def test_overflow_clamps_to_last_finite_bound(self) -> None:
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        h.observe(100.0)  # +Inf bucket
        assert h.p99 == 2.0
        assert math.isfinite(h.quantile(1.0))

    def test_cumulative_bucket_counts_end_at_inf(self) -> None:
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 9.0):
            h.observe(v)
        buckets = h.bucket_counts()
        assert buckets[-1] == (float("inf"), 3)
        counts = [c for _bound, c in buckets]
        assert counts == sorted(counts)  # cumulative: monotone

    def test_rejects_unsorted_buckets(self) -> None:
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(2.0, 1.0))

    def test_default_buckets_span_latency_range(self) -> None:
        assert LATENCY_BUCKETS[0] <= 0.0001 and LATENCY_BUCKETS[-1] >= 5.0

    def test_thread_safe_observe(self) -> None:
        h = MetricsRegistry().histogram("lat", buckets=(1.0,))

        def hammer() -> None:
            for _ in range(1000):
                h.observe(0.5)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4000


class TestRegistry:
    def test_get_or_create_is_idempotent(self) -> None:
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_labels_make_distinct_series(self) -> None:
        registry = MetricsRegistry()
        a = registry.counter("x_total", labels={"program": "Balance"})
        b = registry.counter("x_total", labels={"program": "WriteCheck"})
        assert a is not b
        a.inc()
        assert b.value == 0

    def test_kind_conflict_is_an_error(self) -> None:
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")
        with pytest.raises(ValueError):
            registry.histogram("thing", labels={"l": "1"})

    def test_json_exposition_shape(self) -> None:
        registry = MetricsRegistry()
        registry.counter("c_total", help="a counter").inc(2)
        h = registry.histogram("h_seconds", buckets=(1.0,))
        h.observe(0.5)
        data = registry.to_json()
        assert data["c_total"]["type"] == "counter"
        assert data["c_total"]["help"] == "a counter"
        assert data["c_total"]["series"][0]["value"] == 2
        series = data["h_seconds"]["series"][0]
        assert series["count"] == 1
        assert "+Inf" in series["buckets"]

    def test_prometheus_exposition_format(self) -> None:
        registry = MetricsRegistry()
        registry.counter("c_total", labels={"reason": "ssi"}, help="hi").inc()
        h = registry.histogram("h_seconds", buckets=(1.0, 2.0))
        h.observe(1.5)
        text = registry.to_prometheus()
        assert "# HELP c_total hi" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{reason="ssi"} 1.0' in text
        assert 'h_seconds_bucket{le="1.0"} 0' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_sum 1.5" in text
        assert "h_seconds_count 1" in text


# ----------------------------------------------------------------------
# Trace events
# ----------------------------------------------------------------------
class TestTrace:
    def test_unknown_kind_rejected(self) -> None:
        with pytest.raises(ValueError):
            TraceEvent(at=0.0, kind="mystery", txid=1)

    def test_json_round_trip_restores_row_tuple(self) -> None:
        event = TraceEvent(
            at=1.5, kind="read", txid=7, label="Balance",
            detail={"row": ("Checking", 3), "version_ts": 4},
        )
        import json

        restored = TraceEvent.from_json(json.loads(json.dumps(event.to_json())))
        assert restored.detail["row"] == ("Checking", 3)
        assert restored.kind == "read" and restored.txid == 7

    def test_jsonl_round_trip(self, tmp_path) -> None:
        recorder = TraceRecorder()
        recorder.emit("begin", 1, "Balance", at=0.0, snapshot_ts=0)
        recorder.emit("read", 1, "Balance", at=0.1,
                      row=("Checking", 1), version_ts=0)
        recorder.emit("commit", 1, "Balance", at=0.2, commit_ts=1)
        path = tmp_path / "trace.jsonl"
        assert recorder.dump_jsonl(path) == 3
        reloaded = TraceRecorder.load_jsonl(path)
        assert [e.kind for e in reloaded.events] == ["begin", "read", "commit"]
        assert reloaded.events[1].detail["row"] == ("Checking", 1)

    def test_write_skew_trace_is_not_serializable(self) -> None:
        """A hand-built SI write-skew history fails the MVSG bridge."""
        recorder = TraceRecorder()
        # T1 and T2 share a snapshot, each reads both rows, each writes one.
        for txid in (1, 2):
            recorder.emit("begin", txid, f"T{txid}", at=0.0, snapshot_ts=0)
            for key in ("x", "y"):
                recorder.emit("read", txid, f"T{txid}", at=0.1,
                              row=("T", key), version_ts=0)
        recorder.emit("write", 1, "T1", at=0.2, row=("T", "x"))
        recorder.emit("write", 2, "T2", at=0.2, row=("T", "y"))
        recorder.emit("commit", 1, "T1", at=0.3, commit_ts=1)
        recorder.emit("commit", 2, "T2", at=0.4, commit_ts=2)
        report = check_history(recorder.committed_transactions())
        assert not report.serializable

    def test_serial_trace_is_serializable(self) -> None:
        recorder = TraceRecorder()
        recorder.emit("begin", 1, "T1", at=0.0, snapshot_ts=0)
        recorder.emit("write", 1, "T1", at=0.1, row=("T", "x"))
        recorder.emit("commit", 1, "T1", at=0.2, commit_ts=1)
        recorder.emit("begin", 2, "T2", at=0.3, snapshot_ts=1)
        recorder.emit("read", 2, "T2", at=0.4, row=("T", "x"), version_ts=1)
        recorder.emit("commit", 2, "T2", at=0.5, commit_ts=2)
        report = check_history(recorder.committed_transactions())
        assert report.serializable and report.committed_count == 2

    def test_own_write_reads_excluded_from_footprint(self) -> None:
        recorder = TraceRecorder()
        recorder.emit("begin", 1, "T1", at=0.0, snapshot_ts=0)
        recorder.emit("write", 1, "T1", at=0.1, row=("T", "x"))
        recorder.emit("read", 1, "T1", at=0.2, row=("T", "x"), version_ts=-1)
        recorder.emit("commit", 1, "T1", at=0.3, commit_ts=1)
        (txn,) = recorder.committed_transactions()
        assert txn.reads == ()
        assert txn.writes == (("T", "x"),)

    def test_event_kinds_cover_engine_hooks(self) -> None:
        assert {"begin", "read", "write", "commit", "abort",
                "lock-wait-start", "lock-wait-end",
                "wal-stage", "wal-flush"} == set(EVENT_KINDS)


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------
class TestEngineWiring:
    def test_lifecycle_events_and_metrics(self) -> None:
        db = make_bank_db()
        obs = Observability(trace=TraceRecorder())
        db.install_observability(obs)
        txn = db.begin("demo")
        db.read(txn, "Checking", 1)
        db.write(txn, "Checking", 1, {"CustomerId": 1, "Balance": 60.0})
        db.commit(txn)
        kinds = [e.kind for e in obs.trace.events]
        assert kinds == [
            "begin", "read", "write", "wal-stage", "wal-flush", "commit"
        ]
        m = obs.metrics
        assert m.counter("repro_txn_begins_total").value == 1
        assert m.counter("repro_txn_commits_total").value == 1
        assert m.counter("repro_engine_reads_total").value == 1
        assert m.counter("repro_engine_writes_total").value == 1
        assert m.counter("repro_wal_records_total").value == 1
        assert m.histogram("repro_commit_path_seconds").count == 1
        assert m.histogram("repro_wal_batch_size").count == 1
        assert m.histogram("repro_wal_batch_size").mean == 1.0

    def test_abort_reason_tag(self) -> None:
        db = make_bank_db()
        obs = Observability(trace=TraceRecorder())
        db.install_observability(obs)
        txn = db.begin("demo")
        db.abort(txn)
        (abort,) = obs.trace.events_of("abort")
        assert abort.detail["reason"] == "user"
        counter = obs.metrics.counter(
            "repro_txn_aborts_total", labels={"reason": "user"}
        )
        assert counter.value == 1

    def test_serialization_abort_reason(self) -> None:
        db = make_bank_db()
        obs = Observability(trace=TraceRecorder())
        db.install_observability(obs)
        t1 = db.begin("T1")
        t2 = db.begin("T2")
        db.write(t1, "Checking", 1, {"CustomerId": 1, "Balance": 1.0})
        db.commit(t1)
        from repro.errors import SerializationFailure

        with pytest.raises(SerializationFailure):
            db.write(t2, "Checking", 1, {"CustomerId": 1, "Balance": 2.0})
        (abort,) = obs.trace.events_of("abort")
        assert abort.detail["reason"] == "serialization"

    def test_lock_wait_events_under_s2pl(self) -> None:
        db = make_bank_db(EngineConfig.s2pl())
        obs = Observability(trace=TraceRecorder())
        db.install_observability(obs)
        from repro.engine.session import Session

        holder = Session(db)
        holder.begin("holder")
        holder.update("Checking", 1, {"Balance": 1.0})
        released = threading.Event()

        def blocked_writer() -> None:
            session = Session(db)
            session.begin("blocked")
            session.update("Checking", 1, {"Balance": 2.0})
            session.commit()
            released.set()

        thread = threading.Thread(target=blocked_writer, daemon=True)
        thread.start()
        # Wait until the second writer is provably parked on the row lock.
        deadline = threading.Event()
        for _ in range(200):
            if obs.trace.events_of("lock-wait-start"):
                break
            deadline.wait(0.01)
        assert obs.trace.events_of("lock-wait-start")
        holder.commit()
        thread.join(timeout=10.0)
        assert released.is_set()
        (end,) = obs.trace.events_of("lock-wait-end")
        assert end.detail["timed_out"] is False
        assert obs.metrics.histogram("repro_lock_wait_seconds").count == 1
        assert obs.metrics.counter("repro_lock_waits_total").value == 1

    def test_vacuum_reclaims_counted(self) -> None:
        db = make_bank_db()
        obs = Observability()
        db.install_observability(obs)
        for balance in (1.0, 2.0, 3.0):
            txn = db.begin("writer")
            db.write(txn, "Checking", 1, {"CustomerId": 1, "Balance": balance})
            db.commit(txn)
        pruned = db.vacuum()
        assert pruned > 0
        assert obs.metrics.counter("repro_vacuum_reclaimed_total").value == pruned

    def test_version_chain_gauges(self) -> None:
        db = make_bank_db()
        obs = Observability()
        db.install_observability(obs)
        for balance in (1.0, 2.0):
            txn = db.begin("writer")
            db.write(txn, "Checking", 1, {"CustomerId": 1, "Balance": balance})
            db.commit(txn)
        db.observe_version_stats()
        assert obs.metrics.gauge("repro_version_chain_max_length").value >= 3
        assert obs.metrics.gauge("repro_version_chain_mean_length").value >= 1

    def test_cold_and_image_built_feed_the_same_chain_lengths(self) -> None:
        cold = make_bank_db()
        warm = Database(bank_schemas(), image=cold.bootstrap_image())
        fed = {}

        def sample(db) -> Counter:
            obs = Observability()
            db.install_observability(obs)
            obs.engine_version_stats = lambda lengths: fed.__setitem__(
                db, Counter(lengths)
            )
            db.observe_version_stats()
            return fed[db]

        # Nine rows nobody wrote: each its bootstrap version alone.
        assert sample(cold) == sample(warm) == Counter({1: 9})
        for db in (cold, warm):
            for table, key, balance in (
                ("Checking", 1, 1.0), ("Checking", 1, 2.0), ("Saving", 2, 3.0)
            ):
                txn = db.begin("writer")
                db.write(txn, table, key, {"CustomerId": key, "Balance": balance})
                db.commit(txn)
        assert sample(cold) == sample(warm) == Counter({3: 1, 2: 1, 1: 7})

    def test_no_observability_means_no_obs_attribute_cost(self) -> None:
        db = make_bank_db()
        assert db.obs is None
        txn = db.begin("demo")
        db.read(txn, "Checking", 1)
        db.commit(txn)  # nothing raised, nothing recorded anywhere


# ----------------------------------------------------------------------
# Simulator wiring
# ----------------------------------------------------------------------
class TestSimulatorWiring:
    def test_run_once_populates_registry_in_sim_time(self) -> None:
        obs = Observability(trace=TraceRecorder())
        config = SimulationConfig(
            mpl=4, customers=60, hotspot=6, ramp_up=0.1, measure=0.4
        )
        stats = run_once(config, obs=obs)
        assert stats.total_commits > 0
        m = obs.metrics
        assert m.counter("repro_txn_commits_total").value > 0
        rt = m.histogram("repro_response_time_seconds")
        assert rt.count > 0
        # Simulated clock: every response time fits inside the run window.
        assert rt.p99 <= config.ramp_up + config.measure
        commit_events = obs.trace.events_of("commit")
        assert commit_events
        assert all(
            e.at <= config.ramp_up + config.measure + 1e-9
            for e in commit_events
        )

    def test_seed_figures_unchanged_by_instrumentation(self) -> None:
        """The tentpole's overhead contract, at the single-run level: the
        same configuration yields identical committed-transaction counters
        with and without an Observability installed."""
        config = SimulationConfig(
            mpl=4, customers=60, hotspot=6, ramp_up=0.1, measure=0.4
        )
        plain = run_once(config)
        instrumented = run_once(config, obs=Observability(trace=TraceRecorder()))
        assert plain.commits == instrumented.commits
        assert plain.aborts == instrumented.aborts
        assert plain.response_time_sum == instrumented.response_time_sum


# ----------------------------------------------------------------------
# Threaded wiring: a traced run, certified from its JSONL dump
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", [EngineConfig.s2pl, EngineConfig.ssi],
                         ids=["s2pl", "ssi"])
def test_traced_threaded_run_certifies_from_jsonl(config, tmp_path) -> None:
    trace = TraceRecorder()
    driver = ThreadedDriver(
        build_database(config(), PopulationConfig(customers=50)),
        get_strategy("base-si").transactions(),
        ThreadedDriverConfig(
            mpl=4,
            customers=50,
            hotspot=5,
            mix="balance60",
            duration=0.3,
            seed=11,
            retry=RetryPolicy.exponential(max_attempts=3, base_backoff=0.0005),
        ),
        obs=Observability(trace=trace),
    )
    driver.run()
    commits = len(trace.events_of("commit"))
    assert commits > 0

    path = tmp_path / "trace.jsonl"
    written = trace.dump_jsonl(path)
    reloaded = TraceRecorder.load_jsonl(path)
    assert written == len(trace) == len(reloaded)

    report = check_history(reloaded.committed_transactions())
    assert report.committed_count == commits
    assert report.serializable, report


def test_metric_checks_fail_on_a_registry_where_nothing_ran() -> None:
    assert check_metrics("s2pl", Observability()) == [
        "s2pl: response-time histogram is empty",
        "s2pl: response-time p95 0.0 outside (0, 10s]",
        "s2pl: no lock waits recorded under S2PL",
        "s2pl: WAL batch-size histogram is empty",
        "s2pl: no commits counted",
    ]
