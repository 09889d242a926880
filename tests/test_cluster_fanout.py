"""Per-shard broadcasts: scatter-gather, gtids, sweeps.

The gather contract (every outcome, positionally, nothing raised early)
is what lets 2PC send all PREPAREs before reading any vote and still
reason about votes — from the caller's own thread (``scatter_gather``
over split-phase verbs, whose wires must never reach a pool with a reply
unread), on the transaction path and in the connection-level sweeps
alike; each connection counts its own gtids; and the router-level tests
pin the observable win — a slow shard no longer stalls probes of the
healthy ones — plus the 2PC correctness properties that must survive
the concurrency: presumed abort under a mid-fan-out shard crash and
idempotent duplicate decision delivery.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import Cluster, ClusterConnection
from repro.cluster.fanout import first_error, scatter_gather
from repro.errors import ConnectionClosed, ReproError, TransactionStateError
from repro.faults import FaultPlan, FaultSpec
from repro.obs import Observability
from repro.smallbank import customer_name, get_strategy


@pytest.fixture
def cluster():
    with Cluster(2, customers=4) as cluster:
        yield cluster


def fanout_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-fanout")]


class TestScatterGather:
    """Split-phase hygiene: every request that went out is answered or
    its wire is gone, whatever happened to the others."""

    def _branches(self, conn):
        return [shard.session() for shard in conn.shards]

    def test_outcomes_are_positional_and_errors_captured(self):
        boom = ValueError("boom")

        def fail():
            raise boom

        outcomes = scatter_gather(
            [lambda: lambda: "a", lambda: fail, fail, lambda: lambda: "d"]
        )
        assert [outcome.value for outcome in outcomes] == ["a", None, None, "d"]
        assert outcomes[1].error is boom and outcomes[2].error is boom
        assert [outcome.ok for outcome in outcomes] == [True, False, False, True]
        assert first_error(outcomes) is boom

    def test_first_error_is_task_order_not_completion_order(self):
        late = RuntimeError("read-late-but-first")
        early = RuntimeError("sent-fails-early-but-second")

        def read_fails():
            raise late

        def send_fails():
            raise early

        outcomes = scatter_gather([lambda: read_fails, send_fails])
        assert first_error(outcomes) is late

    def test_counts_broadcasts_in_obs(self):
        obs = Observability()
        scatter_gather([lambda: lambda: 1], op="stats", obs=obs)
        assert obs.cluster_fanout_broadcasts.value == 0  # one shard: none
        scatter_gather([lambda: lambda: 1, lambda: lambda: 2], op="stats", obs=obs)
        assert obs.cluster_fanout_broadcasts.value == 1

    def test_sends_everything_before_reading_anything(self):
        events = []

        def start(name):
            events.append(f"send {name}")
            return lambda: events.append(f"read {name}") or name

        outcomes = scatter_gather(
            [lambda: start("a"), lambda: start("b")], op="begin"
        )
        assert events == ["send a", "send b", "read a", "read b"]
        assert [outcome.value for outcome in outcomes] == ["a", "b"]

    def test_failed_second_send_still_reads_the_first_reply(self, cluster):
        with cluster.connect() as conn:
            a, b = self._branches(conn)
            wire_a = a._wire
            b._wire.sock.close()  # the next write on it fails
            first, second = scatter_gather(
                [lambda: a.start_begin_now("t"), lambda: b.start_begin_now("t")]
            )
            assert first.ok and isinstance(second.error, ConnectionClosed)
            assert a.in_transaction and not wire_a.awaiting_reply
            assert not b.in_transaction and b._wire is None  # discarded
            a.rollback()
            a.close()
            b.close()
            assert conn.shards[0]._idle == [wire_a]
            assert conn.shards[1]._idle == []

    def test_error_reply_first_still_reads_the_second(self, cluster):
        with cluster.connect() as conn:
            a, b = self._branches(conn)
            vote, begun = scatter_gather(
                [
                    lambda: a.start_prepare_2pc("g1"),  # nothing to prepare
                    lambda: b.start_begin_now("t"),
                ]
            )
            assert isinstance(vote.error, TransactionStateError)
            assert begun.ok and b.in_transaction
            assert not a._wire.awaiting_reply and not b._wire.awaiting_reply
            assert first_error((vote, begun)) is vote.error
            b.rollback()
            for branch in (a, b):
                branch.close()
            assert [len(shard._idle) for shard in conn.shards] == [1, 1]

    @pytest.mark.parametrize("fault", ["net-drop-frame", "conn-reset"])
    def test_transport_failure_mid_gather_discards_only_that_wire(
        self, cluster, fault
    ):
        """Shard 0 executes the BEGIN but its reply never arrives: that
        wire is gone for good, shard 1's reply is still read, and the
        next session on shard 0 reads its own replies, not a stale one."""
        with cluster.connect(rpc_deadline=0.3) as conn:
            a, b = self._branches(conn)
            cluster.shards[0].install_faults(
                FaultPlan([FaultSpec(fault, probability=1.0)], seed=1)
            )
            try:
                first, second = scatter_gather(
                    [lambda: a.start_begin_now("t"), lambda: b.start_begin_now("t")]
                )
            finally:
                cluster.shards[0].install_faults(None)
            assert isinstance(first.error, ConnectionClosed)
            assert second.ok and not b._wire.awaiting_reply
            assert a._wire is None and conn.shards[0]._idle == []
            b.rollback()
            b.close()
            a.close()
            with conn.transaction("after") as txn:
                # Customer 2 lives on shard 0: a fresh wire, its own reply.
                assert txn.select("Checking", 2)["CustomerId"] == 2

    def test_abandoned_request_never_reaches_the_pool(self, cluster):
        with cluster.connect() as conn:
            a, b = self._branches(conn)
            wire = a._wire
            a.start_begin_now("t")  # sent; nobody reads the reply
            assert wire.awaiting_reply
            with pytest.raises(ConnectionClosed):
                wire.send("PING", {})  # would be answered by the BEGIN's reply
            a.close()
            b.close()
            assert wire.broken and conn.shards[0]._idle == []
            # ... and a started-then-released wire is closed, not pooled.
            c = conn.shards[0].session()
            wire = c._wire
            wire.send("PING", {})
            c.close()
            assert conn.shards[0]._idle == []
            with conn.transaction("after") as txn:
                assert txn.select("Checking", 2)["CustomerId"] == 2

    def test_per_call_deadline_still_bounds_connection_level_rpcs(self, cluster):
        with cluster.connect() as conn:
            shard = conn.shards[0]
            assert shard.stats()["rpcs_total"] >= 0  # prime a wire
            cluster.shards[0].install_faults(_delay_all_frames(0.5))
            try:
                started = time.perf_counter()
                with pytest.raises(ConnectionClosed):
                    shard.start_ping(0.05)()
                assert time.perf_counter() - started < 0.4
            finally:
                cluster.shards[0].install_faults(None)
            assert shard._idle == []  # the late reply's wire is gone
            assert shard.ping()

    def test_obs_times_send_to_reply_and_counts_rounds(self, cluster):
        obs = Observability()
        txns = get_strategy("base-si").transactions()
        with cluster.connect(obs=obs) as conn:
            session = conn.session()
            cross = {"N1": customer_name(1), "N2": customer_name(2)}
            txns.run(session, "Amalgamate", cross)  # registers the parts
            rounds = obs.cluster_fanout_broadcasts.value
            rpcs = obs.net_client_rpc_latency.count
            txns.run(session, "Amalgamate", cross)
            # Each part's CALL is one RPC; the decision is a one-way
            # frame to each shard, no round and no reply to time.
            assert obs.cluster_fanout_broadcasts.value - rounds == 0
            assert obs.net_client_rpc_latency.count - rpcs == 2
            by_op = {
                op: obs.metrics.counter(
                    "repro_cluster_fanout_broadcasts_total", labels={"op": op}
                ).value
                for op in ("call", "2pc-decision", "begin", "2pc-prepare")
            }
            assert by_op == {"call": 0, "2pc-decision": 0, "begin": 0, "2pc-prepare": 0}
            session.begin("CrossTransfer")
            session.update("Checking", 1, {"Balance": 1.0})
            session.update("Checking", 2, {"Balance": 2.0})
            session.commit()
            session.close()
            # One BEGIN, to shard 0; the votes are one round.
            for op, count in (("begin", 0), ("2pc-prepare", 1)):
                assert obs.metrics.counter(
                    "repro_cluster_fanout_broadcasts_total", labels={"op": op}
                ).value == count
        assert fanout_threads() == []  # the transaction path has no pool

    def test_obs_clock_starts_at_the_send(self, cluster):
        """A round reads its replies in shard order: with the shard read
        first slow, the other's reply sits unread that long, and
        send-to-reply says so (read-to-reply would say ~0).  Driven by
        the vote round of a statement-by-statement cross-shard transfer
        (shard 0 slow).  A cross-shard Amalgamate with its first part's
        shard, 1, slow has no decision round to time: its decisions are
        one-way frames, answered by nothing."""
        obs = Observability()
        txns = get_strategy("base-si").transactions()
        cross = {"N1": customer_name(1), "N2": customer_name(2)}

        def histogram(op):
            return obs.metrics.histogram(
                "repro_net_client_rpc_seconds", labels={"op": op}
            )

        with cluster.connect(obs=obs) as conn:
            session = conn.session()
            txns.run(session, "Amalgamate", cross)  # every wire primed
            before = histogram("PREPARE_2PC").sum
            session.begin("Probe")
            session.update("Checking", 1, {"Balance": 1.0})
            session.update("Checking", 2, {"Balance": 2.0})
            cluster.shards[0].install_faults(_delay_all_frames(0.2))
            try:
                session.commit()
            finally:
                cluster.shards[0].install_faults(None)
            cluster.shards[1].install_faults(_delay_all_frames(0.2))
            try:
                txns.run(session, "Amalgamate", cross)
            finally:
                cluster.shards[1].install_faults(None)
            session.close()
        # Two replies, both >= the delay: the slow one's own and the one
        # left unread behind it.
        assert histogram("PREPARE_2PC").sum - before >= 2 * 0.15
        assert histogram("COMMIT_2PC").count == 0


class TestGtidSource:
    def test_a_negative_gtid_base_is_refused(self):
        with pytest.raises(ValueError, match="gtid_base"):
            ClusterConnection([("127.0.0.1", 1)], gtid_base=-1)


class TestOracleGroups:
    """No oracle hands out gtids: each connection counts its own, shared
    by its sessions — disjoint across threads, offset by the base."""

    def test_gtid_leases_are_disjoint_across_threads(self):
        """A session per transaction, as the threaded driver opens them,
        wastes no id, and each thread sees its own increase from
        ``gtid_base + 1`` on."""
        base, threads, rounds = 10**6, 4, 6
        taken: "dict[int, list[int]]" = {}
        with Cluster(2, customers=4) as cluster, cluster.connect(gtid_base=base) as conn:

            def take(index: int) -> None:
                mine = taken[index] = []
                for _ in range(rounds):
                    session = conn.session()
                    try:
                        session.begin("gtid")
                        mine.append(int(session.gtid[1:]))
                        session.rollback()
                    finally:
                        session.close()

            workers = [threading.Thread(target=take, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        assert all(mine == sorted(mine) for mine in taken.values()), taken
        every = sorted(g for mine in taken.values() for g in mine)
        assert every == list(range(base + 1, base + 1 + threads * rounds))

    def test_gtid_base_offsets_the_whole_space(self):
        with Cluster(2, customers=4) as cluster, cluster.connect(gtid_base=10**9) as conn:
            session = conn.session()
            try:
                seen = []
                for _ in range(2):
                    session.begin("gtid")
                    seen.append(session.gtid)
                    session.rollback()
            finally:
                session.close()
        assert seen == [f"g{10**9 + 1}", f"g{10**9 + 2}"]


def _delay_all_frames(magnitude: float) -> FaultPlan:
    return FaultPlan(
        [FaultSpec("net-delay-frame", probability=1.0, magnitude=magnitude)],
        seed=1,
    )


class TestRouterBroadcasts:
    DELAY = 0.3

    def test_slow_shards_do_not_stack_in_stats_sweep(self):
        """Satellite regression: stats/heartbeat used to probe shards
        serially, so N delayed shards cost N x delay.  With the fan-out
        pool the sweep completes in ~one delay."""
        with Cluster(2, customers=4) as cluster:
            conn = cluster.connect()
            try:
                conn.stats()  # prime every wire before installing faults
                cluster.install_faults(_delay_all_frames(self.DELAY))
                started = time.perf_counter()
                stats = conn.stats()
                elapsed = time.perf_counter() - started
            finally:
                cluster.install_faults(None)
                conn.close()
        assert len(stats["shard_stats"]) == 2
        assert elapsed >= self.DELAY * 0.8  # the delay really applied...
        assert elapsed < self.DELAY * 2 * 0.85  # ...but only once, not 2x

    def test_slow_shards_do_not_stack_in_heartbeat(self):
        with Cluster(2, customers=4) as cluster:
            conn = cluster.connect()
            try:
                assert conn.ping()  # prime every wire
                cluster.install_faults(_delay_all_frames(self.DELAY))
                started = time.perf_counter()
                health = conn.heartbeat()
                elapsed = time.perf_counter() - started
            finally:
                cluster.install_faults(None)
                conn.close()
        assert all(health)
        assert elapsed >= self.DELAY * 0.8
        assert elapsed < self.DELAY * 2 * 0.85

    def test_fanout_metric_counts_router_broadcasts(self):
        obs = Observability()
        with Cluster(2, customers=4) as cluster:
            conn = cluster.connect(obs=obs)
            try:
                conn.stats()
                conn.ping()
            finally:
                conn.close()
        assert obs.cluster_fanout_broadcasts.value >= 2


class TestConcurrent2pc:
    def test_mid_fanout_shard_crash_presumes_abort(self):
        """All PREPAREs launch concurrently; when one participant's
        engine is down its NO vote must abort the gtid, roll back every
        YES voter, and leave nothing prepared anywhere."""
        with Cluster(2, customers=4) as cluster:
            conn = cluster.connect()
            try:
                session = conn.session()
                session.begin("CrossTransfer")
                # Customer 1 -> shard 1, customer 2 -> shard 0.
                session.update("Checking", 1, {"Balance": 111.0})
                session.update("Checking", 2, {"Balance": 222.0})
                cluster.shards[0].db.crash()  # dies mid-protocol
                with pytest.raises(ReproError):
                    session.commit()
                session.close()
                # Presumed abort: the coordinator logged the abort and
                # the surviving shard holds no prepared orphan.
                decisions = conn.coordinator.log.decisions()
                assert decisions and set(decisions.values()) == {"abort"}
                conn.flush()
                assert cluster.shards[1].db.prepared_gtids == ()
            finally:
                conn.close()

    def test_duplicate_decisions_stay_idempotent_under_fanout(self):
        """net-dup-decision writes each commit decision's frame twice;
        each shard must apply the gtid exactly once — one ``commit-2pc``
        record — and refuse neither copy."""
        plan = FaultPlan(
            [FaultSpec("net-dup-decision", probability=1.0)], seed=3
        )
        with Cluster(2, customers=4) as cluster:
            conn = cluster.connect(fault_plan=plan)
            try:
                session = conn.session()
                session.begin("CrossTransfer")
                session.update("Checking", 1, {"Balance": 111.0})
                session.update("Checking", 2, {"Balance": 222.0})
                session.commit()
                session.close()
                counters = conn.counters()
                with conn.transaction("Check") as txn:
                    assert txn.select("Checking", 1)["Balance"] == 111.0
                    assert txn.select("Checking", 2)["Balance"] == 222.0
            finally:
                conn.close()
            assert counters["twopc_commits"] == 1
            assert plan.fired("net-dup-decision") == 2  # one per shard
            assert cluster.pending_2pc_gtids() == set()
            for shard in cluster.shards:
                assert shard.server.stats()["decisions_refused"] == 0
                assert [
                    record.kind
                    for record in shard.db.wal.durable_records
                    if record.gtid == session.gtid
                ] == ["prepare", "commit-2pc"]
