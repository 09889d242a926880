"""``python -m repro.cluster`` — stand up a local sharded deployment.

Builds N hash-partitioned SmallBank shards, serves each from its own
:class:`~repro.net.DatabaseServer`, and prints the ``cluster://`` URL a
client hands to :func:`repro.connect`.  Runs until stdin reaches EOF
(same subprocess-control convention as ``python -m repro.net``)::

    LISTENING <port> <port> ...     once every shard socket is bound
    CLUSTER cluster://host:p1,host:p2
    STATS <json>                    merged counters after shutdown

Quickstart::

    PYTHONPATH=src python -m repro.cluster --shards 2 &
    PYTHONPATH=src python -c "
    import repro
    conn = repro.connect('cluster://127.0.0.1:7751,127.0.0.1:7752')
    with conn.transaction('Balance') as txn:
        print(txn.select('Checking', 1))"

``--smoke`` instead runs a short self-contained workload (all five
SmallBank programs at MPL 4) against the cluster, certifies the merged
global trace, and exits non-zero if it is not serializable under the
requested strategy — the CI cluster smoke job.

``--chaos-smoke`` runs the seeded distributed chaos soak
(:mod:`repro.cluster.chaos`) once per ``--seed``: network faults, a
shard kill/restart and coordinator crashes over ``--shards`` (≥ 2) at
MPL 8 unless ``--mpl`` says otherwise, then recovery to a fixed point.
Exits non-zero unless every soak ends with the merged MVSG acyclic, the
ledger exactly conserved and zero transactions in doubt.  Appends one
record per seed to the ``BENCH_chaos_cluster.json`` trajectory
(``--out`` overrides).  The multi-seed soak::

    PYTHONPATH=src python -m repro.cluster --chaos-smoke \
        --seed 11 17 23 --duration 4 --customers 40

``--procs`` switches any of the above from the in-process
:class:`~repro.cluster.Cluster` to the multi-process
:class:`~repro.cluster.ShardFleet` — one OS process per shard, real
parallelism on multi-core hosts.  The certifications then also require
that no shard process is orphaned or force-killed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api import ISOLATION_CONFIGS
from repro.cluster.fleet import Cluster, ShardFleet


def _smoke(
    cluster: Cluster,
    mpl: int,
    duration: float,
    strategy_key: str,
    customers: int,
) -> int:
    """Five-program uniform mix at MPL ``mpl``; certify the merged trace."""
    from repro.analysis import merge_shard_histories
    from repro.smallbank.strategies import get_strategy
    from repro.workload.driver import ThreadedDriver, ThreadedDriverConfig

    strategy = get_strategy(strategy_key)
    connection = cluster.connect()
    try:
        stats = ThreadedDriver(
            None,
            strategy.transactions(),
            ThreadedDriverConfig(
                mpl=mpl,
                customers=customers,
                hotspot=max(2, customers // 4),
                mix="uniform",
                duration=duration,
            ),
            connection=connection,
        ).run()
        counters = connection.counters()
    finally:
        connection.close()
    report = merge_shard_histories(cluster.histories())
    print(f"SMOKE {report.describe()}", flush=True)
    print(
        "STATS "
        + json.dumps(
            {
                "commits": stats.total_commits,
                "aborts": stats.abort_count(),
                "serializable": report.serializable,
                "strategy": strategy_key,
                **counters,
            },
            sort_keys=True,
        ),
        flush=True,
    )
    return 0 if report.serializable else 1


def _chaos_smoke(args) -> int:
    """One seeded chaos soak per ``--seed``, certified; the CI gate."""
    from repro.bench.harness import append_bench_record
    from repro.cluster.chaos import ChaosConfig, run_chaos

    failures = 0
    for seed in args.seed:
        result = run_chaos(
            ChaosConfig(
                shards=args.shards,
                customers=args.customers,
                mpl=8 if args.mpl is None else args.mpl,
                duration=3.0 if args.duration is None else args.duration,
                seed=seed,
                isolation=args.isolation,
                strategy=args.strategy,
                process_model="multiproc" if args.procs else "inproc",
            )
        )
        record = result.to_record()
        print(f"CHAOS seed {seed}: {result.report_description}", flush=True)
        print("STATS " + json.dumps(record, sort_keys=True), flush=True)
        if args.out:
            try:
                append_bench_record(Path(args.out), "chaos_cluster", record)
            except ValueError as exc:
                print(f"FAIL {exc}", file=sys.stderr, flush=True)
                return 1
        if not result.ok:
            failures += 1
            print(
                f"FAIL seed {seed} "
                + json.dumps(record["checks"], sort_keys=True),
                file=sys.stderr,
                flush=True,
            )
    return 1 if failures else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--customers", type=int, default=100)
    parser.add_argument(
        "--isolation", default="si", choices=sorted(ISOLATION_CONFIGS)
    )
    parser.add_argument(
        "--autovacuum", type=float, default=None, metavar="SECONDS",
        help="per-shard periodic version-chain vacuum",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run a short five-program workload, certify, and exit",
    )
    parser.add_argument(
        "--chaos-smoke", action="store_true",
        help="seeded fault soak (shard + coordinator crashes), certify, exit",
    )
    parser.add_argument(
        "--procs", action="store_true",
        help="one OS process per shard (multi-process fleet) instead of "
        "in-process servers",
    )
    parser.add_argument(
        "--mpl", type=int, default=None,
        help="concurrent clients (default 4, chaos 8)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="workload duration in seconds (default 1.0, chaos 3.0)",
    )
    parser.add_argument(
        "--strategy", default="promote-all",
        help="SmallBank strategy key for --smoke (e.g. base-si, promote-all)",
    )
    parser.add_argument(
        "--seed", type=int, nargs="+", default=[11],
        help="fault-schedule / population seeds for --chaos-smoke, one "
        "soak each",
    )
    parser.add_argument(
        "--out", default="BENCH_chaos_cluster.json", metavar="PATH",
        help="result-record file for --chaos-smoke ('' disables)",
    )
    args = parser.parse_args(argv)

    if args.shards < 1:
        parser.error("--shards must be at least 1")
    if (args.smoke or args.chaos_smoke) and args.customers < 2:
        parser.error("--smoke and --chaos-smoke need --customers >= 2")
    if args.chaos_smoke:
        if args.shards < 2:
            parser.error("--chaos-smoke needs --shards >= 2 (a 1-shard "
                         "storm has no 2PC to certify)")
        return _chaos_smoke(args)

    cluster = (ShardFleet if args.procs else Cluster)(
        args.shards,
        customers=args.customers,
        isolation=args.isolation,
        autovacuum_interval=args.autovacuum,
    )
    try:
        ports = " ".join(str(port) for _host, port in cluster.addresses)
        print(f"LISTENING {ports}", flush=True)
        print(f"CLUSTER {cluster.url}", flush=True)
        if args.smoke:
            code = _smoke(
                cluster,
                4 if args.mpl is None else args.mpl,
                1.0 if args.duration is None else args.duration,
                args.strategy,
                args.customers,
            )
            cluster.shutdown()
            if args.procs and (cluster.alive_count or cluster.kill_count):
                print(
                    "FAIL orphaned or force-killed shard processes",
                    file=sys.stderr,
                    flush=True,
                )
                return 1
            return code
        try:
            sys.stdin.read()  # block until the parent closes our stdin
        except KeyboardInterrupt:
            pass
        cluster.shutdown()  # every shard leaves its final counters
        stats = [shard.stats for shard in cluster.shards]
        print(f"STATS {json.dumps(stats, sort_keys=True)}", flush=True)
        return 0
    finally:
        cluster.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
