"""``python -m repro.net`` — run a standalone SmallBank database server.

Builds a populated SmallBank :class:`~repro.engine.engine.Database` —
optionally one *shard slice* of a hash-partitioned population,
bit-identical to :func:`repro.smallbank.schema.build_shard_database`
under the same seed — and serves it over the wire protocol until stdin
reaches EOF (the portable subprocess-control convention: the parent
closes our stdin — or exits, which closes it too — and we shut down
gracefully) or a reply finds stdout closed (the parent is gone too).

Protocol with the parent process, line-oriented stdout / stdin::

    LISTENING <port>        once the socket is bound (again after RECOVER)
    STATS <json>            final server counters, after graceful shutdown

    CRASH                   power-fail the engine, stop serving; salvages
                            the recorded history up to the durable WAL
                            horizon (--record) -> CRASHED
    RECOVER                 rebuild from durable state, serve again on
                            the *same* port -> LISTENING <port>
    DUMP <path>             write the committed history (salvaged prefix
                            + live recorder) as JSONL -> DUMPED <n>
    FAULTS <json|off>       install / clear a FaultPlan on the live
                            server -> FAULTS ok
    PING                    liveness of the control channel -> PONG

The control channel is what lets :mod:`repro.cluster.fleet` drive
*engine-level* crash/recovery inside a surviving OS process: the WAL is
in-memory, so killing the process would lose durable state — the crash
model is power failure of the database, not loss of the machine.

Used by ``benchmarks/bench_net.py`` and the cluster fleet to run
servers from a *separate* process — client threads and the server loop
each get their own interpreter (and GIL), exactly like a real
deployment — and handy for manual experiments::

    PYTHONPATH=src python -m repro.net --port 7654 --customers 100 &
    PYTHONPATH=src python -c "
    import repro
    conn = repro.connect('tcp://127.0.0.1:7654')
    print(conn.stats())"
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.api import ISOLATION_CONFIGS
from repro.errors import ReproError
from repro.net.shard import ThreadShard


def _reply(shard: ThreadShard, command: str, rest: str) -> str:
    """One control command is one method call on the shard."""
    if command == "PING":
        return "PONG"
    if command == "CRASH":
        shard.crash()
        return "CRASHED"
    if command == "RECOVER":
        shard.recover()
        return f"LISTENING {shard.port}"
    if command == "DUMP":
        from repro.analysis.recorder import dump_history_jsonl

        if not rest:
            return "ERR DUMP needs a path"
        return f"DUMPED {dump_history_jsonl(rest, shard.history())}"
    if command == "FAULTS":
        from repro.faults import plan_from_json

        shard.install_faults(
            None if rest in ("", "off", "none") else plan_from_json(rest)
        )
        return "FAULTS ok"
    return f"ERR unknown command {command!r}"


def _say(line: str) -> bool:
    """One line to the parent; False if it is gone (stdout closed; now
    /dev/null, so the exit-time flush does not fail again)."""
    try:
        print(line, flush=True)
        return True
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False


def _control_loop(shard: ThreadShard) -> None:
    """Answer each control line with one line until either pipe closes."""
    while True:
        try:
            line = sys.stdin.readline()
        except KeyboardInterrupt:
            break
        if not line:  # EOF: parent closed our stdin (or died)
            break
        command, _, rest = line.strip().partition(" ")
        if not command:
            continue
        try:
            reply = _reply(shard, command, rest.strip())
        except ReproError as exc:  # e.g. CRASH while already crashed
            reply = f"ERR {exc}"
        if not _say(reply):
            break


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    parser.add_argument("--customers", type=int, default=100)
    parser.add_argument(
        "--isolation", default="si", choices=sorted(ISOLATION_CONFIGS)
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="population seed (default: the canonical SmallBank seed)",
    )
    parser.add_argument(
        "--shard-index", type=int, default=0,
        help="serve one shard of a hash-partitioned population",
    )
    parser.add_argument(
        "--shard-count", type=int, default=1,
        help="total shards the population is partitioned across",
    )
    parser.add_argument(
        "--autovacuum", type=float, default=None, metavar="SECONDS",
        help="run the version-chain vacuum periodically",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="attach an ExecutionRecorder (enables DUMP and crash salvage)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="JSON",
        help="install a FaultPlan (FaultPlan.to_json format) at startup",
    )
    parser.add_argument("--max-connections", type=int, default=64)
    parser.add_argument(
        "--reject", action="store_true",
        help="refuse connections over the limit instead of queueing them",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="install an Observability bundle on the hosted database",
    )
    args = parser.parse_args(argv)

    plan = obs = None
    if args.faults:
        from repro.faults import plan_from_json

        plan = plan_from_json(args.faults)
    if args.obs:
        from repro.obs import Observability

        obs = Observability()
    shard = ThreadShard(
        args.shard_index,
        args.shard_count,
        customers=args.customers,
        isolation=args.isolation,
        seed=args.seed,
        record=args.record,
        fault_plan=plan,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        backpressure=not args.reject,
        obs=obs,
        autovacuum_interval=args.autovacuum,
    )
    if _say(f"LISTENING {shard.port}"):
        _control_loop(shard)
    shard.shutdown()
    _say(f"STATS {json.dumps(shard.stats, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
