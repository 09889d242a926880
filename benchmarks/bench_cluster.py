"""Cluster benchmark: SmallBank TPS vs shard count at fixed MPL.

For each shard count the same closed-system :class:`ThreadedDriver` run
(uniform five-program SmallBank mix, so ~20 % Amalgamates generate
cross-shard traffic) is driven through the shard router against an
in-process :class:`~repro.cluster.Cluster` — or, with ``--procs``,
against a multi-process :class:`~repro.cluster.ShardFleet` (one OS
process per shard) driven by several load-generator subprocesses, so
neither the servers nor the clients share a GIL and TPS can actually
scale with shard count on a multi-core host.  Each point reports:

* **TPS** and aborts at the fixed MPL,
* the **fast-path ratio** — the fraction of commits that were
  single-shard and therefore skipped 2PC entirely (COMMIT piggybacked on
  the last statement, no PREPARE round), and
* the router's raw ``fastpath_commits`` / ``twopc_commits`` /
  ``twopc_aborts`` counters, and
* printed beside the TPS, not recorded: the shards' **RPCs**, **parks**
  (requests a server held on its loop until a row lock freed) and
  **lock-wait seconds** per decided transaction, summed over shards,
  the point's **lock timeouts**, and its **aborts by reason** — the
  shards' engine reason tags and the router's split of ``twopc_aborts``
  by what ended the attempt — where the work and the waiting went when
  a gate fails.

A separate paired microbenchmark quantifies the **2PC overhead** on a
2-shard cluster: the same connection alternately commits single-shard
deposits (fast path) and cross-shard transfers (presumed-abort 2PC:
per-shard PREPARE, then decision broadcast), and the per-transaction
latency ratio is the measured price of the second round trip plus the
prepare record fsync.

Results are appended to ``BENCH_cluster.json`` at the repo root (CI
uploads it as an artifact).  CI smoke::

    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke

full grid::

    PYTHONPATH=src python benchmarks/bench_cluster.py

or via pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from repro.bench.harness import append_bench_record
from repro.cluster import Cluster, ShardFleet
from repro.smallbank import get_strategy
from repro.workload.driver import ThreadedDriver, ThreadedDriverConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_cluster.json"

SHARDS = (1, 2, 4)
SMOKE_SHARDS = (1, 2)
MPL = 8
SMOKE_MPL = 4
CUSTOMERS = 100
MIX = "uniform"
STRATEGY = "base-si"
#: Load-generator subprocesses per multiproc measurement point; the MPL
#: is split across them so client-side work doesn't serialize on one GIL.
LOADGENS = 4
#: Each loadgen leases gtids from a disjoint base so cross-process gtids
#: can never collide (labels stay ``g<digits>`` for the merged MVSG).
GTID_STRIDE = 10**9


def _harness(shard_count: int, procs: bool):
    """The cluster under measurement: thread shards, or one OS process
    per shard with ``procs``; no recorders — only TPS is read."""
    return (ShardFleet if procs else Cluster)(
        shard_count, customers=CUSTOMERS, isolation="si", record=False
    )


def _drive(conn, mpl: int, duration: float, seed: int) -> dict:
    """One closed-loop driver run through ``conn`` (closed afterwards)."""
    try:
        stats = ThreadedDriver(
            None,
            get_strategy(STRATEGY).transactions(),
            ThreadedDriverConfig(
                mpl=mpl,
                customers=CUSTOMERS,
                hotspot=10,
                mix=MIX,
                duration=duration,
                seed=seed,
            ),
            connection=conn,
        ).run()
        counters = conn.counters()
    finally:
        conn.close()
    return {
        "tps": stats.tps,
        "aborts": stats.abort_count(),
        "counters": counters,
    }


def _shard_work(cluster) -> dict:
    """What the shards did so far, summed: RPCs served, requests parked
    for a row lock, the seconds they waited, the waits that timed out and
    the aborts by reason tag (the servers' own ``STATS`` counters)."""
    with cluster.connect() as conn:
        shards = conn.stats()["shard_stats"]
    work = {
        name: sum(shard[name] for shard in shards)
        for name in (
            "rpcs_total",
            "parked_total",
            "lock_wait_seconds_total",
            "lock_timeouts_total",
        )
    }
    work["aborts_by_reason"] = dict(
        sum((Counter(shard["aborts_by_reason"]) for shard in shards), Counter())
    )
    return work


def _by_reason(counts: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v) or "none"


def _loadgen(args) -> int:
    """Hidden ``--loadgen`` mode: one client subprocess of a multiproc
    measurement point.  Drives the standard mix against an existing
    fleet and prints its slice of the results as one RESULT line."""
    from repro.cluster import ClusterConnection

    addresses = [
        (host, int(port))
        for host, port in (
            hostport.rsplit(":", 1)
            for hostport in args.url[len("cluster://") :].split(",")
        )
    ]
    conn = ClusterConnection(
        addresses, url=args.url, gtid_base=args.gtid_base
    )
    result = _drive(conn, args.mpl, args.duration, args.seed)
    print("RESULT " + json.dumps(result, sort_keys=True), flush=True)
    return 0


def _drive_from_subprocesses(url: str, mpl: int, duration: float) -> "list[dict]":
    """The MPL split over :data:`LOADGENS` ``--loadgen`` subprocesses."""
    loadgens = min(LOADGENS, mpl)
    shares = [
        mpl // loadgens + (1 if i < mpl % loadgens else 0)
        for i in range(loadgens)
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    procs = [
        subprocess.Popen(
            [
                sys.executable,
                __file__,
                "--loadgen",
                "--url",
                url,
                "--loadgen-mpl",
                str(share),
                "--duration",
                str(duration),
                "--seed",
                str(7 + i),
                "--gtid-base",
                str((i + 1) * GTID_STRIDE),
            ],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        for i, share in enumerate(shares)
    ]
    results = []
    for proc in procs:
        out, _ = proc.communicate(timeout=duration * 20 + 120)
        if proc.returncode != 0:
            raise RuntimeError(
                f"loadgen exited {proc.returncode}; output: {out!r}"
            )
        for line in out.splitlines():
            if line.startswith("RESULT "):
                results.append(json.loads(line[len("RESULT ") :]))
                break
        else:
            raise RuntimeError(f"no RESULT line in loadgen output: {out!r}")
    return results


def measure_shards(
    shard_count: int, mpl: int, duration: float, *, procs: bool = False
) -> dict:
    """One measurement point against a ``shard_count``-shard cluster.

    With ``procs`` neither side shares a GIL: the shards are OS
    processes and the MPL is split over load-generator subprocesses;
    otherwise one driver in this process runs against thread shards.
    """
    with _harness(shard_count, procs) as cluster:
        if procs:
            results = _drive_from_subprocesses(cluster.url, mpl, duration)
        else:
            results = [_drive(cluster.connect(), mpl, duration, seed=7)]
        work = _shard_work(cluster)
    if procs and (cluster.alive_count or cluster.kill_count):
        raise RuntimeError(
            f"shard process leak: {cluster.alive_count} alive, "
            f"{cluster.kill_count} force-killed"
        )
    counters = {
        key: sum(result["counters"].get(key, 0) for result in results)
        for key in results[0]["counters"]
    }
    decided = (
        counters["fastpath_commits"]
        + counters["twopc_commits"]
        + counters["twopc_aborts"]
    )
    return {
        "tps": round(sum(result["tps"] for result in results), 1),
        "aborts": sum(result["aborts"] for result in results),
        "counters": counters,
        "loadgens": len(results),
        "fastpath_ratio": round(
            counters["fastpath_commits"] / decided, 4
        ) if decided else 1.0,
        "per_txn": {
            "rpcs": work["rpcs_total"] / max(decided, 1),
            "parked": work["parked_total"] / max(decided, 1),
            "lock_wait_s": work["lock_wait_seconds_total"] / max(decided, 1),
            "lock_timeouts": work["lock_timeouts_total"],  # per point
            "shard_aborts": work["aborts_by_reason"],  # per point
        },
    }


def measure_2pc_overhead(
    iterations: int, shard_count: int = 2, *, procs: bool = False
) -> dict:
    """Paired per-transaction latency: fast path vs cross-shard 2PC.

    Customer 1 lives on shard 1 and customer 2 on shard 0 (modular map),
    so the deposit commits via the single-shard fast path while the
    transfer's two writes force PREPARE on both shards plus the decision
    broadcast.  Interleaving the two keeps machine noise symmetric.
    """
    fast: "list[float]" = []
    twopc: "list[float]" = []
    with _harness(shard_count, procs) as cluster:
        conn = cluster.connect()
        try:
            session = conn.session()
            for i in range(iterations):
                start = time.perf_counter()
                session.begin("FastDeposit")
                session.update("Checking", 1, {"Balance": float(i)})
                session.commit()
                fast.append(time.perf_counter() - start)

                start = time.perf_counter()
                session.begin("CrossTransfer")
                session.update("Checking", 1, {"Balance": float(i) + 1.0})
                session.update("Checking", 2, {"Balance": float(i) + 2.0})
                session.commit()
                twopc.append(time.perf_counter() - start)
            session.close()
            counters = conn.counters()
        finally:
            conn.close()
    assert counters["fastpath_commits"] == iterations
    assert counters["twopc_commits"] == iterations
    fast_us = statistics.median(fast) * 1e6
    twopc_us = statistics.median(twopc) * 1e6
    return {
        "iterations": iterations,
        "fastpath_us": round(fast_us, 1),
        "twopc_us": round(twopc_us, 1),
        "overhead": round(twopc_us / max(fast_us, 1e-9), 2),
    }


def run_curve(
    shards: "tuple[int, ...]",
    mpl: int,
    duration: float,
    rounds: int = 3,
    *,
    procs: bool = False,
) -> dict:
    """Median-of-rounds TPS per shard count, rounds interleaved so
    machine-wide noise hits every shard count equally."""
    samples: dict = {str(s): [] for s in shards}
    for _ in range(rounds):
        for shard_count in shards:
            samples[str(shard_count)].append(
                measure_shards(shard_count, mpl, duration, procs=procs)
            )
    out: dict = {"mpl": mpl, "rounds": rounds, "points": {}}
    for shard_count in shards:
        key = str(shard_count)
        runs = samples[key]
        out["points"][key] = {
            "tps": statistics.median(r["tps"] for r in runs),
            "aborts": max(r["aborts"] for r in runs),
            "fastpath_ratio": statistics.median(
                r["fastpath_ratio"] for r in runs
            ),
            "counters": runs[-1]["counters"],
            "per_txn": runs[-1]["per_txn"],
        }
    base = out["points"][str(shards[0])]["tps"]
    for key, point in out["points"].items():
        point["speedup"] = round(point["tps"] / max(base, 1e-9), 2)
    return out


# ----------------------------------------------------------------------
# pytest entry points (not part of tier-1: testpaths excludes benchmarks/)
# ----------------------------------------------------------------------
def test_cluster_makes_progress_at_every_shard_count() -> None:
    for shard_count in (1, 2):
        point = measure_shards(shard_count, mpl=4, duration=0.5)
        assert point["tps"] > 0
        if shard_count == 1:
            # A 1-shard cluster never needs 2PC.
            assert point["counters"]["twopc_commits"] == 0
            assert point["fastpath_ratio"] == 1.0
        else:
            # The uniform mix's Amalgamates produce real 2PC traffic.
            assert point["counters"]["twopc_commits"] > 0
            assert 0.0 < point["fastpath_ratio"] < 1.0


def test_2pc_costs_more_than_the_fast_path() -> None:
    overhead = measure_2pc_overhead(iterations=50)
    assert overhead["overhead"] > 1.0


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced grid (1 and 2 shards, MPL 4, shorter windows)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="seconds per TPS measurement point",
    )
    parser.add_argument(
        "--no-json", action="store_true",
        help="skip appending to BENCH_cluster.json",
    )
    parser.add_argument(
        "--procs", action="store_true",
        help="multi-process mode: one OS process per shard, MPL split "
        "across loadgen subprocesses",
    )
    # Hidden plumbing for the multiproc mode's client subprocesses.
    parser.add_argument("--loadgen", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--url", default="", help=argparse.SUPPRESS)
    parser.add_argument(
        "--loadgen-mpl", type=int, default=2, help=argparse.SUPPRESS
    )
    parser.add_argument("--seed", type=int, default=7, help=argparse.SUPPRESS)
    parser.add_argument(
        "--gtid-base", type=int, default=0, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if args.loadgen:
        args.mpl = args.loadgen_mpl
        args.duration = args.duration or 1.0
        return _loadgen(args)

    shards = SMOKE_SHARDS if args.smoke else SHARDS
    mpl = SMOKE_MPL if args.smoke else MPL
    duration = args.duration or (0.6 if args.smoke else 1.5)
    rounds = 3
    overhead_iterations = 100 if args.smoke else 400
    cores = os.cpu_count() or 1
    process_model = "multiproc" if args.procs else "inproc"

    print(
        f"== SmallBank {MIX} TPS vs shard count, MPL {mpl}, {process_model} "
        f"({duration:.1f}s/point, median of {rounds} interleaved rounds, "
        f"{cores} cores) =="
    )
    curve = run_curve(shards, mpl, duration, rounds=rounds, procs=args.procs)
    failures = 0
    for shard_count in shards:
        point = curve["points"][str(shard_count)]
        counters = point["counters"]
        # Printed only: the record keeps its shape.
        per_txn = point.pop("per_txn")
        split = {
            key[len("twopc_aborts_"):]: counters.pop(key)
            for key in list(counters)
            if key.startswith("twopc_aborts_")
        }
        print(
            f"  {shard_count} shard{'s' if shard_count > 1 else ' '}: "
            f"{point['tps']:>8,.0f} tps ({point['speedup']:4.2f}x)   "
            f"{per_txn['rpcs']:.2f} rpcs/txn   "
            f"{per_txn['parked']:.3f} parked/txn   "
            f"{1e3 * per_txn['lock_wait_s']:.3f} ms lock-wait/txn   "
            f"{per_txn['lock_timeouts']} lock timeouts   "
            f"fastpath {point['fastpath_ratio']:.1%}   "
            f"2pc {counters['twopc_commits']:>6,d} commits "
            f"/ {counters['twopc_aborts']:,d} aborts"
        )
        print(
            f"    aborts by reason: shards "
            f"{_by_reason(per_txn['shard_aborts'])}   2pc {_by_reason(split)}"
        )
        if point["tps"] <= 0:
            print(f"FAIL: no progress at {shard_count} shards")
            failures += 1
        if shard_count == 1 and counters["twopc_commits"] > 0:
            print("FAIL: a 1-shard cluster ran 2PC")
            failures += 1
        if shard_count > 1 and counters["twopc_commits"] == 0:
            print(f"FAIL: no cross-shard traffic at {shard_count} shards")
            failures += 1

    # Scaling gate.  Sharding only buys real parallelism when there are
    # cores for the shard processes to land on, so the monotonic-TPS
    # requirement is enforced on multi-core hosts (CI runners); a single
    # core can only check that fan-out overhead didn't regress TPS badly.
    points = [curve["points"][str(s)]["tps"] for s in shards]
    if args.procs and cores >= 2:
        if len(points) > 1 and points[1] < 1.15 * points[0]:
            print(
                f"FAIL: 2-shard TPS {points[1]:.0f} < 1.15x "
                f"1-shard TPS {points[0]:.0f}"
            )
            failures += 1
        for prev, nxt, count in zip(points[1:], points[2:], shards[2:]):
            if nxt < prev:
                print(f"FAIL: TPS fell from {prev:.0f} to {nxt:.0f} "
                      f"at {count} shards")
                failures += 1
    elif len(points) > 1 and points[1] < 0.5 * points[0]:
        print(
            f"FAIL: 2-shard TPS {points[1]:.0f} regressed below 0.5x "
            f"1-shard TPS {points[0]:.0f} (single-core guard)"
        )
        failures += 1

    print("== 2PC overhead (paired single-shard vs cross-shard commits) ==")
    overhead = measure_2pc_overhead(overhead_iterations, procs=args.procs)
    print(
        f"  fast path {overhead['fastpath_us']:7.1f}us   "
        f"2PC {overhead['twopc_us']:7.1f}us   "
        f"({overhead['overhead']:.2f}x per transaction)"
    )
    if overhead["overhead"] <= 1.0:
        print("FAIL: 2PC measured no more expensive than the fast path")
        failures += 1

    if not args.no_json:
        append_bench_record(
            BENCH_JSON,
            "bench_cluster",
            {
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "mode": "smoke" if args.smoke else "full",
                "process_model": process_model,
                "mix": MIX,
                "strategy": STRATEGY,
                "curve": curve,
                "twopc_overhead": overhead,
            }
        )
        print(f"appended run record to {BENCH_JSON.name}")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
