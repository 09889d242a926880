"""Cluster benchmark: SmallBank over a shard fleet at 1, 2 (and 4) shards.

Each point stands up a :class:`~repro.cluster.ShardFleet` (one OS process
per shard) and drives it at a fixed MPL from client processes of a
``multiprocessing`` spawn pool, each a closed-system
:class:`ThreadedDriver` on its own :class:`ClusterConnection` — the same
mechanism ``bench_net.measure_server_work`` uses.  The host decides how
many: ``min(mpl, max(1, cores - shards))`` loadgens, and each point
records ``oversubscribed = (loadgens + shards) / cores``.  A curve runs
two mixes at every shard count: ``readonly`` (Balance only, so zero
cross-shard programs) and ``uniform`` (~20 % Amalgamates, some of them
cross-shard).

What is gated (:func:`gate`) are counts the code determines, so a 2-core
host passes or fails them for a reason: every point makes progress, no
shard process is orphaned or force-killed, a 1-shard point and a
read-only point run no 2PC, a read-only point's shards serve at most
``2 x shards x mpl`` RPCs beyond one per transaction (``PREPARE_PROGRAM``
and ``STATS``), a multi-shard uniform point runs 2PC, and the paired 2PC
micro costs more than the fast path.

Recorded and printed, never gated: the TPS ratio to the 1-shard point,
CPU microseconds per transaction summed over the loadgens and the shard
processes, parked requests and lock-wait per transaction, lock timeouts
and aborts by reason (the shards' engine tags and the router's
``twopc_aborts_*`` split).  Every field of a point comes from its
median-TPS round.

The paired micro (:func:`measure_2pc_overhead`) alternates single-shard
deposits (fast path) with cross-shard transfers (presumed-abort 2PC)
on one connection to a 2-shard fleet; the latency ratio is the price of
the prepare round.

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
import os
import statistics
import time
from collections import Counter
from multiprocessing import get_context
from pathlib import Path

from repro.bench.harness import append_bench_record, process_work, split_mpl
from repro.cluster import ClusterConnection, ShardFleet
from repro.smallbank import get_strategy
from repro.workload.driver import ThreadedDriver, ThreadedDriverConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_cluster.json"

SHARDS = (1, 2, 4)
SMOKE_SHARDS = (1, 2)
MIXES = ("readonly", "uniform")
MPL = 8
SMOKE_MPL = 4
CUSTOMERS = 100
STRATEGY = "base-si"
#: Each loadgen counts gtids from a disjoint base so cross-process gtids
#: can never collide (labels stay ``g<digits>`` for the merged MVSG).
GTID_STRIDE = 10**9


def _fleet(shard_count: int) -> ShardFleet:
    """The cluster under measurement; no recorders."""
    return ShardFleet(shard_count, customers=CUSTOMERS, isolation="si", record=False)


def _loadgen(addresses, mix, mpl, duration, seed, gtid_base, start_at) -> dict:
    """One client process of a point: its TPS, aborts, router counters
    and the CPU seconds it spent driving."""
    conn = ClusterConnection(addresses, gtid_base=gtid_base)
    try:
        driver = ThreadedDriver(
            None,
            get_strategy(STRATEGY).transactions(),
            ThreadedDriverConfig(
                mpl=mpl, customers=CUSTOMERS, hotspot=10, mix=mix,
                duration=duration, seed=seed,
            ),
            connection=conn,
        )
        time.sleep(max(0.0, start_at - time.time()))  # all loadgens together
        cpu = time.process_time()
        stats = driver.run()
        cpu = time.process_time() - cpu
        counters = conn.counters()
    finally:
        conn.close()
    return {"tps": stats.tps, "aborts": stats.abort_count(), "counters": counters, "cpu_s": cpu}


def _shard_work(fleet: ShardFleet) -> dict:
    """What the shards did, summed: RPCs served, requests parked for a
    row lock, the seconds they waited, the waits that timed out and the
    aborts by reason tag (the servers' own ``STATS`` counters)."""
    with fleet.connect() as conn:
        shards = conn.stats()["shard_stats"]
    work = {
        name: sum(shard[name] for shard in shards)
        for name in ("rpcs_total", "parked_total", "lock_wait_seconds_total", "lock_timeouts_total")
    }
    work["aborts_by_reason"] = dict(sum((Counter(s["aborts_by_reason"]) for s in shards), Counter()))
    return work


def measure_shards(shard_count: int, mix: str, mpl: int, duration: float) -> dict:
    """One point: a ``shard_count``-shard fleet driven at ``mpl`` from
    ``min(mpl, max(1, cores - shard_count))`` spawned client processes."""
    cores = os.cpu_count() or 1
    shares = split_mpl(mpl, cores - shard_count)
    with _fleet(shard_count) as fleet:
        pids = [shard.proc.pid for shard in fleet.shards]
        with get_context("spawn").Pool(len(shares)) as pool:
            start_at = time.time() + 1.0  # the workers import repro first
            shard_cpu = -sum(process_work(pid)["cpu_s"] for pid in pids)
            results = pool.starmap(
                _loadgen,
                [
                    (fleet.addresses, mix, share, duration, 7 + i, (i + 1) * GTID_STRIDE, start_at)
                    for i, share in enumerate(shares)
                ],
            )
            shard_cpu += sum(process_work(pid)["cpu_s"] for pid in pids)
        work = _shard_work(fleet)
    counters = {key: sum(r["counters"][key] for r in results) for key in results[0]["counters"]}
    decided = counters["fastpath_commits"] + counters["twopc_commits"] + counters["twopc_aborts"]
    per_txn = max(decided, 1)
    return {
        "shards": shard_count,
        "mix": mix,
        "mpl": mpl,
        "loadgens": len(shares),
        "oversubscribed": round((len(shares) + shard_count) / cores, 2),
        "tps": round(sum(r["tps"] for r in results), 1),
        "aborts": sum(r["aborts"] for r in results),
        "counters": counters,
        "decided": decided,
        "fastpath_ratio": round(counters["fastpath_commits"] / per_txn, 4),
        "rpcs": work["rpcs_total"],
        "orphans": fleet.alive_count + fleet.kill_count,
        "cpu_us_per_txn": round(1e6 * (sum(r["cpu_s"] for r in results) + shard_cpu) / per_txn, 1),
        "parked_per_txn": round(work["parked_total"] / per_txn, 4),
        "lock_wait_ms_per_txn": round(1e3 * work["lock_wait_seconds_total"] / per_txn, 4),
        "lock_timeouts": work["lock_timeouts_total"],
        "shard_aborts": work["aborts_by_reason"],
    }


def measure_2pc_overhead(iterations: int, shard_count: int = 2) -> dict:
    """Paired per-transaction latency on a fleet: fast path vs 2PC.

    Customer 1 lives on shard 1 and customer 2 on shard 0 (modular map),
    so the deposit commits via the single-shard fast path while the
    transfer's two writes force PREPARE on both shards plus the decision
    broadcast.  Interleaving the two keeps machine noise symmetric.
    """
    fast: "list[float]" = []
    twopc: "list[float]" = []
    with _fleet(shard_count) as fleet, fleet.connect() as conn:
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
    assert counters["fastpath_commits"] == counters["twopc_commits"] == iterations
    fast_us = statistics.median(fast) * 1e6
    twopc_us = statistics.median(twopc) * 1e6
    return {
        "iterations": iterations,
        "fastpath_us": round(fast_us, 1),
        "twopc_us": round(twopc_us, 1),
        "overhead": round(twopc_us / max(fast_us, 1e-9), 2),
    }


def run_curve(shards: "tuple[int, ...]", mpl: int, duration: float, rounds: int = 3) -> "list[dict]":
    """One point per (mix, shard count), each the whole record of its
    median-TPS round; rounds interleaved so machine-wide noise hits
    every point alike.  ``speedup`` is TPS over the mix's first point."""
    runs: dict = {(mix, count): [] for mix in MIXES for count in shards}
    for _ in range(rounds):
        for mix, count in runs:
            runs[mix, count].append(measure_shards(count, mix, mpl, duration))
    chosen = {key: sorted(r, key=lambda p: p["tps"])[len(r) // 2] for key, r in runs.items()}
    for (mix, _), point in chosen.items():
        point["speedup"] = round(point["tps"] / max(chosen[mix, shards[0]]["tps"], 1e-9), 2)
    return list(chosen.values())


def gate(points: "list[dict]", overhead: dict) -> "list[str]":
    """What is wrong with a curve and its paired 2PC micro, as counts
    the code determines; empty when it passes.  No timing is gated."""
    failures = []
    for p in points:
        name = f"{p['mix']} at {p['shards']} shard(s)"
        twopc = p["counters"]["twopc_commits"] + p["counters"]["twopc_aborts"]
        if p["tps"] <= 0 or p["decided"] <= 0:
            failures.append(f"no progress: {name}")
        if p["orphans"]:
            failures.append(f"{p['orphans']} orphaned or force-killed shard process(es): {name}")
        if (p["shards"] == 1 or p["mix"] == "readonly") and twopc:
            failures.append(f"{twopc} 2PC transaction(s): {name}")
        if p["mix"] == "readonly" and p["rpcs"] - p["decided"] > 2 * p["shards"] * p["mpl"]:
            failures.append(
                f"{p['rpcs'] - p['decided']} RPCs beyond one per transaction "
                f"(> {2 * p['shards'] * p['mpl']}): {name}"
            )
        if p["shards"] > 1 and p["mix"] == "uniform" and not p["counters"]["twopc_commits"]:
            failures.append(f"no 2PC commit: {name}")
    if overhead["overhead"] <= 1.0:
        failures.append(f"2PC measured no dearer than the fast path ({overhead['overhead']}x)")
    return failures


def _by_reason(counts: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v) or "none"


def _describe(p: dict) -> str:
    counters = p["counters"]
    split = {k[len("twopc_aborts_"):]: v for k, v in counters.items() if k.startswith("twopc_aborts_")}
    return (
        f"  {p['mix']:<8} {p['shards']} shard{'s' if p['shards'] > 1 else ' '}: "
        f"{p['tps']:>8,.0f} tps ({p['speedup']:4.2f}x)   {p['loadgens']} loadgen(s), "
        f"{p['oversubscribed']:.2f}x oversubscribed   {p['cpu_us_per_txn']:7.1f}us CPU/txn   "
        f"{p['rpcs'] - p['decided']} RPCs beyond 1/txn   {p['parked_per_txn']:.3f} parked/txn   "
        f"{p['lock_wait_ms_per_txn']:.3f} ms lock-wait/txn   {p['lock_timeouts']} lock timeouts   "
        f"fastpath {p['fastpath_ratio']:.1%}   2pc {counters['twopc_commits']:,d} commits "
        f"/ {counters['twopc_aborts']:,d} aborts\n"
        f"    aborts by reason: shards {_by_reason(p['shard_aborts'])}   2pc {_by_reason(split)}"
    )


# ----------------------------------------------------------------------
# pytest entry points (not part of tier-1: testpaths excludes benchmarks/)
# ----------------------------------------------------------------------
def test_cluster_makes_progress_at_every_shard_count() -> None:
    points = [measure_shards(count, mix, mpl=4, duration=0.5) for mix in MIXES for count in (1, 2)]
    assert gate(points, measure_2pc_overhead(iterations=50)) == []


def test_2pc_costs_more_than_the_fast_path() -> None:
    assert measure_2pc_overhead(iterations=50)["overhead"] > 1.0


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
    args = parser.parse_args(argv)

    shards = SMOKE_SHARDS if args.smoke else SHARDS
    mpl = SMOKE_MPL if args.smoke else MPL
    duration = args.duration or (0.6 if args.smoke else 1.5)
    rounds = 3
    cores = os.cpu_count() or 1

    print(
        f"== SmallBank {' / '.join(MIXES)} over a shard fleet, MPL {mpl}, {cores} cores "
        f"({duration:.1f}s/point, median-TPS of {rounds} interleaved rounds) =="
    )
    points = run_curve(shards, mpl, duration, rounds=rounds)
    for point in points:
        print(_describe(point))
    ratios = {p["mix"]: p["speedup"] for p in points if p["shards"] == 2}
    print(
        "  2-shard/1-shard TPS: "
        + ", ".join(f"{mix} {ratio:.2f}x" for mix, ratio in ratios.items())
        + "; oversubscribed "
        + ", ".join(f"{p['oversubscribed']:.2f}x" for p in points if p["mix"] == MIXES[0])
        + f" at {', '.join(map(str, shards))} shards (recorded, not gated)"
    )

    print("== 2PC overhead (paired single-shard vs cross-shard commits, 2-shard fleet) ==")
    overhead = measure_2pc_overhead(100 if args.smoke else 400)
    print(
        f"  fast path {overhead['fastpath_us']:7.1f}us   "
        f"2PC {overhead['twopc_us']:7.1f}us   "
        f"({overhead['overhead']:.2f}x per transaction)"
    )

    failures = gate(points, overhead)
    for failure in failures:
        print(f"FAIL: {failure}")

    if not args.no_json:
        append_bench_record(
            BENCH_JSON,
            "bench_cluster",
            {
                "mode": "smoke" if args.smoke else "full",
                "strategy": STRATEGY,
                "mpl": mpl,
                "rounds": rounds,
                "duration_s": duration,
                "points": points,
                "tps_ratio_2_over_1": ratios,
                "twopc_overhead": overhead,
            },
        )
        print(f"appended run record to {BENCH_JSON.name}")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
