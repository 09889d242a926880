"""Network service benchmark: SmallBank TPS over the wire vs in-process.

For each MPL the same closed-system :class:`ThreadedDriver` run (SmallBank
``balance60`` mix, base-SI strategy, the paper's hotspot population) is
measured twice:

* **local** — driver threads on in-process engine sessions
  (``repro.connect("local://")``), and
* **net** — driver threads on pooled :class:`NetworkSession` proxies
  against a :class:`DatabaseServer` on loopback
  (``repro.connect("tcp://127.0.0.1:<port>")``), its loop thread in
  this process.

The per-MPL ratio is the measured cost of the service layer: framing,
JSON, syscalls and one scheduler hop per transaction (a committing
program run is one ``CALL`` frame).  It is printed and recorded, never
gated: on a 2-core host the *local* side has two GIL-convoy regimes and
identical code reads 1.3x-4.9x (EXPERIMENTS.md, ISSUE 20) — the point of
the pairing is that the *shape* of the contention curves survives the
wire, which is what makes over-the-wire experiments comparable to the
in-process figures.

What is gated is *work* (``measure_server_work``): against a server
subprocess driven by :data:`LOADGENS` client processes, the server's CPU
per RPC at MPL 8 may not exceed :data:`MAX_CPU_GROWTH` times its MPL-1
figure, its threads may not yield the CPU more than
:data:`MAX_VOLUNTARY_SWITCHES` times per RPC there — what a server that
trades the loop for a thread per connection pays in GIL hand-offs
(DESIGN.md §11: ~3.7 per RPC, 1.6x the CPU) — and a transaction must be
exactly one RPC.  The same points record involuntary switches per RPC
and RPCs per loop wake-up.  ``measure_server_work(8, 2.0, OTHER/src)``
runs the point against another checkout's server (how the
``mpl8-server-compare`` record in ``BENCH_net.json`` was made).

Recorded beside them, not gated (``measure_codec``): microseconds per
``encode_frame`` / ``decode_payload`` of a SmallBank ``CALL`` request and
its reply, and the Python-level calls ``session()`` + PING + ``close()``
costs on each side of the wire (``ping_calls``, which
``tests/test_work_budget.py`` bounds in tier-1).

The run also asserts the server's robustness contract: after every
driver run the server reports zero active connections/sessions and zero
active transactions (nothing leaked), and it shuts down cleanly.

Results are appended to ``BENCH_net.json`` at the repo root (CI uploads
it as an artifact).  CI smoke::

    PYTHONPATH=src python benchmarks/bench_net.py --smoke

full grid::

    PYTHONPATH=src python benchmarks/bench_net.py

or via pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_net.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from multiprocessing import get_context
from pathlib import Path

import repro
from repro.bench.harness import append_bench_record, count_calls, process_work, speed_probe, split_mpl
from repro.engine import EngineConfig
from repro.obs import Observability
from repro.net import DatabaseServer
from repro.net.client import WireConnection
from repro.net.protocol import LENGTH_BYTES, decode_payload, encode_frame
from repro.smallbank import (
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
)
from repro.workload.driver import ThreadedDriver, ThreadedDriverConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_net.json"

MPLS = (1, 4, 8, 16, 30)
SMOKE_MPLS = (1, 8)
CUSTOMERS = 100
MIX = "balance60"

#: Client processes of a ``measure_server_work`` point (the MPL is split
#: across them, so the clients do not serialize on one GIL) and its MPLs.
LOADGENS = 4
WORK_MPLS = (1, 8)
#: Ceiling on server CPU per RPC at MPL 8 over MPL 1.  The selector loop
#: reads 0.67x-0.78x: its MPL-1 figure pays a sleep and a wake-up per RPC
#: (1.0 voluntary switches), at MPL 8 five RPCs share one.  This catches a
#: loop whose per-RPC cost grows with the connections it watches.
MAX_CPU_GROWTH = 1.25
#: Ceiling on voluntary context switches per RPC at MPL 8 — the quantity
#: that separates the server models: the loop reads 0.004-0.013 (it sleeps
#: only when every connection is idle), a thread per connection ~3.7 (one
#: GIL hand-off per blocking ``recv`` / ``send``), which MAX_CPU_GROWTH
#: alone would pass (1.6x the loop's MPL-8 CPU is ~1.2x its MPL-1 CPU).
MAX_VOLUNTARY_SWITCHES = 0.1


def _driver_config(mpl: int, duration: float, seed: int = 7) -> ThreadedDriverConfig:
    return ThreadedDriverConfig(
        mpl=mpl,
        customers=CUSTOMERS,
        hotspot=10,
        mix=MIX,
        duration=duration,
        seed=seed,
    )


def measure_local(mpl: int, duration: float) -> dict:
    db = build_database(EngineConfig.postgres(), PopulationConfig(customers=CUSTOMERS))
    conn = repro.connect("local://", database=db)
    driver = ThreadedDriver(
        None, get_strategy("base-si").transactions(),
        _driver_config(mpl, duration), connection=conn,
    )
    stats = driver.run()
    conn.close()
    return {"tps": round(stats.tps, 1), "aborts": stats.abort_count()}


def measure_net(mpl: int, duration: float, obs: "Observability | None" = None) -> dict:
    db = build_database(EngineConfig.postgres(), PopulationConfig(customers=CUSTOMERS))
    server = DatabaseServer(
        db, max_connections=mpl + 2, obs=obs
    ).start_in_thread()
    try:
        conn = repro.connect(
            f"tcp://127.0.0.1:{server.port}", pool_size=mpl, timeout=30.0
        )
        driver = ThreadedDriver(
            None, get_strategy("base-si").transactions(),
            _driver_config(mpl, duration), connection=conn,
        )
        stats = driver.run()
        conn.close()
    finally:
        # Graceful shutdown drains every handler (and raises on leaked
        # connections); the counters below are read on the quiesced server.
        server.shutdown()
    server_stats = server.stats()
    return {
        "tps": round(stats.tps, 1),
        "aborts": stats.abort_count(),
        "rpcs": server_stats["rpcs_total"],
        "leaked": _leaked(server_stats),
    }


def _leaked(server_stats: dict) -> dict:
    """What a quiesced server still holds; all zeros or it leaked."""
    return {
        "connections": server_stats["connections_active"],
        "transactions": server_stats["active_transactions"],
        "sessions": server_stats["sessions_opened"] - server_stats["sessions_closed"],
    }


def _spawn_server(
    mpl: int, src: "str | None" = None
) -> "tuple[subprocess.Popen, int]":
    """Launch ``python -m repro.net`` (from this checkout, or the ``src``
    directory of another) and wait for its LISTENING line."""
    env = dict(os.environ)
    src = src or str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.net",
            "--customers", str(CUSTOMERS),
            "--isolation", "si",
            "--max-connections", str(mpl + 2),
        ],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("LISTENING "):
        proc.kill()
        raise RuntimeError(f"server subprocess failed to start: {line!r}")
    return proc, int(line.split()[1])


def _loadgen(port: int, mpl: int, duration: float, seed: int, start_at: float) -> dict:
    """One client process of a ``measure_server_work`` point."""
    conn = repro.connect(f"tcp://127.0.0.1:{port}", pool_size=mpl, timeout=30.0)
    driver = ThreadedDriver(
        None, get_strategy("base-si").transactions(),
        _driver_config(mpl, duration, seed), connection=conn,
    )
    time.sleep(max(0.0, start_at - time.time()))  # all loadgens together
    stats = driver.run()
    conn.close()
    return {"tps": stats.tps, "aborts": stats.abort_count()}


def measure_server_work(
    mpl: int, duration: float, server_src: "str | None" = None
) -> dict:
    """What the server *does* per RPC at ``mpl``: a server subprocess,
    the clients in ``min(LOADGENS, mpl)`` processes of their own, unpinned
    — CPU and context switches from ``/proc``, RPCs and loop wake-ups
    from the server's own ``STATS``."""
    shares = split_mpl(mpl, LOADGENS)
    proc, port = _spawn_server(mpl + 1, server_src)
    try:
        probe = WireConnection("127.0.0.1", port)
        with get_context("spawn").Pool(len(shares)) as pool:
            stats0, work0 = probe.call("STATS", {})["stats"], process_work(proc.pid)
            start_at = time.time() + 1.0  # the workers import repro first
            results = pool.starmap(
                _loadgen,
                [(port, share, duration, 7 + i, start_at) for i, share in enumerate(shares)],
            )
            stats1, work1 = probe.call("STATS", {})["stats"], process_work(proc.pid)
        # A transaction is one RPC: counted on a quiet server, exactly.
        txns = get_strategy("base-si").transactions()
        with repro.connect(f"tcp://127.0.0.1:{port}") as conn:
            session = conn.session()
            customers = [{"N": customer_name(i)} for i in range(1, 11)]
            txns.run(session, "Balance", customers[0])  # PREPARE_PROGRAM is once
            before = probe.call("STATS", {})["stats"]["rpcs_total"]
            for args in customers:
                txns.run(session, "Balance", args)
            counted = probe.call("STATS", {})["stats"]["rpcs_total"] - before - 1
            session.close()
        probe.close()
        proc.stdin.close()  # EOF → graceful shutdown → STATS line
        tail = proc.stdout.read()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - crash path
            proc.kill()
    final = [line for line in tail.splitlines() if line.startswith("STATS ")]
    if not final:
        raise RuntimeError(
            f"server subprocess exited {proc.returncode} without final stats"
        )
    rpcs = stats1["rpcs_total"] - stats0["rpcs_total"]
    wakeups = stats1.get("loop_wakeups_total", 0) - stats0.get("loop_wakeups_total", 0)
    return {
        "mpl": mpl,
        "loadgens": len(shares),
        "tps": round(sum(r["tps"] for r in results), 1),
        "rpcs": rpcs,
        "server_cpu_us_per_rpc": round(1e6 * (work1["cpu_s"] - work0["cpu_s"]) / rpcs, 2),
        "voluntary_switches_per_rpc": round((work1["voluntary"] - work0["voluntary"]) / rpcs, 4),
        "involuntary_switches_per_rpc": round((work1["involuntary"] - work0["involuntary"]) / rpcs, 4),
        "rpcs_per_wakeup": round(rpcs / wakeups, 3) if wakeups else None,
        "rpcs_per_txn": counted / len(customers),
        "leaked": _leaked(json.loads(final[-1][len("STATS "):])),
    }


#: A SmallBank ``CALL`` as a ``tcp://`` client sends it (a Balance; the
#: pid is a server's, so as wide as a real one) and the reply it gets.
CALL_REQUEST = {
    "op": "CALL", "pid": 812_345_678, "args": {"N": customer_name(42)}, "label": "Balance",
}
CALL_REPLY = {"result": 12345.67, "ok": True}


def measure_codec() -> dict:
    """The ``codec`` block of a run record: microseconds per
    ``encode_frame`` / ``decode_payload`` of :data:`CALL_REQUEST` and
    :data:`CALL_REPLY` (median of 9 batches of 2 000, one thread) and
    :func:`ping_calls`.  Recorded, not gated."""
    micros = {}
    for name, message in (("call_request", CALL_REQUEST), ("call_reply", CALL_REPLY)):
        payload = encode_frame(message)[LENGTH_BYTES:]
        for verb, work, arg in (("encode", encode_frame, message), ("decode", decode_payload, payload)):
            samples = []
            for _ in range(1 + 9):  # the first batch warms up
                started = time.perf_counter()
                for _ in range(2000):
                    work(arg)
                samples.append((time.perf_counter() - started) / 2000 * 1e6)
            micros[f"{verb}_{name}"] = round(statistics.median(samples[1:]), 3)
    return {"us": micros, "python_calls_per_ping": ping_calls()}


def ping_calls() -> dict:
    """Python-level calls (``count_calls``) ``session()`` + PING +
    ``close()`` costs on a pooled wire to an in-process server, on the
    client thread and on the server's loop thread."""
    db = build_database(EngineConfig.postgres(), PopulationConfig(customers=10))
    server = DatabaseServer(db).start_in_thread()
    conn = repro.connect(f"tcp://127.0.0.1:{server.port}")

    def ping() -> None:
        session = conn.session()
        session._call("PING")
        session.close()

    try:
        ping()  # from here on the pool holds a wire
        calls = count_calls(ping, servers=(server,))
        return {"client": sum(calls["caller"].values()), "server": sum(calls["servers"].values())}
    finally:
        conn.close()
        server.shutdown()


def run_curves(mpls: "tuple[int, ...]", duration: float, rounds: int = 3) -> dict:
    """Measure both backends at each MPL, ``rounds`` times, interleaved.

    Local and net are measured back-to-back within a round so that
    machine-wide noise (CPU contention from neighbours) hits both sides
    of a ratio; the reported TPS is the per-backend median across rounds
    and the reported ratio is the *median of per-round ratios*.
    """
    samples: dict = {
        "local": {str(m): [] for m in mpls},
        "net": {str(m): [] for m in mpls},
    }
    ratios: dict = {str(m): [] for m in mpls}
    for _ in range(rounds):
        for mpl in mpls:
            local = measure_local(mpl, duration)
            net = measure_net(mpl, duration)
            samples["local"][str(mpl)].append(local)
            samples["net"][str(mpl)].append(net)
            ratios[str(mpl)].append(local["tps"] / max(net["tps"], 1e-9))
    out: dict = {"local": {}, "net": {}, "ratio": {}, "rounds": rounds}
    for mpl in mpls:
        key = str(mpl)
        local_tps = statistics.median(s["tps"] for s in samples["local"][key])
        net_tps = statistics.median(s["tps"] for s in samples["net"][key])
        out["local"][key] = {
            "tps": local_tps,
            "aborts": max(s["aborts"] for s in samples["local"][key]),
        }
        out["net"][key] = {
            "tps": net_tps,
            "aborts": max(s["aborts"] for s in samples["net"][key]),
            "rpcs": max(s["rpcs"] for s in samples["net"][key]),
            "leaked": {
                field: max(s["leaked"][field] for s in samples["net"][key])
                for field in ("connections", "transactions", "sessions")
            },
        }
        out["ratio"][key] = round(statistics.median(ratios[key]), 2)
    return out


def rpc_latency_snapshot(mpl: int, duration: float) -> dict:
    """One instrumented over-the-wire run: per-RPC service-time summary."""
    obs = Observability()
    result = measure_net(mpl, duration, obs=obs)
    h = obs.metrics.histogram("repro_net_rpc_seconds")
    return {
        "mpl": mpl,
        "tps": result["tps"],
        "rpcs": result["rpcs"],
        "rpc_service_time": {
            "count": h.count,
            "mean_us": round(h.mean * 1e6, 1),
            "p50_us": round(h.p50 * 1e6, 1),
            "p95_us": round(h.p95 * 1e6, 1),
            "p99_us": round(h.p99 * 1e6, 1),
        },
    }


# ----------------------------------------------------------------------
# pytest entry points (not part of tier-1: testpaths excludes benchmarks/)
# ----------------------------------------------------------------------
def test_server_leaks_nothing_after_driver_run() -> None:
    net = measure_net(8, duration=0.5)
    assert net["leaked"] == {"connections": 0, "transactions": 0, "sessions": 0}


def _describe_work(point: dict) -> str:
    return (
        f"MPL {point['mpl']:>2}: {point['tps']:>8,.0f} tps   "
        f"{point['server_cpu_us_per_rpc']:6.1f}us server CPU/RPC   "
        f"{point['voluntary_switches_per_rpc']:.3f} vol + "
        f"{point['involuntary_switches_per_rpc']:.3f} invol switches/RPC   "
        f"{point['rpcs_per_wakeup']} RPCs/wake-up"
    )


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced grid (MPL 1, 8) with shorter measurement windows",
    )
    parser.add_argument(
        "--no-json", action="store_true",
        help="skip appending to BENCH_net.json",
    )
    args = parser.parse_args(argv)
    before = speed_probe()  # the record's provenance brackets the run

    mpls = SMOKE_MPLS if args.smoke else MPLS
    duration = 0.6 if args.smoke else 1.5

    rounds = 3
    print(f"== SmallBank {MIX} TPS, in-process vs over-the-wire "
          f"({duration:.1f}s/point, median of {rounds} interleaved rounds) ==")
    curves = run_curves(mpls, duration, rounds=rounds)
    failures = 0
    for mpl in mpls:
        local = curves["local"][str(mpl)]
        net = curves["net"][str(mpl)]
        ratio = curves["ratio"][str(mpl)]
        print(
            f"  MPL {mpl:>2}: local {local['tps']:>8,.0f} tps   "
            f"net {net['tps']:>8,.0f} tps   ({ratio:4.2f}x slower)   "
            f"rpcs {net['rpcs']:>7,d}"
        )
        if net["leaked"] != {"connections": 0, "transactions": 0, "sessions": 0}:
            print(f"FAIL: MPL {mpl} leaked server state: {net['leaked']}")
            failures += 1

    slowdown = curves["ratio"].get("8", 0.0)
    if "8" in curves["net"]:
        print(f"  MPL-8 slowdown: {slowdown:.2f}x (recorded, not gated)")
        if curves["net"]["8"]["tps"] <= 0:
            print("FAIL: over-the-wire run made no progress at MPL 8")
            failures += 1

    work_duration = 2.0
    print(f"== Server work per RPC (server process + up to {LOADGENS} client "
          f"processes, unpinned, {work_duration:.1f}s/point) ==")
    work = {str(mpl): measure_server_work(mpl, work_duration) for mpl in WORK_MPLS}
    for point in work.values():
        print("  " + _describe_work(point))
        if point["rpcs_per_txn"] != 1:
            print(f"FAIL: a transaction took {point['rpcs_per_txn']} RPCs, not 1")
            failures += 1
        if any(point["leaked"].values()):
            print(f"FAIL: MPL {point['mpl']} server process leaked: {point['leaked']}")
            failures += 1
    growth = work["8"]["server_cpu_us_per_rpc"] / work["1"]["server_cpu_us_per_rpc"]
    print(f"  server CPU per RPC, MPL 8 over MPL 1: {growth:.2f}x "
          f"(ceiling {MAX_CPU_GROWTH}x)")
    if growth > MAX_CPU_GROWTH:
        print(f"FAIL: server CPU per RPC grew {growth:.2f}x from MPL 1 to MPL 8")
        failures += 1
    yields = work["8"]["voluntary_switches_per_rpc"]
    print(f"  voluntary context switches per RPC at MPL 8: {yields} "
          f"(ceiling {MAX_VOLUNTARY_SWITCHES})")
    if yields > MAX_VOLUNTARY_SWITCHES:
        print(f"FAIL: the server's threads yield the CPU {yields} times per RPC")
        failures += 1

    snapshot_mpl = 8
    print(f"== Server RPC service time (MPL {snapshot_mpl}) ==")
    snapshot = rpc_latency_snapshot(snapshot_mpl, duration)
    svc = snapshot["rpc_service_time"]
    print(
        f"  {svc['count']:,d} RPCs   mean {svc['mean_us']:7.1f}us   "
        f"p95 {svc['p95_us']:7.1f}us   p99 {svc['p99_us']:7.1f}us"
    )

    print("== Frame codec and Python calls per PING (recorded, not gated) ==")
    codec = measure_codec()
    print("  " + "   ".join(f"{name} {us:.2f}us" for name, us in codec["us"].items()))
    calls = codec["python_calls_per_ping"]
    print(f"  session() + PING + close(): {calls['client']} Python calls on the "
          f"client, {calls['server']} on the server's loop thread")

    if not args.no_json:
        append_bench_record(
            BENCH_JSON,
            "bench_net",
            {
                "mode": "smoke" if args.smoke else "full",
                "mix": MIX,
                "tps": curves,
                "mpl8_slowdown": round(slowdown, 2),
                "server_work": work,
                "server_cpu_growth": round(growth, 3),
                "rpc_latency": snapshot,
                "codec": codec,
            },
            before,
        )
        print(f"appended run record to {BENCH_JSON.name}")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
