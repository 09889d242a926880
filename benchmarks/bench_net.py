"""Network service benchmark: SmallBank TPS over the wire vs in-process.

For each MPL the same closed-system :class:`ThreadedDriver` run (SmallBank
``balance60`` mix, base-SI strategy, the paper's hotspot population) is
measured twice:

* **local** — driver threads on in-process engine sessions
  (``repro.connect("local://")``), and
* **net** — driver threads on pooled :class:`NetworkSession` proxies
  against a :class:`DatabaseServer` on loopback
  (``repro.connect("tcp://127.0.0.1:<port>")``).  The server runs on an
  event-loop thread in this process by default; ``run_curves`` can also
  target a ``python -m repro.net`` *subprocess* (separate interpreter,
  no shared GIL) — see its docstring for the single- vs multi-core
  tradeoff.

The per-MPL ratio is the measured cost of the service layer: framing,
JSON, syscalls and one scheduler hop per transaction (a committing
program run is one ``CALL`` frame).  On loopback it is bounded
(acceptance: over-the-wire TPS within 2.5x of in-process at MPL 8)
— the point of the pairing is that the *shape* of the contention curves
survives the wire, which is what makes over-the-wire experiments
comparable to the in-process figures.

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
from pathlib import Path

import repro
from repro.bench.harness import append_bench_record
from repro.engine import EngineConfig
from repro.obs import Observability
from repro.net import DatabaseServer
from repro.smallbank import PopulationConfig, build_database, get_strategy
from repro.workload.driver import ThreadedDriver, ThreadedDriverConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_net.json"

MPLS = (1, 4, 8, 16, 30)
SMOKE_MPLS = (1, 8)
CUSTOMERS = 100
MIX = "balance60"

#: MPL-8 acceptance bound, smoke and full run alike: the measured
#: slowdown with one-RPC programs — 1.84x, 1.94x and 2.08x (the record
#: in BENCH_net.json) on three undisturbed smoke runs on the 2-vCPU
#: reference host, against 4.4x-5.3x with statement-by-statement
#: transactions — plus a 20-30 % margin for that host's speed swings.
MAX_SLOWDOWN = 2.5


def _driver_config(mpl: int, duration: float) -> ThreadedDriverConfig:
    return ThreadedDriverConfig(
        mpl=mpl,
        customers=CUSTOMERS,
        hotspot=10,
        mix=MIX,
        duration=duration,
        seed=7,
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
    leaked = {
        "connections": server_stats["connections_active"],
        "transactions": server_stats["active_transactions"],
        "sessions": server_stats["sessions_opened"] - server_stats["sessions_closed"],
    }
    return {
        "tps": round(stats.tps, 1),
        "aborts": stats.abort_count(),
        "rpcs": server_stats["rpcs_total"],
        "leaked": leaked,
    }


def _spawn_server(mpl: int) -> "tuple[subprocess.Popen, int]":
    """Launch ``python -m repro.net`` and wait for its LISTENING line."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
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


def measure_net_process(mpl: int, duration: float) -> dict:
    """Over-the-wire measurement against a server *subprocess*.

    This is the configuration the acceptance ratio is defined on: driver
    threads and the server loop in separate interpreters (no shared GIL),
    which is how the service layer actually deploys.  The subprocess
    shuts down gracefully on stdin EOF and reports its final counters on
    stdout, so the leak assertions hold here too.
    """
    proc, port = _spawn_server(mpl)
    try:
        conn = repro.connect(
            f"tcp://127.0.0.1:{port}", pool_size=mpl, timeout=30.0
        )
        driver = ThreadedDriver(
            None, get_strategy("base-si").transactions(),
            _driver_config(mpl, duration), connection=conn,
        )
        stats = driver.run()
        conn.close()
        proc.stdin.close()  # EOF → graceful shutdown → STATS line
        tail = proc.stdout.read()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - crash path
            proc.kill()
    stats_lines = [l for l in tail.splitlines() if l.startswith("STATS ")]
    if not stats_lines:
        raise RuntimeError(
            f"server subprocess exited {proc.returncode} without final stats"
        )
    server_stats = json.loads(stats_lines[-1][len("STATS "):])
    return {
        "tps": round(stats.tps, 1),
        "aborts": stats.abort_count(),
        "rpcs": server_stats["rpcs_total"],
        "leaked": {
            "connections": server_stats["connections_active"],
            "transactions": server_stats["active_transactions"],
            "sessions": server_stats["sessions_opened"] - server_stats["sessions_closed"],
        },
    }


def run_curves(
    mpls: "tuple[int, ...]", duration: float, rounds: int = 3,
    server_process: bool = False,
) -> dict:
    """Measure both backends at each MPL, ``rounds`` times, interleaved.

    Local and net are measured back-to-back within a round so that
    machine-wide noise (CPU contention from neighbours) hits both sides
    of a ratio; the reported TPS is the per-backend median across rounds
    and the reported ratio is the *median of per-round ratios* — the
    statistic the acceptance bound is checked against.

    ``server_process=True`` runs the server as a subprocess instead of a
    thread.  On multi-core hosts that is both more realistic and faster
    (client and server stop sharing a GIL); on a single-core host the
    extra kernel context switch per round trip makes it strictly slower,
    so the default keeps the server in-process.
    """
    measure = measure_net_process if server_process else measure_net
    samples: dict = {
        "local": {str(m): [] for m in mpls},
        "net": {str(m): [] for m in mpls},
    }
    ratios: dict = {str(m): [] for m in mpls}
    for _ in range(rounds):
        for mpl in mpls:
            local = measure_local(mpl, duration)
            net = measure(mpl, duration)
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
def test_wire_tps_within_bound_of_local() -> None:
    curves = run_curves((8,), duration=0.6, rounds=3)
    assert curves["net"]["8"]["tps"] > 0, "no progress over the wire"
    slowdown = curves["ratio"]["8"]
    assert slowdown <= MAX_SLOWDOWN, (
        f"over-the-wire slowdown {slowdown:.2f}x (median of 3 interleaved "
        f"rounds) exceeds {MAX_SLOWDOWN}x (local {curves['local']['8']['tps']}, "
        f"net {curves['net']['8']['tps']})"
    )


def test_server_leaks_nothing_after_driver_run() -> None:
    net = measure_net(8, duration=0.5)
    assert net["leaked"] == {"connections": 0, "transactions": 0, "sessions": 0}


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
        "--duration", type=float, default=None,
        help="seconds per TPS measurement point",
    )
    parser.add_argument(
        "--no-json", action="store_true",
        help="skip appending to BENCH_net.json",
    )
    args = parser.parse_args(argv)

    mpls = SMOKE_MPLS if args.smoke else MPLS
    duration = args.duration or (0.6 if args.smoke else 1.5)

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
        print(f"  MPL-8 slowdown: {slowdown:.2f}x (ceiling {MAX_SLOWDOWN}x)")
        if curves["net"]["8"]["tps"] <= 0:
            print("FAIL: over-the-wire run made no progress at MPL 8")
            failures += 1
        elif slowdown > MAX_SLOWDOWN:
            print(f"FAIL: slowdown {slowdown:.2f}x exceeds {MAX_SLOWDOWN}x ceiling")
            failures += 1

    snapshot_mpl = 8
    print(f"== Server RPC service time (MPL {snapshot_mpl}) ==")
    snapshot = rpc_latency_snapshot(snapshot_mpl, duration)
    svc = snapshot["rpc_service_time"]
    print(
        f"  {svc['count']:,d} RPCs   mean {svc['mean_us']:7.1f}us   "
        f"p95 {svc['p95_us']:7.1f}us   p99 {svc['p99_us']:7.1f}us"
    )

    if not args.no_json:
        append_bench_record(
            BENCH_JSON,
            "bench_net",
            {
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "mode": "smoke" if args.smoke else "full",
                "mix": MIX,
                "tps": curves,
                "mpl8_slowdown": round(slowdown, 2),
                "rpc_latency": snapshot,
            }
        )
        print(f"appended run record to {BENCH_JSON.name}")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
