"""Distributed chaos soak: certify serializability under injected faults.

Runs the seeded fault schedule from :mod:`repro.cluster.chaos` against a
real sharded deployment — ≥ 2 :class:`~repro.net.DatabaseServer` shards
behind the cluster router at MPL 8 — while the controller drops/delays
response frames, resets connections, duplicates 2PC decisions, kills and
restarts a shard on its own port, and crashes the coordinator inside the
in-doubt window (both sides of the decision-log write).  After the storm
the soak drives recovery to a fixed point and certifies:

* the merged cross-shard MVSG is **acyclic** under the requested
  strategy (``promote-all`` by default — the paper's fix must hold even
  mid-crash),
* the SmallBank ledger is **exactly conserved** (every program moves
  money, none mints it), and
* **zero** transactions remain in doubt once the in-doubt resolver has
  swept the decision log.

Each run appends its ``to_record()`` to the ``runs`` of
``BENCH_chaos_cluster.json`` at the repo root through
:func:`repro.bench.harness.append_bench_record` — the same file and
writer as the CI gate ``python -m repro.cluster --chaos-smoke``, so a
single artifact accumulates both.  CI smoke::

    PYTHONPATH=src python benchmarks/bench_chaos_cluster.py --smoke

full soak (longer storm, several seeds)::

    PYTHONPATH=src python benchmarks/bench_chaos_cluster.py

or via pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_chaos_cluster.py -q
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.bench.harness import append_bench_record
from repro.cluster.chaos import ChaosConfig, build_fault_plan, run_chaos

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_chaos_cluster.json"

SHARDS = 2
MPL = 8
CUSTOMERS = 40
SEEDS = (11, 17, 23)
SMOKE_SEEDS = (11,)


def soak_config(
    seed: int,
    duration: float,
    *,
    shards: int = SHARDS,
    mpl: int = MPL,
    strategy: str = "promote-all",
) -> ChaosConfig:
    """The benchmark's soak shape: full fault schedule, MPL 8, 2 shards."""
    return ChaosConfig(
        shards=shards,
        customers=CUSTOMERS,
        mpl=mpl,
        duration=duration,
        seed=seed,
        strategy=strategy,
    )


def describe(result) -> str:
    checks = "ok" if result.ok else (
        f"serializable={result.serializable} "
        f"conserved={result.ledger_conserved} "
        f"in_doubt={result.in_doubt_after_recovery}"
    )
    injections = sum(result.fault_injections.values())
    return (
        f"seed {result.config.seed:>3d}: {checks:<40s} "
        f"{result.global_transactions:>5d} gtx "
        f"({result.cross_shard_transactions} cross-shard)  "
        f"{injections} faults  "
        f"restarts={result.shard_restarts}  "
        f"{result.elapsed:5.1f}s"
    )


# ----------------------------------------------------------------------
# pytest entry points (not part of tier-1: testpaths excludes benchmarks/)
# ----------------------------------------------------------------------
def test_smoke_soak_certifies() -> None:
    result = run_chaos(soak_config(seed=11, duration=1.0))
    assert result.ok, result.report_description
    assert result.serializable
    assert result.ledger_conserved
    assert result.in_doubt_after_recovery == 0
    assert result.final_money == result.initial_money
    # The storm actually happened: the shard died and came back, and the
    # coordinator crashed inside the in-doubt window.
    assert result.shard_restarts == result.config.shard_crashes
    assert result.counters.get("coordinator_crashes_seen", 0) > 0


def test_record_shape_matches_the_ci_gate() -> None:
    """One file accumulates bench and --chaos-smoke records; pin the keys."""
    result = run_chaos(soak_config(seed=17, duration=0.8))
    record = result.to_record()
    assert record["benchmark"] == "chaos_cluster"
    for key in ("config", "ok", "checks", "counters", "router", "faults"):
        assert key in record
    assert set(record["checks"]) == {
        "serializable", "ledger_conserved", "in_doubt_after_recovery",
    }
    json.dumps(record)  # must be serializable as JSON


def test_fault_schedule_is_deterministic() -> None:
    """Same seed → the same firing decisions in the same consult order."""
    config = soak_config(seed=23, duration=1.0)
    plans = (build_fault_plan(config), build_fault_plan(config))
    points = sorted(
        p for p in ("net-drop-frame", "net-delay-frame", "conn-reset",
                    "net-dup-decision", "shard-crash",
                    "coordinator-crash-window")
    )
    decisions = []
    for plan in plans:
        decisions.append(
            [plan.should_fire(point) for _ in range(400) for point in points]
        )
    assert decisions[0] == decisions[1]
    assert any(decisions[0])  # the schedule is not vacuously quiet


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="one seed, short storm (the CI chaos-cluster smoke)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="storm duration in seconds (default 1.5 smoke / 4.0 full)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="run a single fault-schedule seed instead of the grid",
    )
    parser.add_argument(
        "--no-json", action="store_true",
        help="skip appending to BENCH_chaos_cluster.json",
    )
    args = parser.parse_args(argv)

    seeds = (
        (args.seed,) if args.seed is not None
        else SMOKE_SEEDS if args.smoke else SEEDS
    )
    duration = args.duration or (1.5 if args.smoke else 4.0)

    print(
        f"== chaos soak: {SHARDS} shards, MPL {MPL}, {CUSTOMERS} customers, "
        f"{duration:.1f}s storm, seeds {list(seeds)} =="
    )
    failures = 0
    for seed in seeds:
        result = run_chaos(soak_config(seed=seed, duration=duration))
        print("  " + describe(result))
        if not result.ok:
            failures += 1
        if not args.no_json:
            record = result.to_record()
            record["timestamp"] = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            )
            record["mode"] = "smoke" if args.smoke else "full"
            append_bench_record(BENCH_JSON, "chaos_cluster", record)
    if not args.no_json:
        print(f"appended {len(seeds)} run record(s) to {BENCH_JSON.name}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
