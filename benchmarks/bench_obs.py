"""Observability smoke benchmark: metrics + trace over real threaded runs.

For each isolation level (SI, S2PL, SSI) this runs the threaded SmallBank
driver with a full :class:`~repro.obs.Observability` installed — metrics
registry *and* trace recorder — and then asserts the acceptance criteria
of the observability layer:

* the response-time and (for blocking configurations) lock-wait latency
  histograms are populated;
* the WAL group-commit batch-size histogram and the SSI abort counter are
  present in both expositions (nonzero where the configuration makes them
  reachable);
* the trace round-trips through JSONL and its rebuilt committed history
  passes the MVSG serializability checker for S2PL / verifies for SI;
* exposition works both ways: ``BENCH_obs_metrics.json`` and
  ``BENCH_obs_metrics.prom`` are written at the repo root — generated
  and git-ignored, not committed; CI uploads them as artifacts.

Run the CI smoke version with::

    PYTHONPATH=src python benchmarks/bench_obs.py --smoke

the full version with::

    PYTHONPATH=src python benchmarks/bench_obs.py

or the pytest variant with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs.py -q
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from repro.engine import EngineConfig
from repro.obs import Observability, TraceRecorder
from repro.smallbank import PopulationConfig, build_database, get_strategy
from repro.workload.driver import ThreadedDriver, ThreadedDriverConfig
from repro.workload.retry import RetryPolicy

REPO_ROOT = Path(__file__).resolve().parent.parent
METRICS_JSON = REPO_ROOT / "BENCH_obs_metrics.json"
METRICS_PROM = REPO_ROOT / "BENCH_obs_metrics.prom"

ISOLATION_CONFIGS = {
    "si": EngineConfig.postgres,
    "s2pl": EngineConfig.s2pl,
    "ssi": EngineConfig.ssi,
}


def run_instrumented(
    isolation: str, *, mpl: int, duration: float, customers: int = 50
) -> Observability:
    """One threaded balance60 run with metrics + trace installed."""
    obs = Observability(trace=TraceRecorder())
    db = build_database(
        ISOLATION_CONFIGS[isolation](),
        PopulationConfig(customers=customers),
    )
    driver = ThreadedDriver(
        db,
        get_strategy("base-si").transactions(),
        ThreadedDriverConfig(
            mpl=mpl,
            customers=customers,
            hotspot=5,
            mix="balance60",
            duration=duration,
            seed=11,
            retry=RetryPolicy.exponential(max_attempts=3, base_backoff=0.0005),
        ),
        obs=obs,
    )
    driver.run()
    return obs


def check_run(isolation: str, obs: Observability) -> list[str]:
    """Assert the acceptance criteria; returns failure descriptions."""
    failures: list[str] = []
    m = obs.metrics

    def fail(msg: str) -> None:
        failures.append(f"{isolation}: {msg}")

    rt = m.histogram("repro_response_time_seconds")
    if rt.count == 0:
        fail("response-time histogram is empty")
    if not 0.0 < rt.p95 <= 10.0:
        fail(f"response-time p95 {rt.p95} outside (0, 10s]")
    if isolation == "s2pl":
        lock_wait = m.histogram("repro_lock_wait_seconds")
        if lock_wait.count == 0:
            fail("no lock waits recorded under S2PL at high contention")
    wal_batch = m.histogram("repro_wal_batch_size")
    if wal_batch.count == 0:
        fail("WAL batch-size histogram is empty despite writers committing")
    commits = m.counter("repro_txn_commits_total").value
    if commits == 0:
        fail("no commits counted")

    # Schema presence in both expositions, even for never-fired counters.
    as_json = m.to_json()
    as_prom = m.to_prometheus()
    for name in (
        "repro_wal_batch_size",
        "repro_ssi_aborts_total",
        "repro_response_time_seconds",
        "repro_lock_wait_seconds",
    ):
        if name not in as_json:
            fail(f"{name} missing from JSON exposition")
        if name not in as_prom:
            fail(f"{name} missing from Prometheus exposition")

    # Trace: JSONL round-trip, then MVSG over the rebuilt footprints.
    trace = obs.trace
    assert trace is not None
    if len(trace.events_of("commit")) == 0:
        fail("trace recorded no commit events")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        written = trace.dump_jsonl(path)
        reloaded = TraceRecorder.load_jsonl(path)
        if len(reloaded) != written:
            fail(f"JSONL round-trip lost events ({written} -> {len(reloaded)})")
        report = reloaded.check_serializability()
    if report.committed_count != len(trace.events_of("commit")):
        fail("rebuilt committed history does not match traced commits")
    if isolation in ("s2pl", "ssi") and not report.serializable:
        fail(f"MVSG cycle under {isolation}: {report}")
    return failures


# ----------------------------------------------------------------------
# pytest entry points (not part of tier-1: testpaths excludes benchmarks/)
# ----------------------------------------------------------------------
def test_observability_smoke() -> None:
    for isolation in ISOLATION_CONFIGS:
        obs = run_instrumented(isolation, mpl=8, duration=0.5)
        assert check_run(isolation, obs) == []


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="short CI-sized runs"
    )
    parser.add_argument(
        "--no-export", action="store_true",
        help="skip writing BENCH_obs_metrics.{json,prom}",
    )
    args = parser.parse_args(argv)

    mpl = 8 if args.smoke else 16
    duration = 0.5 if args.smoke else 2.0

    all_failures: list[str] = []
    exported: dict[str, dict] = {}
    for isolation in ISOLATION_CONFIGS:
        obs = run_instrumented(isolation, mpl=mpl, duration=duration)
        failures = check_run(isolation, obs)
        all_failures.extend(failures)
        m = obs.metrics
        rt = m.histogram("repro_response_time_seconds")
        lw = m.histogram("repro_lock_wait_seconds")
        wb = m.histogram("repro_wal_batch_size")
        print(
            f"{isolation:<5} commits {int(m.counter('repro_txn_commits_total').value):>6}"
            f"   rt p50/p95 {rt.p50 * 1000:7.3f}/{rt.p95 * 1000:7.3f} ms"
            f"   lock-waits {lw.count:>5} (p95 {lw.p95 * 1000:7.3f} ms)"
            f"   wal batches {wb.count:>5} (mean {wb.mean:4.2f})"
            f"   ssi aborts {int(m.counter('repro_ssi_aborts_total').value)}"
            f"   trace events {len(obs.trace)}"
        )
        exported[isolation] = m.to_json()
        for line in failures:
            print(f"FAIL: {line}")

    if not args.no_export:
        METRICS_JSON.write_text(
            json.dumps(
                {"benchmark": "bench_obs", "mpl": mpl, "metrics": exported},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        # Prometheus export from the last isolation level's registry is
        # enough to validate the format end to end.
        METRICS_PROM.write_text(m.to_prometheus())
        print(f"wrote {METRICS_JSON.name} and {METRICS_PROM.name}")

    return 1 if all_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
