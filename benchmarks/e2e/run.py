"""End-to-end SmallBank benchmark with a per-layer budget.

One run of one workload (what ``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/run.py --workload tcp_balance60 --seed 7 \
        --seconds 10 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) as one JSON object on the last line of stdout.  Without
``--workload`` the same command is run for every workload, interleaved,
:data:`RUNS` times, and the medians, quartiles and provenance are written
to ``benchmarks/e2e/out/``::

    python3 benchmarks/e2e/run.py [--seed 7] [--out FILE] [--smoke]
    python3 benchmarks/e2e/run.py --compare A.json B.json

See README.md beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import micro  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())
DEFAULT_SEED = 7
#: Runs per workload of the whole suite (``--smoke``: one).  With five,
#: one disturbed run was enough to leave a metric ``unresolved``.
RUNS = 10
#: A round is a fresh set-up plus one measured window of about this long;
#: a run takes the median over its rounds.
ROUND_SECONDS = 2.0
MAX_ROUNDS = 5
#: Spans written per client by the traced pass (totals use all spans).
TRACE_FILE_TXNS = 2_000
LOADGEN_BOUND = 0.8
#: End-to-end metric -> the round's measured value it is made from, the
#: speed factor that goes with it, and the power of that factor which
#: turns wall seconds into reference seconds (see calibrate.py); 0 =
#: reported as measured.
GATED = {
    "tps_ref": ("tps", "factor", -1),
    "p50_ref_ms": ("p50_ms", "factor", 1),
    "p95_ref_ms": ("p95_ms", "factor", 1),
    "cpu_ref_us_per_txn": ("cpu_us_per_txn", "factor", 1),
    "peak_rss_mb": ("peak_rss_mb", "factor", 0),
    # Reference seconds too, though the contract fixes its name and unit.
    "setup_s": ("setup_s", "setup_factor", 1),
}


def log(text: str) -> None:
    print(text, flush=True)


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def end_to_end(rows: list) -> dict:
    """A run's end-to-end metrics: the median over its rounds."""
    for index, row in enumerate(rows):
        log(
            f"  round {index}: {row['commits']} commits in {row['wall']:.2f} s "
            f"wall, speed factor {row['factor']:.3f}, tps {row['tps']:.0f}, "
            f"p50 {row['p50_ms']:.3f} ms, p95 {row['p95_ms']:.3f} ms, "
            f"cpu {row['cpu_us_per_txn']:.1f} us/txn, setup "
            f"{row['setup_s']:.2f} s at speed factor {row['setup_factor']:.3f}"
        )
    wall = {
        key: statistics.median(row[key] for row in rows)
        for key, _factor, power in GATED.values()
        if power
    }
    for key in ("factor", "setup_factor"):
        wall[f"speed_{key}"] = statistics.median(row[key] for row in rows)
    return {
        "metrics": {
            name: statistics.median(
                row[key] * row[factor] ** power for row in rows
            )
            for name, (key, factor, power) in GATED.items()
        },
        "wall": wall,
        "attempted": sum(row["attempted"] for row in rows),
        "failed": sum(row["failed"] for row in rows),
        "violations": [v for row in rows for v in row["violations"]],
    }


def end_to_end_threaded(workload, seed: int, seconds: float) -> dict:
    rounds = max(1, min(MAX_ROUNDS, int(seconds // ROUND_SECONDS)))
    return end_to_end(
        [
            wl.threaded_round(
                workload, f"{seed}.{index}", seconds=seconds / rounds
            )
            for index in range(rounds)
        ]
    )


def sim_scale(seconds: float) -> float:
    """Simulated-window scale: full size from 10 s up, shorter for smoke
    runs (golden values apply at full size only)."""
    return min(1.0, seconds / 10.0)


def check_sim_outcomes(cycles: list, seed: int, scale: float) -> "list[str]":
    violations = []
    outcomes = wl.sim_outcomes(cycles[0])
    for index, cycle in enumerate(cycles[1:], start=1):
        if wl.sim_outcomes(cycle) != outcomes:
            violations.append(
                f"sim: cycle {index} gave {wl.sim_outcomes(cycle)}, "
                f"cycle 0 gave {outcomes}"
            )
    golden = GOLDEN["sim_uniform_mpl20"].get(str(seed))
    if scale == 1.0 and golden is not None and outcomes != golden:
        violations.append(
            f"sim: seed {seed} gave {outcomes}, golden is {golden}"
        )
    return violations


def end_to_end_sim(seed: int, seconds: float) -> dict:
    scale = sim_scale(seconds)
    cycles = []
    started = time.perf_counter()
    while not cycles or time.perf_counter() - started < seconds:
        cycles.append(wl.sim_cycle(seed, scale))
    result = end_to_end(cycles)
    result["violations"] += check_sim_outcomes(cycles, seed, scale)
    return result


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def as_measured(row: dict) -> dict:
    """What the end-to-end metrics of a round read on the wall clock,
    and the speed factor that separates the two."""
    return {
        "host.speed_factor": row["factor"],
        "workload.wall_tps": row["tps"],
        "workload.wall_p50_ms": row["p50_ms"],
        "workload.wall_p95_ms": row["p95_ms"],
        "workload.wall_cpu_us_per_txn": row["cpu_us_per_txn"],
        "workload.wall_setup_s": row["setup_s"],
    }


def per_layer_threaded(workload, seed: int, seconds: float) -> dict:
    count = max(50, int(workload.count * seconds / 10.0))
    stream = f"{seed}.layers"
    live: dict = {}

    def live_micro(backend) -> None:
        if backend.fleet is not None:
            live.update(micro.net_live(*backend.fleet.addresses[0]))
        if backend.kind == "cluster":
            live.update(
                micro.cluster_commit_pair(backend.connection, max(20, count // 10))
            )

    plain = wl.threaded_round(workload, stream, count=count)
    traced = wl.threaded_round(
        workload, stream, count=count, traced=True, with_backend=live_micro
    )
    violations = plain["violations"] + traced["violations"]

    m = dict(live)
    m.update(as_measured(plain))
    m.update(micro.workload_layer(workload.mix))
    m.update(micro.smallbank_layer())
    m.update(micro.sqlmini_layer())
    m.update(micro.engine_layer())

    commits, attempted = plain["commits"], plain["attempted"]
    m["workload.loadgen_cpu_us_per_txn"] = plain["own_cpu"] / commits * 1e6
    m["workload.p99_ms"] = plain["p99_ms"]
    m["workload.fail_share"] = share(plain["failed"], attempted)
    m["smallbank.rollback_share"] = share(plain["rollbacks"], attempted)
    m["sqlmini.parse_cache_misses"] = plain["parse_misses"]
    m["engine.fcw_abort_share"] = share(plain["aborts"], attempted)
    m["engine.versions_per_commit"] = share(
        plain["versions_pruned"], plain["all_commits"]
    )
    m["engine.vacuum_ms"] = plain["vacuum_s"] * 1e3
    if workload.backend == "local":
        m["engine.wal_records_per_commit"] = share(plain["wal_records"], commits)
    else:
        m.update(micro.net_codec())
        m["net.rpcs_per_txn"] = share(plain["rpcs"], attempted)
        # Without server processes the share would be 1 by definition.
        m["workload.loadgen_cpu_share"] = share(
            plain["own_cpu"], plain["own_cpu"] + sum(plain["server_cpu"])
        )
    if workload.backend == "tcp":
        m["net.server_cpu_us_per_txn"] = plain["server_cpu"][0] / commits * 1e6
        m["net.server_spawn_s"] = plain["spawn_s"]
    if workload.backend == "cluster":
        m.update(micro.cluster_inproc())
        router = plain["router"]
        decided = (
            router["fastpath_commits"]
            + router["twopc_commits"]
            + router["twopc_aborts"]
        )
        m["cluster.fastpath_ratio"] = share(router["fastpath_commits"], decided)
        m["cluster.twopc_share"] = share(
            router["twopc_commits"] + router["twopc_aborts"], decided
        )
        shard_cpu = plain["server_cpu"]
        m["cluster.shard_cpu_us_per_txn"] = sum(shard_cpu) / commits * 1e6
        m["cluster.shard_cpu_imbalance"] = share(
            max(shard_cpu), sum(shard_cpu) / len(shard_cpu)
        )
        m["cluster.fleet_spawn_s"] = plain["spawn_s"]

    # The traced pass: self time per layer, per attempted transaction.
    traces = traced["traces"]
    own = tracing.self_times(traces)
    seconds_by_kind, counts = own["seconds"], own["count"]
    txns = counts["txn"]
    us = 1e6 / txns
    wall_us = traced["client_seconds"] * us
    loadgen_us = (traced["client_seconds"] - seconds_by_kind["txn_span"]) * us
    program_us = seconds_by_kind["txn"] * us
    statement_us = seconds_by_kind["stmt"] * us
    verb_us = seconds_by_kind["verb"] * us
    commit_us = seconds_by_kind.get("commit", 0.0) * us
    m["trace.wall_us_per_txn"] = wall_us
    m["trace.overhead_pct"] = (plain["tps"] - traced["tps"]) / plain["tps"] * 100
    m["workload.loadgen_self_us_per_txn"] = loadgen_us
    m["smallbank.program_self_us_per_txn"] = program_us
    m["sqlmini.execute_self_us_per_txn"] = statement_us
    m["sqlmini.stmts_per_txn"] = counts["stmt"] / txns
    if workload.backend == "local":
        m["engine.verb_us_per_txn"] = verb_us - commit_us
        m["engine.commit_us_per_txn"] = commit_us
    else:
        m[f"{'net' if workload.backend == 'tcp' else 'cluster'}"
          ".verb_wait_us_per_txn"] = verb_us
    # The four self times add up to the traced wall time by construction
    # (every span hangs under a ``txn`` span, and the load generator's
    # share is the remainder), so that sum checks nothing.  What can go
    # wrong is a call that no proxy saw: one ``txn`` span per program
    # run the load generator counted.
    if txns != traced["program_runs"]:
        violations.append(
            f"trace: {txns} txn spans for {traced['program_runs']} program runs"
        )
    wl.OUT_DIR.mkdir(exist_ok=True)
    tracing.dump_jsonl(
        traces, wl.OUT_DIR / f"trace-{workload.name}.jsonl", TRACE_FILE_TXNS
    )
    log(
        f"  per program run (traced, {txns} runs): wall {wall_us:.1f} us = "
        f"workload {loadgen_us:.1f} + smallbank {program_us:.1f} + "
        f"sqlmini {statement_us:.1f} + session verbs {verb_us:.1f}"
    )
    return {
        "metrics": m,
        "attempted": attempted + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "violations": violations,
    }


def per_layer_sim(seed: int, seconds: float) -> dict:
    scale = sim_scale(seconds)
    cycle = wl.sim_cycle(seed, scale)
    m = as_measured(cycle)
    m.update(micro.workload_layer("uniform"))
    m.update(micro.smallbank_layer())
    m.update(micro.sqlmini_layer())
    m.update(micro.engine_layer())
    m.update(micro.sim_layer())
    for strategy, point in cycle["points"].items():
        m[f"sim.wall_s.{strategy}"] = point["wall"]
        m[f"sim.commits.{strategy}"] = point["commits"]
        m[f"sim.aborts.{strategy}"] = point["aborts"]
    return {
        "metrics": m,
        "attempted": cycle["attempted"],
        "failed": 0,
        "violations": check_sim_outcomes([cycle], seed, scale),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """The command ``BENCHMARK.json`` declares; returns the exit code."""
    workload = wl.WORKLOADS[name]
    nproc = len(host.cpus())
    # One CPU for the load generator and its servers: the speed probe
    # speaks only for the CPU it runs on (see calibrate.py and "CPUs" in
    # README.md), and the simulator's thread hand-offs take 1.1 s or
    # 3.7 s for the same point depending on where unpinned threads land.
    cpu = host.pin_to_one_cpu()
    log(
        f"{name}: nproc {nproc} (pinned to cpu {cpu}), clients "
        f"{workload.clients}, server processes {workload.servers}, seed "
        f"{seed}, {seconds:g} s, {'per-layer' if trace else 'end-to-end'}"
    )
    if workload.backend == "sim":
        result = (per_layer_sim if trace else end_to_end_sim)(seed, seconds)
    else:
        result = (per_layer_threaded if trace else end_to_end_threaded)(
            workload, seed, seconds
        )
    verify = wl.verify_round(workload, seed)
    violations = result["violations"] + verify["violations"]
    log(
        f"  verify: {verify['certified']} {wl.VERIFY_STRATEGY} transactions, "
        f"merged MVSG {'acyclic' if not verify['violations'] else 'NOT OK'}"
    )

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    measured = result["metrics"]
    if trace:
        measured["analysis.certify_us_per_txn"] = verify["certify_us_per_txn"]
        if workload.servers:
            bound = measured["workload.loadgen_cpu_share"] > LOADGEN_BOUND
            log(f"  loadgen_bound: {'yes' if bound else 'no'}")
    else:
        log("wall " + json.dumps(result["wall"]))
    unknown = set(measured) - {metric["name"] for metric in declared}
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    # A per-layer metric the workload cannot observe (the layer is
    # bypassed, or lives in another process) reads 0 — see README.md.
    metrics = {
        metric["name"]: {
            "value": measured.get(metric["name"], 0),
            "unit": metric["unit"],
        }
        for metric in declared
    }
    for name_, metric in metrics.items():
        log(f"  {name_:42s} {metric['value']:>14.4f} {metric['unit']}")
    for violation in violations:
        print(f"VIOLATION {violation}", file=sys.stderr, flush=True)
    log(
        json.dumps(
            {
                "correct": not violations,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 1 if violations else 0


# ----------------------------------------------------------------------
# Every workload, interleaved, with provenance
# ----------------------------------------------------------------------
def summary(values: list) -> dict:
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stdout.write(out.stdout)
        raise SystemExit(f"{name} (seed {seed}, trace {trace}) failed")
    wall = [line[5:] for line in lines if line.startswith("wall {")]
    return {
        "result": json.loads(lines[-1]),
        "wall": json.loads(wall[0]) if wall else {},
        "text": lines[:-1],
    }


def run_suite(seed: int, seconds: float, runs: int, out_path: Path) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    record = {
        "host": host.host_block(ROOT),
        "seed": seed,
        "seconds": seconds,
        "runs": runs,
        "workloads": {
            name: {"end_to_end": {}, "wall": {}, "per_layer": {}, "labels": []}
            for name in names
        },
    }
    samples = {name: [] for name in names}
    for index in range(runs):
        # Interleaved, start order rotated: drift on the host hits every
        # workload alike instead of whichever ran last.
        for name in names[index % len(names):] + names[: index % len(names)]:
            child = run_child(name, seed + index, seconds, 0)
            samples[name].append(child)
            log(f"run {index} {child['text'][0]}")
    for name in names:
        child = run_child(name, seed, seconds, 1)
        entry = record["workloads"][name]
        entry["per_layer"] = child["result"]["metrics"]
        entry["labels"] = [
            line.strip() for line in child["text"]
            if "loadgen_bound" in line or line.startswith(name)
        ]
        results = [sample["result"] for sample in samples[name]]
        entry["attempted"] = sum(r["attempted"] for r in results)
        entry["failed"] = sum(r["failed"] for r in results)
        for metric in SPEC["end_to_end"]:
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"],
                **summary(
                    [r["metrics"][metric["name"]]["value"] for r in results]
                ),
            }
        # What the same runs read on the wall clock, and their speed
        # factors: the reference values above can be audited from these.
        for key in samples[name][0]["wall"]:
            entry["wall"][key] = summary(
                [sample["wall"][key] for sample in samples[name]]
            )
    record["host"]["loadavg_1m_after"] = host.host_block(ROOT)["loadavg_1m"]

    for name in names:
        entry = record["workloads"][name]
        log(f"\n== {name} ({'; '.join(entry['labels'])})")
        for metric, row in entry["end_to_end"].items():
            log(
                f"  {metric:42s} {row['median']:>14.4f} {row['unit']:<6s} "
                f"[q1 {row['q1']:.4f}, q3 {row['q3']:.4f}, n={row['n']}]"
            )
        for key, row in entry["wall"].items():
            log(
                f"  wall {key:37s} {row['median']:>14.4f}        "
                f"[q1 {row['q1']:.4f}, q3 {row['q3']:.4f}, n={row['n']}]"
            )
        for metric, row in entry["per_layer"].items():
            log(f"  {metric:42s} {row['value']:>14.4f} {row['unit']}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    log(f"\nwrote {out_path}")
    return 0


def compare(path_a: Path, path_b: Path) -> int:
    """Apply the bounds of ``BENCHMARK.json`` to B against A, per metric
    and workload: ``regressed``, ``ok``, or ``unresolved`` when either
    side's run-to-run spread is wider than the bound."""
    record_a = json.loads(path_a.read_text())
    record_b = json.loads(path_b.read_text())
    for key in ("seed", "seconds", "runs"):
        if record_a[key] != record_b[key]:
            log(
                f"not comparable: {key} is {record_a[key]} in {path_a} "
                f"and {record_b[key]} in {path_b}"
            )
            return 2
    a, b = record_a["workloads"], record_b["workloads"]
    regressed = 0
    for name in a:
        for metric in SPEC["end_to_end"]:
            row_a = a[name]["end_to_end"][metric["name"]]
            row_b = b[name]["end_to_end"][metric["name"]]
            base = row_a["median"]
            worse = (row_b["median"] - base) / base
            if metric["better"] == "higher":
                worse = -worse
            spread = max(
                (row["q3"] - row["q1"]) / row["median"] for row in (row_a, row_b)
            )
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            log(
                f"{verdict:10s} {name:20s} {metric['name']:16s} "
                f"A {base:.4f} B {row_b['median']:.4f} {metric['unit']} "
                f"(worse by {worse:+.1%}, bound {metric['bound']:.0%}, "
                f"spread {spread:.1%})"
            )
    return 1 if regressed else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="every workload once at a tenth of the size",
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.smoke:
        return run_suite(args.seed, 1.0, 1, args.out or wl.OUT_DIR / "smoke.json")
    return run_suite(
        args.seed, args.seconds, RUNS,
        args.out or wl.OUT_DIR / f"e2e-seed{args.seed}.json",
    )


if __name__ == "__main__":
    raise SystemExit(main())
