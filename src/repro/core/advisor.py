"""Performance advisor: predict strategy cost and recommend an edge fix.

The paper closes with: "In future work, we intend to develop a performance
model, that can predict the impact of different mechanisms; we especially
hope for a tool that can suggest which vulnerable edges to deal with, for
least impact on performance."  This module is that tool, built on the two
mechanisms the paper's own analysis identifies:

* **CPU demand** per transaction (statements priced by the platform cost
  model, plus the per-writer overhead) bounds the throughput plateau at
  ``1 / cpu_per_txn``;
* the **flush fraction** (share of transactions that must wait for the
  group-commit WAL flush) dominates low-MPL response time, so strategies
  that turn read-only programs into writers pay the Figure 5(b) penalty.

Statement profiles are measured *empirically*: each program variant runs
once against a scratch SmallBank database with a counting statement hook,
so the profile reflects exactly what the executable programs do (identity
writes, Conflict updates, SFU reads and all).

:func:`recommend` enumerates candidate fix plans (each minimal edge set x
each method valid on the platform) and ranks them by predicted plateau
throughput; ties break toward fewer modifications.  The test-suite checks
the advisor's ranking against the simulator's measurements.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.edge_selection import FixPlan, Method, minimal_fix
from repro.core.sdg import StaticDependencyGraph
from repro.core.specs import ProgramSet
from repro.errors import SpecError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.platform import PlatformModel
    from repro.workload.mix import TransactionMix


@dataclass(frozen=True)
class ProgramProfile:
    """Empirical cost profile of one executable program."""

    name: str
    statement_counts: Counter
    writes_data: bool
    uses_sfu: bool

    def cpu_seconds(self, platform: "PlatformModel") -> float:
        cpu = sum(
            platform.statement_cost(kind) * count
            for kind, count in self.statement_counts.items()
        )
        cpu += platform.commit_cpu
        if platform.needs_flush(
            wrote_data=self.writes_data, used_sfu=self.uses_sfu
        ):
            cpu += platform.write_txn_overhead
        return cpu

    def needs_flush(self, platform: "PlatformModel") -> bool:
        return platform.needs_flush(
            wrote_data=self.writes_data, used_sfu=self.uses_sfu
        )


@dataclass(frozen=True)
class Prediction:
    """Predicted performance of one strategy under one platform/mix."""

    strategy_key: str
    cpu_per_txn: float
    flush_fraction: float
    plateau_tps: float
    mpl1_tps: float

    def describe(self) -> str:
        return (
            f"{self.strategy_key:>16}: plateau ~{self.plateau_tps:6.0f} TPS, "
            f"MPL-1 ~{self.mpl1_tps:5.0f} TPS, "
            f"flush fraction {self.flush_fraction * 100:3.0f}%"
        )


def profile_smallbank_strategy(strategy_key: str) -> dict[str, ProgramProfile]:
    """Measure each SmallBank program's statement profile for a strategy.

    Runs every program once (fixed parameters) on a tiny scratch database
    with a counting statement hook.
    """
    from repro.engine.session import Session
    from repro.smallbank.schema import PopulationConfig, build_database
    from repro.smallbank.schema import customer_name
    from repro.smallbank.strategies import get_strategy

    strategy = get_strategy(strategy_key)
    transactions = strategy.transactions()
    db = build_database(population=PopulationConfig(customers=4))
    args = {
        "Balance": {"N": customer_name(1)},
        "DepositChecking": {"N": customer_name(1), "V": 1.0},
        "TransactSaving": {"N": customer_name(1), "V": 1.0},
        "Amalgamate": {"N1": customer_name(1), "N2": customer_name(2)},
        "WriteCheck": {"N": customer_name(1), "V": 1.0},
    }
    profiles: dict[str, ProgramProfile] = {}
    for program, parameters in args.items():
        counts: Counter = Counter()
        session = Session(
            db, statement_hook=lambda kind, txn: counts.update([kind])
        )
        transactions.run(session, program, parameters)
        txn = session.txn
        profiles[program] = ProgramProfile(
            name=program,
            statement_counts=counts,
            writes_data=bool(txn.writes),
            uses_sfu=bool(txn.sfu_rows or txn.cc_writes),
        )
    return profiles


def predict(
    strategy_key: str,
    platform: "PlatformModel",
    mix: "TransactionMix",
) -> Prediction:
    """Predict plateau and MPL-1 throughput of one SmallBank strategy."""
    profiles = profile_smallbank_strategy(strategy_key)
    total_weight = sum(mix.weights.values())
    cpu = 0.0
    flush_fraction = 0.0
    for program, weight in mix.weights.items():
        share = weight / total_weight
        profile = profiles[program]
        cpu += share * profile.cpu_seconds(platform)
        if profile.needs_flush(platform):
            flush_fraction += share
    plateau = 1.0 / cpu if cpu > 0 else float("inf")
    # At MPL 1 a flushing commit waits the gather window plus the flush.
    flush_wait = platform.wal_commit_delay + platform.wal_flush_time
    mpl1 = 1.0 / (platform.network_rtt + cpu + flush_fraction * flush_wait)
    return Prediction(
        strategy_key=strategy_key,
        cpu_per_txn=cpu,
        flush_fraction=flush_fraction,
        plateau_tps=plateau,
        mpl1_tps=mpl1,
    )


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict for one platform/mix."""

    best: Prediction
    ranked: tuple[Prediction, ...]

    def describe(self) -> str:
        lines = [f"recommended strategy: {self.best.strategy_key}"]
        lines.extend("  " + p.describe() for p in self.ranked)
        return "\n".join(lines)


#: SmallBank fixing strategies the advisor considers, per platform.
_CANDIDATES = {
    "postgres": (
        "materialize-wt",
        "promote-wt-upd",
        "materialize-bw",
        "promote-bw-upd",
        "materialize-all",
        "promote-all",
    ),
    "commercial": (
        "materialize-wt",
        "promote-wt-upd",
        "promote-wt-sfu",
        "materialize-bw",
        "promote-bw-upd",
        "promote-bw-sfu",
    ),
}


def recommend(
    platform: "PlatformModel",
    mix: "TransactionMix",
    *,
    candidates: Optional[tuple[str, ...]] = None,
) -> Recommendation:
    """Rank the SmallBank fixing strategies for a platform and mix.

    Only strategies that actually guarantee serializability on the given
    platform are considered (lock-only SFU promotions are excluded on
    PostgreSQL automatically).
    """
    from repro.smallbank.strategies import get_strategy

    keys = candidates or _CANDIDATES.get(
        platform.name, _CANDIDATES["postgres"]
    )
    sfu_is_write = platform.engine_config.sfu.value == "cc-write"
    valid = []
    for key in keys:
        strategy = get_strategy(key)
        serializable = (
            strategy.serializable_on_commercial
            if sfu_is_write
            else strategy.serializable_on_postgres
        )
        if serializable:
            valid.append(key)
    if not valid:
        raise SpecError("no candidate strategy is valid on this platform")
    predictions = sorted(
        (predict(key, platform, mix) for key in valid),
        key=lambda p: (-p.plateau_tps, p.flush_fraction),
    )
    return Recommendation(best=predictions[0], ranked=tuple(predictions))


def suggest_edges(
    programs: ProgramSet,
    *,
    method: Method = "promote-upd",
    sfu_is_write: bool = True,
) -> FixPlan:
    """Generic (non-SmallBank) edge suggestion: the minimal fix that
    avoids touching read-only programs when possible (Guideline 2).

    Tries minimal fixes that leave every read-only program untouched
    first; falls back to the unconstrained minimum.
    """
    sdg = StaticDependencyGraph(programs, sfu_is_write=sfu_is_write)
    if sdg.is_si_serializable():
        return FixPlan(method, (), programs, ())
    plan = minimal_fix(programs, method, sfu_is_write=sfu_is_write)
    read_only = {spec.name for spec in programs if spec.is_read_only}
    if not any(m.program in read_only for m in plan.modifications):
        return plan
    # Search for an equally small plan avoiding read-only programs by
    # retrying with the offending edges' alternatives: brute force over
    # larger budgets, filtering by the guideline.
    from itertools import combinations

    from repro.core.edge_selection import _candidate_edges, _try_subset

    candidates = [
        edge
        for edge in _candidate_edges(sdg)
        if edge[0] not in read_only and edge[1] not in read_only
    ]
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            attempt = _try_subset(
                programs, subset, method, sfu_is_write=sfu_is_write
            )
            if attempt is not None:
                return attempt
    return plan  # no guideline-respecting plan exists; minimal it is
