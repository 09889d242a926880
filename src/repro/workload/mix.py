"""Transaction mixes and parameter generation (paper Section IV).

The test driver "runs the five possible transactions", mostly with a
uniform random distribution, plus a 60 %-Balance mix for the high
contention experiment.  Parameters follow the paper's skew: "a fixed
portion of the table is a hotspot, and 90 % of all transactions deal with
a customer which is chosen uniformly in the hotspot"; the rest access
uniformly outside it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

from repro.smallbank.programs import (
    AMALGAMATE,
    BALANCE,
    DEPOSIT_CHECKING,
    PROGRAM_NAMES,
    TRANSACT_SAVING,
    WRITE_CHECK,
)
from repro.smallbank.schema import customer_name


@dataclass(frozen=True)
class TransactionMix:
    """Relative weights of the five programs, read once at construction."""

    name: str
    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        unknown = set(self.weights) - set(PROGRAM_NAMES)
        if unknown:
            raise ValueError(f"unknown programs in mix: {sorted(unknown)}")
        if not self.weights or min(self.weights.values()) < 0:
            raise ValueError("mix weights must be non-negative and non-empty")
        # The table ``random.choices(programs, weights=...)`` builds on
        # every call, built once, and refused here as it refuses it there.
        cumulative = list(accumulate(self.weights.values()))
        total = cumulative[-1] + 0.0
        if total <= 0.0:
            raise ValueError("Total of weights must be greater than zero")
        if not math.isfinite(total):
            raise ValueError("Total of weights must be finite")
        table = (tuple(self.weights), cumulative, total, len(cumulative) - 1)
        object.__setattr__(self, "_table", table)

    def choose(self, rng: random.Random) -> str:
        """The program ``rng.choices(programs, weights=...)[0]`` draws, from
        the same one ``rng.random()``: the paper figures and the simulator's
        goldens depend on that stream."""
        programs, cumulative, total, hi = self._table
        return programs[bisect(cumulative, rng.random() * total, 0, hi)]


UNIFORM_MIX = TransactionMix(
    "uniform", {program: 0.2 for program in PROGRAM_NAMES}
)

#: The high-contention experiment's mix: "60% of transactions are Balance".
BALANCE60_MIX = TransactionMix(
    "balance60",
    {
        BALANCE: 0.6,
        DEPOSIT_CHECKING: 0.1,
        TRANSACT_SAVING: 0.1,
        AMALGAMATE: 0.1,
        WRITE_CHECK: 0.1,
    },
)

#: Pure read-only mix (100% Balance): isolates the engine's SI read path,
#: used by the scaling benchmark to measure lock-free read throughput.
READONLY_MIX = TransactionMix("readonly", {BALANCE: 1.0})

#: Balance and Amalgamate only, so the balance sum is invariant under any
#: interleaving of commits and aborts: the chaos storm's ledger check.
CONSERVING_MIX = TransactionMix("conserving", {BALANCE: 0.4, AMALGAMATE: 0.6})

MIXES = {m.name: m for m in (UNIFORM_MIX, BALANCE60_MIX, READONLY_MIX, CONSERVING_MIX)}


def get_mix(name: str) -> TransactionMix:
    try:
        return MIXES[name]
    except KeyError:
        known = ", ".join(sorted(MIXES))
        raise KeyError(f"unknown mix {name!r}; known: {known}") from None


def customer_ids_in_args(args: Mapping[str, object]) -> tuple[int, ...]:
    """The customer ids one program invocation's parameters name.

    Inverts :func:`~repro.smallbank.schema.customer_name` on the
    ``N`` / ``N1`` / ``N2`` parameters, in that order.  The cluster
    tests use this to check shard affinity: the shards a generated
    invocation *can* touch are exactly the shards of these ids.
    """
    ids = []
    for key in ("N", "N1", "N2"):
        value = args.get(key)
        if isinstance(value, str) and value.startswith("cust"):
            ids.append(int(value[4:]))
    return tuple(ids)


@dataclass(frozen=True)
class HotspotConfig:
    """Access-skew parameters."""

    customers: int
    hotspot: int
    hotspot_probability: float = 0.9

    def __post_init__(self) -> None:
        if not 0 < self.hotspot <= self.customers:
            raise ValueError("hotspot must be within 1..customers")
        if not 0.0 <= self.hotspot_probability <= 1.0:
            raise ValueError("hotspot probability must be in [0, 1]")


#: Each amount-taking program's range of ``V``, drawn uniformly.
AMOUNT_RANGES = {
    DEPOSIT_CHECKING: (1.0, 100.0),
    TRANSACT_SAVING: (-50.0, 100.0),
    WRITE_CHECK: (1.0, 50.0),
}


class ParameterGenerator:
    """Random customers (hotspot-skewed) and amounts for each program.

    Amount ranges are chosen so that business-rule rollbacks (overdrawn
    savings, penalties) stay rare against the default population balances,
    as in the paper's workload.
    """

    def __init__(self, config: HotspotConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng

    def pick_customer(self) -> int:
        """A customer id: in the hotspot with ``hotspot_probability``, else
        uniform outside it.  The id is the one ``rng.randint`` would return,
        drawn by the same ``getrandbits`` rejection loop (CPython's
        ``_randbelow_with_getrandbits``) in this one frame: the paper
        figures and the simulator's goldens depend on that stream."""
        cfg, rng = self.config, self.rng
        if cfg.hotspot >= cfg.customers or rng.random() < cfg.hotspot_probability:
            first, span = 1, cfg.hotspot
        else:
            first, span = cfg.hotspot + 1, cfg.customers - cfg.hotspot
        bits = span.bit_length()
        drawn = rng.getrandbits(bits)
        while drawn >= span:
            drawn = rng.getrandbits(bits)
        return first + drawn

    def pick_two_customers(self) -> tuple[int, int]:
        """Two *distinct* customers for Amalgamate.

        The rejection loop needs at least two reachable customers or it
        would spin forever: with ``customers == 1`` every draw returns
        customer 1; a ``hotspot_probability`` of 1.0 sends every draw into
        the hotspot and 0.0 every draw outside it, so that side needs two.
        These configurations are rejected up front.  When the first
        customer is alone on its side of the hotspot and the second draw
        repeats it, the second is drawn uniformly from the other side:
        where the loop would end, without spinning for as long as a
        probability just short of 1.0 (or above 0.0) keeps it there.
        """
        cfg = self.config
        if cfg.customers < 2:
            raise ValueError(
                "pick_two_customers needs at least 2 customers "
                f"(got {cfg.customers}); Amalgamate requires two distinct "
                "accounts"
            )
        if (cfg.hotspot < 2 and cfg.hotspot_probability >= 1.0) or (
            cfg.customers - cfg.hotspot == 1 and cfg.hotspot_probability <= 0.0
        ):
            raise ValueError(
                "pick_two_customers cannot draw two distinct customers: "
                f"hotspot_probability={cfg.hotspot_probability} confines every "
                "draw to one side of the hotspot, which holds one customer"
            )
        first = self.pick_customer()
        second = self.pick_customer()
        if second == first and cfg.hotspot < cfg.customers:
            if first == cfg.hotspot == 1:
                return first, self.rng.randint(2, cfg.customers)
            if first == cfg.customers == cfg.hotspot + 1:
                return first, self.rng.randint(1, cfg.hotspot)
        while second == first:
            second = self.pick_customer()
        return first, second

    def args_for(self, program: str) -> dict[str, object]:
        if program == BALANCE:
            return {"N": customer_name(self.pick_customer())}
        if program == AMALGAMATE:
            first, second = self.pick_two_customers()
            return {"N1": customer_name(first), "N2": customer_name(second)}
        try:
            low, high = AMOUNT_RANGES[program]
        except KeyError:
            raise ValueError(f"unknown program {program!r}") from None
        name = customer_name(self.pick_customer())
        # ``rng.uniform(low, high)``, by its documented formula.
        return {"N": name, "V": round(low + (high - low) * self.rng.random(), 2)}
