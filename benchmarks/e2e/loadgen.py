"""Closed-loop SmallBank clients that keep every latency sample.

Same protocol as :class:`repro.workload.driver.ThreadedDriver` — no think
time, one fresh ``connection.session()`` per attempt, per-client
``random.Random(f"{seed}/{client}")`` streams — but owned by the benchmark
so it can keep per-request latencies, a shadow ledger and the exact
attempt counts, none of which ``RunStats`` retains.

Retry: a concurrency abort is retried in place (no backoff) up to
:data:`MAX_ATTEMPTS` times, so a *request* fails only on a give-up or an
unexpected error.  The benchmark contract wants workloads on which no
operation fails; first-committer-wins aborts are part of SI and are
reported as ``engine.fcw_abort_share`` instead.  Latency runs from the
first attempt's ``session()`` to the commit return.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ApplicationRollback, TransactionAborted
from repro.smallbank.programs import (
    DEPOSIT_CHECKING,
    TRANSACT_SAVING,
    WRITE_CHECK,
)
from repro.workload.mix import HotspotConfig, ParameterGenerator, get_mix
from repro.workload.retry import RetryPolicy

CUSTOMERS = 3_600
HOTSPOT = 200
MAX_ATTEMPTS = 10
#: A client that keeps failing unexpectedly has lost its backend; stop it
#: instead of spinning on errors until the deadline.
MAX_ERRORS_PER_CLIENT = 20

RETRY = RetryPolicy(max_attempts=MAX_ATTEMPTS)


@dataclass
class ClientResult:
    """What one client saw between its start and its last request."""

    latencies: list = field(default_factory=list)  # seconds, commits only
    commits: int = 0
    rollbacks: int = 0  # business rollbacks: completed, not failed
    aborts: int = 0  # concurrency aborts (each one retried or given up)
    giveups: int = 0
    errors: list = field(default_factory=list)  # repr of unexpected ones
    ledger: float = 0.0  # net money the committed requests added
    elapsed: float = 0.0

    @property
    def attempted(self) -> int:
        return self.commits + self.rollbacks + self.giveups + len(self.errors)

    @property
    def failed(self) -> int:
        return self.giveups + len(self.errors)


def ledger_delta(program: str, args: dict, result: object) -> float:
    """Money one *committed* request adds to the bank (Amalgamate and
    Balance move or read money but create none)."""
    if program in (DEPOSIT_CHECKING, TRANSACT_SAVING):
        return args["V"]
    if program == WRITE_CHECK:
        # run() returns True when the overdraft penalty was charged.
        return -(args["V"] + (1.0 if result else 0.0))
    return 0.0


class OwnedPairs(ParameterGenerator):
    """Each client amalgamates only the customer pairs it owns (those
    whose ids sum to its index modulo the client count; other draws are
    redrawn), so no two clients ever amalgamate the same pair at once.

    Two concurrent Amalgamates of one pair whose customers live on
    different shards block each other for ever on ``cluster://``: each
    holds a row lock on one shard and waits on the other, no shard sees
    a cycle, and there is neither a global deadlock detector nor a lock
    timeout (three transactions reproduce it).  The contract wants
    workloads on which no operation fails, so the inputs avoid it; with
    two clients no other cross-shard cycle exists.
    """

    def __init__(self, rng: random.Random, index: int, clients: int) -> None:
        super().__init__(HotspotConfig(CUSTOMERS, HOTSPOT), rng)
        self.index = index
        self.clients = clients

    def pick_two_customers(self) -> "tuple[int, int]":
        while True:
            first, second = super().pick_two_customers()
            if (first + second) % self.clients == self.index:
                return first, second


class Client:
    """One closed-loop client (``index`` of ``clients``) with its own
    random stream."""

    def __init__(
        self,
        connection,
        transactions,
        mix_name: str,
        stream: str,
        index: int,
        clients: int,
    ) -> None:
        self.connection = connection
        self.transactions = transactions
        self.rng = random.Random(stream)
        self.mix = get_mix(mix_name)
        self.generator = OwnedPairs(self.rng, index, clients)

    def run(
        self, *, count: float = math.inf, deadline: float = math.inf
    ) -> ClientResult:
        """``count`` requests or until ``deadline`` (a
        ``time.perf_counter`` value), whichever comes first."""
        connection, transactions = self.connection, self.transactions
        mix, generator, rng = self.mix, self.generator, self.rng
        out = ClientResult()
        latencies = out.latencies
        clock = time.perf_counter
        started = clock()
        done = 0
        while done < count and clock() < deadline:
            done += 1
            program = mix.choose(rng)
            args = generator.args_for(program)
            attempts = 0
            begun = clock()
            while True:
                attempts += 1
                session = connection.session()
                try:
                    result = transactions.run(session, program, args)
                    latencies.append(clock() - begun)
                    out.commits += 1
                    out.ledger += ledger_delta(program, args, result)
                    break
                except ApplicationRollback:
                    session.rollback()
                    out.rollbacks += 1
                    break
                except TransactionAborted as exc:
                    session.rollback()
                    out.aborts += 1
                    if not RETRY.should_retry(exc, attempts):
                        out.giveups += 1
                        break
                except Exception as exc:  # noqa: BLE001 - counted and listed
                    out.errors.append(f"{program}: {exc!r}")
                    break
                finally:
                    session.close()
            if len(out.errors) >= MAX_ERRORS_PER_CLIENT:
                break
        out.elapsed = clock() - started
        return out


def run_together(
    clients: "list[Client]",
    *,
    count: float = math.inf,
    seconds: float = math.inf,
) -> "tuple[list[ClientResult], float]":
    """Run every client's loop side by side; returns their results and
    the wall time from the common start to the last finish."""
    results: "list[ClientResult | None]" = [None] * len(clients)
    failures: "list[BaseException]" = []
    barrier = threading.Barrier(len(clients) + 1)

    def body(index: int) -> None:
        barrier.wait()
        try:
            results[index] = clients[index].run(
                count=count, deadline=time.perf_counter() + seconds
            )
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            failures.append(exc)

    threads = [
        threading.Thread(target=body, args=(index,), daemon=True)
        for index in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if failures:
        raise failures[0]
    return results, wall
