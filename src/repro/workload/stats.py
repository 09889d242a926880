"""Workload measurement: per-run counters and cross-run aggregation.

Mirrors the paper's protocol: a ramp-up period followed by a measurement
interval; each (simulated or real) client thread "tracks how many
transactions commit, how many abort (and for what reasons), and also the
average response time"; runs are repeated and reported as the average with
a 95 % confidence interval.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

#: Two-sided 95% Student-t critical values by degrees of freedom (fallback
#: when scipy is unavailable).
_T_TABLE = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
            6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228}


def t_critical(dof: int, confidence: float = 0.95) -> float:
    if dof <= 0:
        return float("inf")
    # Imported on first use: scipy costs ~1.5 s and ~78 MB at import, and
    # only cross-run aggregation (never a driver or a server) gets here.
    try:
        from scipy import stats as scipy_stats
    except ImportError:  # pragma: no cover - exercised only without scipy
        return _T_TABLE.get(dof, 1.96)
    return float(scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))


def mean_and_ci(values: Iterable[float], confidence: float = 0.95) -> tuple[float, float]:
    """Sample mean and half-width of the confidence interval."""
    data = list(values)
    if not data:
        return 0.0, 0.0
    mean = sum(data) / len(data)
    if len(data) == 1:
        return mean, 0.0
    variance = sum((x - mean) ** 2 for x in data) / (len(data) - 1)
    half_width = t_critical(len(data) - 1, confidence) * math.sqrt(
        variance / len(data)
    )
    return mean, half_width


#: Abort reasons counted as "serialization-failure style" by
#: :meth:`RunStats.abort_rate` (the paper's Figure 6 metric, extended with
#: the lock-wait timeout introduced by the robustness layer).
CONCURRENCY_ABORT_REASONS = ("serialization", "deadlock", "ssi", "lock-timeout")


@dataclass
class RunStats:
    """Counters for one run's measurement window.

    Beyond the paper's commit/abort/rollback protocol, the retry layer
    records how hard each commit was to achieve: ``retries`` counts
    in-place retries per program, ``attempts_histogram`` buckets commits by
    the number of attempts they needed, and ``giveups`` counts requests
    abandoned after the :class:`~repro.workload.retry.RetryPolicy`
    exhausted its attempts (or hit a non-retryable error).

    The ``record_*`` methods are thread-safe: the threaded driver's client
    threads all write into one shared instance, and Counter increments are
    read-modify-write operations that would lose updates without the lock.
    Read accessors are left unlocked — they are only meaningful after the
    run's threads have joined.
    """

    window_start: float
    window_end: float
    commits: Counter = field(default_factory=Counter)
    aborts: Counter = field(default_factory=Counter)  # (program, reason)
    rollbacks: Counter = field(default_factory=Counter)
    response_time_sum: float = 0.0
    response_time_count: int = 0
    retries: Counter = field(default_factory=Counter)  # program -> retry count
    attempts_histogram: Counter = field(default_factory=Counter)  # attempts -> commits
    giveups: Counter = field(default_factory=Counter)  # program -> abandoned requests
    #: attempts -> abandoned requests that had made that many attempts;
    #: together with ``attempts_histogram`` this makes retry accounting
    #: exactly reconcilable: ``total_retries == accounted_retries``.
    giveup_attempts_histogram: Counter = field(default_factory=Counter)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def in_window(self, at: float) -> bool:
        return self.window_start <= at < self.window_end

    def record_commit(
        self, program: str, response_time: float, at: float, attempts: int = 1
    ) -> None:
        if self.in_window(at):
            with self._lock:
                self.commits[program] += 1
                self.response_time_sum += response_time
                self.response_time_count += 1
                self.attempts_histogram[attempts] += 1

    def record_abort(self, program: str, reason: str, at: float) -> None:
        if self.in_window(at):
            with self._lock:
                self.aborts[(program, reason)] += 1

    def record_rollback(self, program: str, at: float) -> None:
        if self.in_window(at):
            with self._lock:
                self.rollbacks[program] += 1

    def record_retry(self, program: str, at: float) -> None:
        if self.in_window(at):
            with self._lock:
                self.retries[program] += 1

    def record_giveup(self, program: str, at: float, attempts: int = 1) -> None:
        if self.in_window(at):
            with self._lock:
                self.giveups[program] += 1
                self.giveup_attempts_histogram[attempts] += 1

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        return self.window_end - self.window_start

    @property
    def total_commits(self) -> int:
        return sum(self.commits.values())

    @property
    def tps(self) -> float:
        return self.total_commits / self.duration if self.duration > 0 else 0.0

    @property
    def mean_response_time(self) -> float:
        if self.response_time_count == 0:
            return 0.0
        return self.response_time_sum / self.response_time_count

    def abort_count(self, program: Optional[str] = None) -> int:
        return sum(
            count
            for (prog, _reason), count in self.aborts.items()
            if program is None or prog == program
        )

    def abort_rate(self, program: Optional[str] = None) -> float:
        """Serialization-failure style aborts as a fraction of attempts.

        Attempts = commits + aborts of the program (business rollbacks are
        intentional and excluded, matching the paper's Figure 6 metric of
        "aborts due to a serialization failure error").
        """
        aborts = sum(
            count
            for (prog, reason), count in self.aborts.items()
            if (program is None or prog == program)
            and reason in CONCURRENCY_ABORT_REASONS
        )
        commits = (
            self.total_commits if program is None else self.commits[program]
        )
        attempts = commits + aborts
        return aborts / attempts if attempts else 0.0

    def abort_breakdown(self, program: Optional[str] = None) -> dict[str, int]:
        """Abort counts keyed by reason tag (``serialization``, ``deadlock``,
        ``ssi``, ``lock-timeout``, ``fault``, ...)."""
        breakdown: dict[str, int] = {}
        # Copied in one step: a client stuck past its join may still count.
        for (prog, reason), count in list(self.aborts.items()):
            if program is None or prog == program:
                breakdown[reason] = breakdown.get(reason, 0) + count
        return breakdown

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def total_giveups(self) -> int:
        return sum(self.giveups.values())

    def mean_attempts_per_commit(self) -> float:
        """Average number of attempts each committed request needed."""
        commits = sum(self.attempts_histogram.values())
        if commits == 0:
            return 0.0
        total = sum(n * count for n, count in self.attempts_histogram.items())
        return total / commits

    @property
    def accounted_retries(self) -> int:
        """Retries implied by the attempt histograms.

        A request that needed ``n`` attempts performed ``n - 1`` retries,
        whether it eventually committed (``attempts_histogram``) or was
        abandoned (``giveup_attempts_histogram``).  Within one window it
        equals ``total_retries`` (see :func:`~repro.workload.retry.run_request`).
        """
        return sum(
            (attempts - 1) * count
            for histogram in (self.attempts_histogram, self.giveup_attempts_histogram)
            for attempts, count in histogram.items()
        )


@dataclass
class AggregateResult:
    """Mean ± 95 % CI over repeated runs of one configuration.

    Derived statistics are computed once per metric and memoised — the
    figure renderers read ``tps``/``tps_ci`` repeatedly per cell, and each
    used to recompute :func:`mean_and_ci` over every run on every access.
    ``runs`` is treated as final once the first statistic is read.
    """

    runs: list[RunStats]

    def _stat(self, key, values) -> tuple[float, float]:
        cache = self.__dict__.setdefault("_stat_cache", {})
        if key not in cache:
            cache[key] = mean_and_ci(values())
        return cache[key]

    @property
    def tps(self) -> float:
        return self._stat("tps", lambda: [r.tps for r in self.runs])[0]

    @property
    def tps_ci(self) -> float:
        return self._stat("tps", lambda: [r.tps for r in self.runs])[1]

    @property
    def mean_response_time(self) -> float:
        return self._stat(
            "response_time", lambda: [r.mean_response_time for r in self.runs]
        )[0]

    def abort_rate(self, program: Optional[str] = None) -> float:
        return self._stat(
            ("abort_rate", program),
            lambda: [r.abort_rate(program) for r in self.runs],
        )[0]

    def commits_of(self, program: str) -> float:
        return self._stat(
            ("commits", program),
            lambda: [float(r.commits[program]) for r in self.runs],
        )[0]

    def describe(self) -> str:
        return (
            f"{self.tps:8.1f} ±{self.tps_ci:6.1f} TPS  "
            f"(rt {self.mean_response_time * 1000:6.2f} ms, "
            f"abort {self.abort_rate() * 100:5.2f}%)"
        )
