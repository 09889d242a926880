"""Metrics registry: counters, gauges and fixed-bucket latency histograms.

The registry is the quantitative half of the observability layer
(DESIGN.md §10).  It is deliberately small and dependency-free:

* **Counter** — a monotonically increasing float (``inc``);
* **Gauge** — a point-in-time value (``set`` / ``inc`` / ``dec``);
* **Histogram** — fixed upper-bound buckets (Prometheus-style cumulative
  exposition) with an exact ``sum``/``count`` and interpolated quantiles
  (:meth:`Histogram.quantile`, plus ``p50``/``p95``/``p99`` shortcuts).

Instruments are identified by ``(name, labels)`` and created lazily by the
get-or-create accessors (:meth:`MetricsRegistry.counter` etc.); asking for
an existing name with a different instrument kind is an error.  Every
instrument is thread-safe — the threaded driver's workers all write into
one shared registry.

Two expositions are provided: :meth:`MetricsRegistry.to_json` (nested
dict, what ``--metrics-out`` and ``BENCH_engine.json`` store) and
:meth:`MetricsRegistry.to_prometheus` (the text format scraped by a
Prometheus server, with ``_bucket``/``_sum``/``_count`` series per
histogram).

Quantiles from fixed buckets are estimates: the value is linearly
interpolated inside the bucket that contains the target rank, which is the
same estimate ``histogram_quantile`` computes server-side in PromQL.
Buckets therefore should bracket the latencies of interest —
:data:`LATENCY_BUCKETS` spans 50 µs to 10 s logarithmically, and
:data:`SIZE_BUCKETS` covers small integer sizes (WAL flush batches,
attempts).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Optional

#: Log-spaced latency buckets (seconds), 50 µs .. 10 s.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Small-integer size buckets (batch sizes, attempt counts).
SIZE_BUCKETS: tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64)

Labels = tuple[tuple[str, str], ...]
"""Canonical (sorted) label form used as part of an instrument's key."""


def _canon_labels(labels: "Mapping[str, object] | None") -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(labels: Labels, extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


class _Instrument:
    """Base: a named, optionally labelled, thread-safe instrument."""

    kind = "untyped"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Instrument):
    """Point-in-time value."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Instrument):
    """Fixed-bucket histogram with exact sum/count and estimated quantiles.

    ``buckets`` are ascending upper bounds; one implicit ``+Inf`` bucket is
    appended, so every observation lands somewhere.  Per-bucket counts are
    stored non-cumulatively and cumulated at exposition time.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: "Iterable[float] | None" = None,
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(buckets) if buckets is not None else LATENCY_BUCKETS
        if not bounds or list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly ascending and non-empty")
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")  # observed range: a quantile stays inside it
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> "tuple[tuple[float, int], ...]":
        """Cumulative (upper_bound, count) pairs, ending with +Inf."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        out: list[tuple[float, int]] = []
        for bound, count in zip(self.bounds + (float("inf"),), counts):
            total += count
            out.append((bound, total))
        return tuple(out)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``) by linear
        interpolation inside the bucket holding the target rank, clamped
        into the observed ``[min, max]`` (twenty observations of 1.0 in
        the ``(0, 1]`` bucket give 1.0, not a value below all of them).

        Observations beyond the last finite bound are reported as that
        bound (the estimate cannot exceed the instrumented range); an
        empty histogram reports 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            low, high = self._min, self._max
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for idx, count in enumerate(counts):
            if count == 0:
                continue
            lower = self.bounds[idx - 1] if idx > 0 else 0.0
            if idx >= len(self.bounds):  # +Inf bucket: clamp to last bound
                return self.bounds[-1]
            upper = self.bounds[idx]
            if cumulative + count >= rank:
                fraction = (rank - cumulative) / count
                estimate = lower + (upper - lower) * min(1.0, max(0.0, fraction))
                return min(high, max(low, estimate))
            cumulative += count
        return self.bounds[-1]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


class MetricsRegistry:
    """Get-or-create home for every instrument of one run.

    One registry per measured run (the drivers create or receive one);
    merging across runs is the caller's concern — exposition is cheap, so
    benchmarks export one registry per configuration instead.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, Labels], _Instrument] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _get_or_create(
        self,
        cls: type,
        name: str,
        labels: "Mapping[str, object] | None",
        help: str,
        **kwargs,
    ) -> _Instrument:
        key = (name, _canon_labels(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if existing.kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            if self._kinds.setdefault(name, cls.kind) != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {self._kinds[name]}"
                )
            instrument = cls(name, key[1], **kwargs)
            self._instruments[key] = instrument
            if help and name not in self._help:
                self._help[name] = help
            return instrument

    def counter(
        self, name: str, labels: "Mapping[str, object] | None" = None, help: str = ""
    ) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(
        self, name: str, labels: "Mapping[str, object] | None" = None, help: str = ""
    ) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        labels: "Mapping[str, object] | None" = None,
        help: str = "",
        buckets: "Iterable[float] | None" = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help, buckets=buckets)

    # ------------------------------------------------------------------
    def get(
        self, name: str, labels: "Mapping[str, object] | None" = None
    ) -> Optional[_Instrument]:
        return self._instruments.get((name, _canon_labels(labels)))

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._kinds))

    def __iter__(self):
        with self._lock:
            items = sorted(self._instruments.items())
        return iter(instrument for _key, instrument in items)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Nested-dict exposition: ``{name: {type, help, series: [...]}}``."""
        out: dict = {}
        for instrument in self:
            entry = out.setdefault(
                instrument.name,
                {
                    "type": instrument.kind,
                    "help": self._help.get(instrument.name, ""),
                    "series": [],
                },
            )
            series: dict = {"labels": dict(instrument.labels)}
            if isinstance(instrument, Histogram):
                series.update(
                    count=instrument.count,
                    sum=round(instrument.sum, 9),
                    mean=round(instrument.mean, 9),
                    p50=round(instrument.p50, 9),
                    p95=round(instrument.p95, 9),
                    p99=round(instrument.p99, 9),
                    buckets={
                        ("+Inf" if bound == float("inf") else repr(bound)): count
                        for bound, count in instrument.bucket_counts()
                    },
                )
            else:
                series["value"] = instrument.value
            entry["series"].append(series)
        return out

    def dump_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_header: set[str] = set()
        for instrument in self:
            if instrument.name not in seen_header:
                seen_header.add(instrument.name)
                help_text = self._help.get(instrument.name, "")
                if help_text:
                    lines.append(f"# HELP {instrument.name} {help_text}")
                lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                for bound, cumulative in instrument.bucket_counts():
                    le = "+Inf" if bound == float("inf") else repr(bound)
                    label_text = _format_labels(instrument.labels, (("le", le),))
                    lines.append(
                        f"{instrument.name}_bucket{label_text} {cumulative}"
                    )
                base = _format_labels(instrument.labels)
                lines.append(f"{instrument.name}_sum{base} {instrument.sum}")
                lines.append(f"{instrument.name}_count{base} {instrument.count}")
            else:
                label_text = _format_labels(instrument.labels)
                lines.append(f"{instrument.name}{label_text} {instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def dump_prometheus(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_prometheus())
