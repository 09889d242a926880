"""Reference seconds: a speed probe for a host whose speed changes.

The reference host is a 2-vCPU VM whose vCPUs the hypervisor moves
between SMT siblings shared with other tenants: the same single-threaded
Python code runs at full speed or up to 1.9x slower, for stretches of
50 ms to a minute (measured: ``local_balance60`` read 9.1k-15.2k tps over
ten consecutive 10 s runs, and CPU time per transaction moved with it).
Part of that drift is slower than a run, so no statistic inside a run
removes it.

So every measured window (0.4 s of a round, a simulator point) is
bracketed by two *probes*: a fixed ~2 ms pure-Python kernel (dict, list,
attribute and string work, the same kind of work the interpreter does
for the code under test, but sharing no code with it).  The window's
*speed factor* is ``(REFERENCE_S / probe time) ** SENSITIVITY``, a
round's factor is the wall-weighted mean over its windows, and the four
gated time metrics are reported in **reference seconds** = wall seconds
x factor: what the round would have taken had the host run the kernel at
its undisturbed reference speed.  Their names and units say so
(``tps_ref`` in ``1/ref_s``, ``p50_ref_ms`` in ``ref_ms``, ...); every
other number the benchmark prints is as measured, and each run also
prints its wall values and its factor so the reference values can be
audited.

The probe speaks for the CPU it runs on, which is the load generator's.
"""

from __future__ import annotations

import gc
import random
import time

#: Kernel time on the undisturbed reference host (2.1 GHz Xeon VM,
#: CPython 3.11).  Reference values compare commits on one kind of host;
#: across hosts compare the wall values printed beside them.
REFERENCE_S = 0.00200
#: How strongly the measured code follows the probe: when the probe slows
#: by a factor ``s`` the workloads slow by about ``s ** SENSITIVITY``
#: (the tight, cache-resident kernel suffers more from a busy SMT sibling
#: than code that also waits on memory and the kernel).  Fitted once on
#: recorded slice series of every workload as the exponent leaving the
#: least spread between 5 s blocks: the best value per series lay between
#: 0.5 and 1.0 and moved with the kind of disturbance more than with the
#: workload, so one constant serves all (README.md has the table).
SENSITIVITY = 0.7


class _Row:
    __slots__ = ("key", "versions")

    def __init__(self, key: int) -> None:
        self.key = key
        self.versions = [(0, {"Balance": 100.0})]

    def read(self, ts: int):
        for commit_ts, value in reversed(self.versions):
            if commit_ts <= ts:
                return value
        return None


class _Store:
    def __init__(self, rows: int) -> None:
        self.rows = {key: _Row(key) for key in range(rows)}
        self.clock = 0
        self.log: list = []

    def begin(self) -> dict:
        return {"ts": self.clock, "writes": {}}

    def get(self, txn: dict, key: int):
        row = self.rows.get(key)
        if row is None:
            raise KeyError(key)
        return txn["writes"].get(key) or row.read(txn["ts"])

    def commit(self, txn: dict) -> None:
        self.clock += 1
        for key, value in txn["writes"].items():
            self.rows[key].versions.append((self.clock, value))
        self.log.append(
            "commit %d %s" % (self.clock, ",".join(map(str, sorted(txn["writes"]))))
        )


def kernel(transactions: int = 600) -> None:
    """Fixed work: the same every call, whatever ran before it.  Integer
    keys, so string-hash randomisation does not change it per process."""
    store = _Store(200)
    rng = random.Random(1)
    for _ in range(transactions):
        txn = store.begin()
        key = rng.randint(0, 199)
        value = store.get(txn, key)
        try:
            other = store.get(txn, rng.randint(0, 210))
        except KeyError:
            other = {"Balance": 0.0}
        if rng.random() < 0.4:
            txn["writes"][key] = {
                "Balance": round(value["Balance"] + other["Balance"] * 0.01, 2),
                "Name": f"cust{key:07d}",
            }
        store.commit(txn)


def probe() -> float:
    """Seconds one kernel run takes right now: the median of three, so
    that one preempted run does not speak for a whole window.  The
    collector is held off so the size of the caller's heap does not
    enter the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        readings = []
        for _ in range(3):
            started = time.perf_counter()
            kernel()
            readings.append(time.perf_counter() - started)
        return sorted(readings)[1]
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Reference seconds per wall second for a window bracketed by the
    two probe readings."""
    return (REFERENCE_S / ((before + after) / 2.0)) ** SENSITIVITY
