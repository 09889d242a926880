"""No-op stand-in for the router's old snapshot/decision latch: the
shards order snapshots themselves now (Clock-SI, DESIGN.md §12)."""

from contextlib import nullcontext


class TimestampOracle:
    # benchmarks/e2e/micro.py still times both windows (ROADMAP item 20).
    def snapshot_window(self) -> nullcontext:
        return nullcontext()

    decision_window = snapshot_window
