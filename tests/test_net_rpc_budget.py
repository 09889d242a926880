"""Work-count gate on one round trip (ISSUE 25).

Python-level function calls (``sys.setprofile`` ``call`` events) do not
depend on the host: what ``session()`` + PING + ``close()`` costs on a
pooled ``tcp://`` wire, on the client thread and on the server's loop
thread (its wake-up for the PING included).  Upper bounds only.  The
counter is ``benchmarks/bench_net.py``'s, which records the same numbers
in ``BENCH_net.json``: 30 and 17 calls before one C codec call and one
``recv`` per frame, 14 and 11 after.
"""

from __future__ import annotations

from benchmarks.bench_net import ping_calls

CLIENT_BUDGET = 16
SERVER_BUDGET = 11


def test_a_round_trip_stays_within_its_call_budget():
    calls = ping_calls()
    assert calls["client"] <= CLIENT_BUDGET, calls
    assert calls["server"] <= SERVER_BUDGET, calls
