"""Work-count gate on the engine's write → commit path (ISSUE 23).

Python-level function calls (``sys.setprofile`` ``call`` events) do not
depend on the host: what one single-row ``update`` adds to an empty
transaction, and what one ``select`` adds.  Upper bounds only — an
interpreter that inlines more (3.12's comprehensions) counts fewer.  The
shapes and the counter are ``benchmarks/bench_scaling.py``'s, which
records the same numbers in ``BENCH_engine.json``: 51 calls per update
before the flattening, 18 after; 4 per select both times.  Since an empty
``begin`` + ``commit`` stopped calling helpers with nothing to do (17 →
10 calls), the same update reads 20 above it and a select 2.
"""

from __future__ import annotations

from benchmarks.bench_scaling import write_path_calls

UPDATE_BUDGET = 30
SELECT_BUDGET = 5


def test_statements_stay_within_their_call_budgets():
    calls = write_path_calls()
    assert calls["update"] - calls["empty"] <= UPDATE_BUDGET, calls
    assert calls["read"] - calls["empty"] <= SELECT_BUDGET, calls
    # A further row costs no more than the first one did.
    per_row = (calls["update3"] - calls["update"]) / 2
    assert per_row <= calls["update"] - calls["empty"], calls
