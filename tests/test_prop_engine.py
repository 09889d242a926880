"""Property-based tests: engine correctness against a reference model."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_history, record_database
from repro.engine import (
    Column,
    Database,
    EngineConfig,
    Session,
    TableSchema,
    WaitOn,
)
from repro.errors import SerializationFailure

KEYS = (1, 2, 3)


def fresh_db(config: EngineConfig | None = None) -> Database:
    schema = TableSchema(
        "T", (Column("K", "int"), Column("V", "int")), primary_key="K"
    )
    db = Database([schema], config)
    for key in KEYS:
        db.load_row("T", {"K": key, "V": 0})
    return db


# One transaction = a list of (op, key, amount) steps.
steps = st.lists(
    st.tuples(
        st.sampled_from(["read", "add"]),
        st.sampled_from(KEYS),
        st.integers(min_value=-5, max_value=5),
    ),
    min_size=1,
    max_size=5,
)
workloads = st.lists(
    st.tuples(steps, st.booleans()),  # (steps, commit?)
    min_size=1,
    max_size=8,
)


@given(workloads)
@settings(max_examples=150, deadline=None)
def test_sequential_execution_matches_dict_model(workload):
    """Transactions run one at a time behave exactly like a dict."""
    db = fresh_db()
    model = {key: 0 for key in KEYS}
    for txn_steps, commit in workload:
        session = Session(db)
        session.begin()
        shadow = dict(model)
        for op, key, amount in txn_steps:
            if op == "read":
                assert session.select("T", key)["V"] == shadow[key]
            else:
                session.update(
                    "T", key, lambda row, a=amount: {"V": row["V"] + a}
                )
                shadow[key] += amount
        if commit:
            session.commit()
            model = shadow
        else:
            session.rollback()
    check = Session(db)
    check.begin()
    for key in KEYS:
        assert check.select("T", key)["V"] == model[key]


@given(workloads)
@settings(max_examples=100, deadline=None)
def test_sequential_histories_are_serializable(workload):
    db = fresh_db()
    recorder = record_database(db)
    for txn_steps, commit in workload:
        session = Session(db)
        session.begin()
        for op, key, amount in txn_steps:
            if op == "read":
                session.select("T", key)
            else:
                session.update(
                    "T", key, lambda row, a=amount: {"V": row["V"] + a}
                )
        if commit:
            session.commit()
        else:
            session.rollback()
    report = check_history(list(recorder.committed))
    assert report.serializable
    if report.serial_order:
        # Commit order is always an equivalent serial order when
        # transactions ran one at a time.
        assert list(report.serial_order) == sorted(
            report.serial_order,
            key=lambda gid: report.transactions[gid].branches[0][1].commit_ts,
        )


interleavings = st.lists(st.integers(min_value=0, max_value=1), max_size=14)


def run_two_concurrent(db: Database, schedule, steps_a, steps_b):
    """Step two transactions through an arbitrary interleaving; blocked or
    failed transactions roll back.  Returns committed labels."""
    sessions = [Session(db), Session(db)]
    scripts = [list(steps_a) + ["commit"], list(steps_b) + ["commit"]]
    positions = [0, 0]
    alive = [True, True]
    sessions[0].begin("A")
    sessions[1].begin("B")
    order = list(schedule) + [0] * len(scripts[0]) + [1] * len(scripts[1])
    committed: list[str] = []
    for turn in order:
        if not alive[turn] or positions[turn] >= len(scripts[turn]):
            continue
        step = scripts[turn][positions[turn]]
        session = sessions[turn]
        try:
            if step == "commit":
                session.commit()
                committed.append("AB"[turn])
                positions[turn] += 1
            else:
                op, key, amount = step
                if op == "read":
                    session.select("T", key)
                    positions[turn] += 1
                else:
                    current = session.select("T", key)["V"]
                    result = session.db.write(
                        session.transaction,
                        "T",
                        key,
                        {"K": key, "V": current + amount},
                    )
                    if isinstance(result, WaitOn):
                        # Blocked: skip the turn (retried later or never).
                        continue
                    positions[turn] += 1
        except SerializationFailure:
            alive[turn] = False
    for session, is_alive in zip(sessions, alive):
        if is_alive and session.txn is not None and session.txn.is_active:
            session.rollback()
    return committed


@given(interleavings, steps, steps)
@settings(max_examples=150, deadline=None)
def test_no_lost_updates_under_any_interleaving(schedule, steps_a, steps_b):
    """Whatever interleaves, committed increments are all reflected."""
    db = fresh_db()
    recorder = record_database(db)
    run_two_concurrent(db, schedule, steps_a, steps_b)
    # Replay the committed transactions' increments serially.
    expected = {key: 0 for key in KEYS}
    for record in recorder.committed:
        label_steps = steps_a if record.label == "A" else steps_b
        for op, key, amount in label_steps:
            if op == "add":
                expected[key] += amount
    check = Session(db)
    check.begin()
    for key in KEYS:
        assert check.select("T", key)["V"] == expected[key]


@given(interleavings, steps, steps)
@settings(max_examples=100, deadline=None)
def test_ssi_engine_histories_always_serializable(schedule, steps_a, steps_b):
    from repro.errors import SsiAbort

    db = fresh_db(EngineConfig.ssi())
    recorder = record_database(db)
    try:
        run_two_concurrent(db, schedule, steps_a, steps_b)
    except SsiAbort:
        pass
    report = check_history(list(recorder.committed))
    assert report.serializable, report.describe()


@given(interleavings, steps, steps)
@settings(max_examples=100, deadline=None)
def test_fcw_engine_prevents_lost_updates_too(schedule, steps_a, steps_b):
    db = fresh_db(EngineConfig.first_committer_wins())
    recorder = record_database(db)
    run_two_concurrent(db, schedule, steps_a, steps_b)
    expected = {key: 0 for key in KEYS}
    for record in recorder.committed:
        label_steps = steps_a if record.label == "A" else steps_b
        for op, key, amount in label_steps:
            if op == "add":
                expected[key] += amount
    check = Session(db)
    check.begin()
    for key in KEYS:
        assert check.select("T", key)["V"] == expected[key]
