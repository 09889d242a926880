"""Dynamic serializability analysis: MVSG certification and exploration.

Check any workload after the fact::

    from repro.analysis import SerializabilityChecker

    checker = SerializabilityChecker(db)
    ...run transactions...
    report = checker.report()
    assert report.serializable, report.describe()

Or model-check a small scenario exhaustively::

    from repro.analysis import InterleavingExplorer, ScriptedProgram

    summary = InterleavingExplorer(make_db, [
        ScriptedProgram("WriteCheck", wc_body),
        ScriptedProgram("TransactSaving", ts_body),
    ]).explore()
    assert summary.all_serializable
"""

from repro import _lazy_exports
from repro.analysis.checker import (
    GlobalTransaction,
    SerializabilityChecker,
    SerializabilityReport,
    check_history,
    classify_cycle,
    global_id,
    merge_shard_histories,
    split_label,
)
from repro.analysis.extract import (
    extract_smallbank_specs,
    extract_spec,
    extracted_smallbank_program_set,
    footprint_signature,
    merge_specs,
)
from repro.analysis.history import check_history_text, parse_history
from repro.analysis.mvsg import (
    Cycle,
    DependencyEdge,
    MultiVersionSerializationGraph,
    find_cycle_in,
)
from repro.analysis.recorder import (
    CommittedTransaction,
    ExecutionRecorder,
    committed_from_dict,
    committed_to_dict,
    dump_history_jsonl,
    load_history_jsonl,
    record_database,
    salvage_durable_history,
)

__all__ = [
    "CommittedTransaction",
    "Cycle",
    "DependencyEdge",
    "ExecutionRecorder",
    "ExplorationSummary",
    "GlobalTransaction",
    "InterleavingExplorer",
    "MultiVersionSerializationGraph",
    "ScheduleOutcome",
    "ScriptedProgram",
    "SerializabilityChecker",
    "SerializabilityReport",
    "check_history",
    "check_history_text",
    "classify_cycle",
    "committed_from_dict",
    "committed_to_dict",
    "dump_history_jsonl",
    "extract_smallbank_specs",
    "extract_spec",
    "extracted_smallbank_program_set",
    "find_cycle_in",
    "footprint_signature",
    "global_id",
    "load_history_jsonl",
    "merge_shard_histories",
    "merge_specs",
    "parse_history",
    "record_database",
    "salvage_durable_history",
    "split_label",
]

#: The explorer runs on :mod:`repro.sim.core`, which a server never
#: loads, so its names resolve on first use (PEP 562): a recording server
#: that imports ``repro.analysis.recorder`` does not pay for it.
__getattr__, __dir__ = _lazy_exports(
    globals(),
    dict.fromkeys(
        ["ExplorationSummary", "InterleavingExplorer", "ScheduleOutcome",
         "ScriptedProgram"],
        "repro.analysis.explorer",
    ),
)
