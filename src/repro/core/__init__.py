"""The paper's core contribution layer: SDG theory and program fixes.

Typical workflow (this is what ``examples/custom_app_audit.py`` shows)::

    from repro.core import ProgramSet, build_sdg, minimal_fix, read, write
    from repro.core.specs import ProgramSpec

    mix = ProgramSet([
        ProgramSpec("Report", ("x",), (read("T", "x", "v"),)),
        ProgramSpec("Change", ("x",), (read("T", "x", "v"), write("U", "x", "v"))),
        ...
    ])
    sdg = build_sdg(mix)
    if not sdg.is_si_serializable():
        plan = minimal_fix(mix, method="promote-upd")
        print(plan.describe())
"""

from repro import _lazy_exports

#: Re-exports, resolved on first use (PEP 562): importing one submodule
#: does not pay for the others.
_EXPORTS = {
    "Prediction": "repro.core.advisor",
    "ProgramProfile": "repro.core.advisor",
    "Recommendation": "repro.core.advisor",
    "predict": "repro.core.advisor",
    "profile_smallbank_strategy": "repro.core.advisor",
    "recommend": "repro.core.advisor",
    "suggest_edges": "repro.core.advisor",
    "ConflictItem": "repro.core.conflicts",
    "EdgeAnalysis": "repro.core.conflicts",
    "Scenario": "repro.core.conflicts",
    "ScenarioConflicts": "repro.core.conflicts",
    "analyze_edge": "repro.core.conflicts",
    "enumerate_scenarios": "repro.core.conflicts",
    "FixPlan": "repro.core.edge_selection",
    "greedy_fix": "repro.core.edge_selection",
    "minimal_fix": "repro.core.edge_selection",
    "CONFLICT_TABLE": "repro.core.modify",
    "CONFLICT_VALUE_COLUMN": "repro.core.modify",
    "Modification": "repro.core.modify",
    "materialize_all": "repro.core.modify",
    "materialize_edge": "repro.core.modify",
    "promote_all": "repro.core.modify",
    "promote_edge": "repro.core.modify",
    "tables_updated_by": "repro.core.modify",
    "DangerousStructure": "repro.core.sdg",
    "StaticDependencyGraph": "repro.core.sdg",
    "build_sdg": "repro.core.sdg",
    "Access": "repro.core.specs",
    "AccessKind": "repro.core.specs",
    "ProgramSet": "repro.core.specs",
    "ProgramSpec": "repro.core.specs",
    "cc_write": "repro.core.specs",
    "read": "repro.core.specs",
    "read_const": "repro.core.specs",
    "write": "repro.core.specs",
    "write_const": "repro.core.specs",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
