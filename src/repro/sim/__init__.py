"""Deterministic discrete-event simulation of the paper's platforms.

Reproduce one data point::

    from repro.sim import SimulationConfig, run_replicated

    result = run_replicated(SimulationConfig(strategy="base-si", mpl=20))
    print(result.describe())
"""

from repro import _lazy_exports

#: Re-exports, resolved on first use (PEP 562): ``repro.sim.core``, which
#: the interleaving explorer runs on, does not pay for the runner's
#: workload, SmallBank and observability imports.
_EXPORTS = {
    **dict.fromkeys(("SimWaiter", "SimulatedClient"), "repro.sim.client"),
    **dict.fromkeys(
        ("SimDeadlock", "SimEvent", "SimStopped", "Simulator"), "repro.sim.core"
    ),
    **dict.fromkeys(
        ("PLATFORMS", "PlatformModel", "commercial_platform", "get_platform",
         "postgres_platform"),
        "repro.sim.platform",
    ),
    **dict.fromkeys(("GroupCommitLog", "Resource"), "repro.sim.resources"),
    **dict.fromkeys(
        ("DEFAULT_CUSTOMERS", "DEFAULT_HOTSPOT", "PAPER_CUSTOMERS",
         "PAPER_HOTSPOT", "SimulationConfig", "run_once", "run_replicated"),
        "repro.sim.runner",
    ),
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
