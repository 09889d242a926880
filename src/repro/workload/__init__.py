"""Workload definitions and the threaded closed-system driver."""

from repro import _lazy_exports

#: Re-exports, resolved on first use (PEP 562): ``repro.workload.retry``
#: and ``repro.workload.mix`` do not pay for the driver's connection,
#: SmallBank and observability imports.
_EXPORTS = {
    **dict.fromkeys(
        ("ThreadedDriver", "ThreadedDriverConfig", "ThreadedDriverError"),
        "repro.workload.driver",
    ),
    "RetryPolicy": "repro.workload.retry",
    **dict.fromkeys(
        ("BALANCE60_MIX", "MIXES", "UNIFORM_MIX", "HotspotConfig",
         "ParameterGenerator", "TransactionMix", "get_mix"),
        "repro.workload.mix",
    ),
    **dict.fromkeys(
        ("AggregateResult", "RunStats", "mean_and_ci", "t_critical"),
        "repro.workload.stats",
    ),
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
