"""``repro.cluster`` — sharded deployment with cross-shard 2PC (DESIGN.md §12).

SmallBank hash-partitioned by customer across N independent
:class:`~repro.net.DatabaseServer` shards, fronted by a shard-aware
router that the facade exposes as ``repro.connect("cluster://...")``.
Cross-shard transactions commit with presumed-abort two-phase commit;
single-shard transactions (the overwhelming majority under customer
partitioning) skip the prepare round entirely.

Per-shard execution traces merge into one global serialization graph
(:func:`repro.analysis.merge_shard_histories`), so the paper's
certification story extends cluster-wide: plain SI across shards
exhibits write-skew no individual shard can see, and the promotion /
materialization strategies restore acyclicity of the *merged* graph.

``python -m repro.cluster --shards 2`` stands up a local cluster and
prints its ``cluster://`` URL.
"""

from repro import _lazy_exports

#: Re-exports, resolved on first use (PEP 562): the router, which every
#: ``cluster://`` connection imports, does not pay for the chaos harness
#: and the threaded driver behind it.
_EXPORTS = {
    **dict.fromkeys(("ChaosConfig", "ChaosResult", "run_chaos"), "repro.cluster.chaos"),
    **dict.fromkeys(("DecisionLog", "TwoPhaseCoordinator"), "repro.cluster.coordinator"),
    **dict.fromkeys(("Cluster", "ShardFleet", "ShardProcess"), "repro.cluster.fleet"),
    "TimestampOracle": "repro.cluster.oracle",
    **dict.fromkeys(
        ("PARTITION_COLUMNS", "HashPartitioner", "build_shard_database"),
        "repro.cluster.partition",
    ),
    **dict.fromkeys(
        ("ClusterConnection", "ClusterSession", "ShardHealth"), "repro.cluster.router"
    ),
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
