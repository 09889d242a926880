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

from repro.cluster.chaos import ChaosConfig, ChaosResult, run_chaos
from repro.cluster.coordinator import DecisionLog, TwoPhaseCoordinator
from repro.cluster.fleet import Cluster, ShardFleet, ShardProcess
from repro.cluster.oracle import TimestampOracle
from repro.cluster.partition import (
    PARTITION_COLUMNS,
    HashPartitioner,
    build_shard_database,
)
from repro.cluster.router import ClusterConnection, ClusterSession, ShardHealth

__all__ = [
    "ChaosConfig",
    "ChaosResult",
    "Cluster",
    "ClusterConnection",
    "ClusterSession",
    "DecisionLog",
    "HashPartitioner",
    "PARTITION_COLUMNS",
    "ShardFleet",
    "ShardHealth",
    "ShardProcess",
    "TimestampOracle",
    "TwoPhaseCoordinator",
    "build_shard_database",
    "run_chaos",
]
