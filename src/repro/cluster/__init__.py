"""repro.cluster — a replicated, sharded multi-archiver object service.

Scales the single-node archiver out: objects are placed on a
consistent-hash ring of nodes (:mod:`~repro.cluster.placement`), each
node wraps a full archiver stack with a lifecycle
(:mod:`~repro.cluster.node`), a router fans writes to a quorum and
fails reads over across replicas (:mod:`~repro.cluster.router`), and
membership changes migrate only the ring-diff minimum
(:mod:`~repro.cluster.rebalance`).  See ``docs/CLUSTER.md``.

Heavy submodules are loaded lazily: :mod:`repro.index.sharding`
re-exports the ring from :mod:`~repro.cluster.placement`, and an eager
import of the router here would close a cycle through
``repro.server`` → ``repro.index`` back into this package.
"""

from __future__ import annotations

from repro.cluster.placement import HashRing, Placement, stable_hash

__all__ = [
    "HashRing",
    "Placement",
    "stable_hash",
    "ClusterMetrics",
    "ClusterMetricsSnapshot",
    "ClusterNode",
    "NodeStatus",
    "ClusterRouter",
    "RouterFuture",
    "StoreOutcome",
    "replay_cluster",
    "MigrationStep",
    "RebalanceReport",
    "Rebalancer",
    "plan_migrations",
]

_LAZY = {
    "ClusterMetrics": "repro.cluster.metrics",
    "ClusterMetricsSnapshot": "repro.cluster.metrics",
    "ClusterNode": "repro.cluster.node",
    "NodeStatus": "repro.cluster.node",
    "ClusterRouter": "repro.cluster.router",
    "RouterFuture": "repro.cluster.router",
    "StoreOutcome": "repro.cluster.router",
    "replay_cluster": "repro.cluster.router",
    "MigrationStep": "repro.cluster.rebalance",
    "RebalanceReport": "repro.cluster.rebalance",
    "Rebalancer": "repro.cluster.rebalance",
    "plan_migrations": "repro.cluster.rebalance",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
