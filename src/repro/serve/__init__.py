"""repro.serve — sharded, multi-tenant key-value serving over the trees.

The serving layer turns the repository's single-client tree experiments
into a small cluster simulation: a :class:`~repro.serve.shardmap.ShardMap`
routes keys to shards, each shard runs replicated trees on their own
storage stacks (:mod:`repro.serve.shard`), open-loop tenants offer
Poisson/Zipf traffic (:mod:`repro.serve.tenants`), QoS mechanisms guard
the queues (:mod:`repro.serve.qos`), and the discrete-event
:class:`~repro.serve.engine.RequestEngine` ties it together with exact,
seeded determinism.
"""

from repro.serve.engine import RequestEngine, ServeResult, TenantStats
from repro.serve.qos import AdmissionController, TokenBucket, WeightedFairQueue
from repro.serve.shard import Replica, Shard, ShardConfig, build_shards
from repro.serve.shardmap import SHARD_POLICIES, ShardMap
from repro.serve.tenants import (
    TenantSpec,
    check_unique_names,
    derive_seed,
    tenant_arrivals,
    tenant_keys,
)

__all__ = [
    "AdmissionController",
    "Replica",
    "RequestEngine",
    "SHARD_POLICIES",
    "ServeResult",
    "Shard",
    "ShardConfig",
    "ShardMap",
    "TenantSpec",
    "TenantStats",
    "TokenBucket",
    "WeightedFairQueue",
    "build_shards",
    "check_unique_names",
    "derive_seed",
    "tenant_arrivals",
    "tenant_keys",
]
