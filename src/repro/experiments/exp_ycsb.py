"""E15 (extension) — YCSB-style workload mixes across the dictionary zoo.

The paper's Section 5 closes with the OLTP/OLAP dichotomy and the claim
that "the distinction between OLAP and OLTP databases is not driven by
user need but by the inability of B-trees to keep up with high insertion
rates."  This experiment puts the claim on one table using YCSB-flavoured
mixes (scaled):

========  ==========================================  =================
workload  operation mix                               YCSB analogue
========  ==========================================  =================
A         50% point reads / 50% updates               update heavy
B         95% point reads / 5% updates                read mostly
C         100% point reads                            read only
E         95% short range scans / 5% inserts          scan heavy
F         100% read-modify-write                      RMW
========  ==========================================  =================

Structures: a point-query-tuned B-tree, the Theorem 9 Bε-tree, and the
LSM-tree, all on the same simulated HDD and cache.  Workload F is where
the Bε-tree's *upsert* messages shine: the B-tree and LSM must read before
writing, the Bε-tree just enqueues a delta (paper Table 3 lists upserts
alongside inserts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import report
from repro.experiments.common import build_load
from repro.experiments.devices import default_hdd
from repro.trees import build
from repro.workloads.generators import (
    mixed_stream,
    OpKind,
)

WORKLOADS: dict[str, dict] = {
    "A (50r/50u)": dict(insert_frac=0.5),
    "B (95r/5u)": dict(insert_frac=0.05),
    "C (100r)": dict(insert_frac=0.0),
    "E (95scan/5u)": dict(insert_frac=0.05, range_frac=0.95, range_span=50),
    "F (100 rmw)": dict(rmw=True),
}

#: Structure -> how it is built: a point-query-tuned B-tree, the Bε-tree
#: at its 1 MiB / F=16 defaults, and an LSM that compacts L0 early.
STRUCTURES: dict[str, dict] = {
    "btree": dict(node_bytes=64 << 10),
    "betree": dict(node_bytes=1 << 20, fanout=16),
    "lsm": dict(l0_trigger=2),
}


@dataclass
class YCSBResult:
    """ms/op per workload and structure."""

    n_entries: int
    n_ops: int
    cache_bytes: int
    cost_ms: dict[str, dict[str, float]] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for wl, per_structure in self.cost_ms.items():
            rows.append([wl] + [f"{per_structure[s]:.3f}" for s in STRUCTURES])
        return report.render_table(
            f"YCSB-style mixes, ms/op (N={self.n_entries}, {self.n_ops} ops, "
            f"M={report.format_bytes(self.cache_bytes)})",
            ["workload"] + list(STRUCTURES),
            rows,
            note=(
                "Write-optimized structures dominate update-heavy mixes; "
                "the B-tree holds its ground only when reads dominate.  "
                "Workload F uses Bε upsert messages (blind delta) vs "
                "read-modify-write on the others."
            ),
        )

    def winner(self, workload: str) -> str:
        """Structure with the lowest cost on a workload."""
        per = self.cost_ms[workload]
        return min(per, key=per.__getitem__)


def _run_mix(tree, keys, universe, n_ops, spec: dict, seed: int) -> float:
    if spec.get("rmw"):
        # Read-modify-write: Bε-trees use a blind upsert; others must read.
        t0 = tree.io_seconds
        import numpy as np

        rng = np.random.default_rng(seed)
        sel = rng.integers(0, len(keys), size=n_ops)
        for i in range(n_ops):
            k = keys[int(sel[i])]
            if hasattr(tree, "upsert"):
                tree.upsert(k, 1)
            else:
                v = tree.get(k)
                tree.insert(k, (v or 0) if isinstance(v, int) else 0)
        tree.settle()
        return (tree.io_seconds - t0) * 1e3 / n_ops

    t0 = tree.io_seconds
    for op in mixed_stream(keys, universe, n_ops, seed=seed, **spec):
        if op.kind is OpKind.INSERT:
            tree.insert(op.key, op.value)
        elif op.kind is OpKind.RANGE:
            tree.range(op.key, op.hi)
        else:
            tree.get(op.key)
    tree.settle()
    return (tree.io_seconds - t0) * 1e3 / n_ops


def run(
    *,
    n_entries: int = 120_000,
    n_ops: int = 3000,
    cache_bytes: int = 4 << 20,
    universe: int = 1 << 31,
    seed: int = 0,
) -> YCSBResult:
    """Run every workload on every structure."""
    pairs, keys = build_load(n_entries, universe, seed=seed)
    result = YCSBResult(n_entries=n_entries, n_ops=n_ops, cache_bytes=cache_bytes)
    for wl, spec in WORKLOADS.items():
        result.cost_ms[wl] = {}
        for structure, fields in STRUCTURES.items():
            tree = build(
                structure, default_hdd(seed=seed), cache_bytes=cache_bytes, **fields
            )
            tree.load(pairs)
            # Warm the cache a little so each structure starts comparable.
            for k in keys[:: max(1, len(keys) // 200)]:
                tree.get(k)
            result.cost_ms[wl][structure] = _run_mix(
                tree, keys, universe, n_ops, dict(spec), seed + 1
            )
    return result
