"""Shared measurement harness for the node-size experiments (Figures 2-3).

Protocol per tree instance:

1. **Load**: bulk-load ``n_entries`` random distinct keys (scaled down from
   the paper's 16 GB; see DESIGN.md section 5).
2. **Cool down**: write back and drop the cache so measurement starts from
   a defined state.
3. **Warm up**: run some unmeasured queries so the hot internal levels
   re-enter the cache (the paper's runs are warm: ops follow the load).
4. **Measure**: random point queries, then random inserts; report
   *simulated device seconds per operation*.  The insert phase ends with a
   cache flush so dirty write-backs are charged inside the phase.

:func:`nodesize_point` is that protocol as one sweep kernel over every
tree kind and device, and :class:`NodeSizeResult` the table a sweep of it
renders: Figures 2 and 3 (E5, E6), write amplification (E8), the Theorem 9
ablation (E9), the LSM's SSTable sweep (E11), the ε tradeoff (E12), the
write-asymmetry sweep (E14) and E20's tree panel are specs over the one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro import storage, trees
from repro.errors import ConfigurationError
from repro.experiments import report
from repro.runner import SweepPoint, register
from repro.storage.device import DeviceStats
from repro.trees.sizing import EntryFormat
from repro.workloads.generators import (
    insert_stream,
    point_query_stream,
    random_load_pairs,
)

if TYPE_CHECKING:
    from repro.analysis.fitting import OverlayFit


@dataclass(frozen=True)
class OpTimes:
    """Per-operation simulated times of one measured tree instance."""

    query_seconds_per_op: float
    insert_seconds_per_op: float
    n_queries: int
    n_inserts: int
    #: What the device did in the insert phase, its write-backs included.
    insert_stats: DeviceStats


def measure_tree_ops(
    tree,
    loaded_keys: list[int],
    universe: int,
    *,
    n_queries: int,
    n_inserts: int,
    warmup_queries: int = 200,
    lookup_many: bool = False,
    seed: int = 0,
) -> OpTimes:
    """Measure per-op simulated time for random queries then random inserts.

    ``tree`` is any loaded :class:`~repro.trees.api.KVTree`.  The measured
    queries are a ``get`` loop, or with ``lookup_many`` one batch, which a
    kind may plan as a different IO schedule (:meth:`KVTree.lookup_many`).

    Every phase derives its stream from ``seed`` with a fixed offset
    (warm-up: ``seed+1``, queries: ``seed+2``, inserts: ``seed+3``), so the
    measurement is a pure function of ``(tree state, universe, n_queries,
    n_inserts, warmup_queries, seed)`` — exactly the fields a
    :class:`~repro.runner.spec.SweepPoint` fingerprints.
    """
    if n_queries <= 0 or n_inserts <= 0:
        raise ConfigurationError("need positive op counts")
    if warmup_queries < 0:
        raise ConfigurationError("warmup_queries must be non-negative")
    tree.drop_cache()

    for key in point_query_stream(loaded_keys, warmup_queries, seed=seed + 1):
        tree.get(key)
    # Hit rates reported after this call should describe the measured ops,
    # not the warm-up traffic that primed the cache.
    tree.reset_cache_stats()

    queries = point_query_stream(loaded_keys, n_queries, seed=seed + 2)
    t0 = tree.io_seconds
    if lookup_many:
        tree.lookup_many(list(queries))
    else:
        for key in queries:
            tree.get(key)
    query_per_op = (tree.io_seconds - t0) / n_queries

    before = tree.device.stats.snapshot()
    t0 = tree.io_seconds
    # The paper prices a stream of single random inserts (Figure 2,
    # Corollary 7): an insert loop, which a planned batch (the B-tree's,
    # the cob's) is not.
    tree.put_many(insert_stream(universe, n_inserts, seed=seed + 3), planned=False)
    tree.settle()
    insert_per_op = (tree.io_seconds - t0) / n_inserts

    return OpTimes(
        query_seconds_per_op=query_per_op,
        insert_seconds_per_op=insert_per_op,
        n_queries=n_queries,
        n_inserts=n_inserts,
        insert_stats=tree.device.stats.delta(before),
    )


def window(unit: int, units: float, floor: int, cap: int) -> int:
    """``units`` amortization units of ops, at least ``floor``, at most ``cap``."""
    return min(cap, max(floor, int(units * unit)))


@register("nodesize_point")
def nodesize_point(
    *,
    kind: str,
    device: str,
    device_fields: tuple,
    node_bytes: int | None,
    cache_bytes: int | None,
    tree_fields: tuple,
    value_bytes: int,
    n_entries: int,
    universe: int,
    n_queries: int,
    warmup_queries: int,
    lookup_many: bool,
    prefill_units: float,
    max_prefill: int,
    insert_units: float,
    min_inserts: int,
    max_inserts: int,
    seed: int,
) -> dict[str, float]:
    """Load a fresh tree of ``kind`` at one node size on one device; measure.

    ``device`` is a :func:`repro.storage.build` name and ``device_fields``
    its ``(field, value)`` pairs; ``tree_fields`` are further fields of the
    kind's config.  Both windows count in the kind's amortization unit
    (:class:`~repro.trees.api.TreeKind`; 0 for a kind without one): a
    :func:`window` of unmeasured inserts (``seed + 7``) reaches steady
    state, then :func:`measure_tree_ops` times the queries and a
    :func:`window` of inserts.  ``write_amp`` is the insert phase's.
    """
    pairs, keys = build_load(n_entries, universe, seed=seed)
    tree = trees.build(
        kind,
        storage.build(device, **dict(device_fields)),
        node_bytes=node_bytes,
        cache_bytes=cache_bytes,
        fmt=EntryFormat(value_bytes=value_bytes),
        **dict(tree_fields),
    )
    tree.load(pairs)
    unit_of = trees.check_kind(kind).amortization_unit
    unit = unit_of(tree.config) if unit_of is not None else 0
    prefill = window(unit, prefill_units, 0, max_prefill)
    if prefill:
        tree.put_many(insert_stream(universe, prefill, seed=seed + 7), planned=False)
    times = measure_tree_ops(
        tree,
        keys,
        universe,
        n_queries=n_queries,
        n_inserts=window(unit, insert_units, min_inserts, max_inserts),
        warmup_queries=warmup_queries,
        lookup_many=lookup_many,
        seed=seed,
    )
    return {
        "query_ms": times.query_seconds_per_op * 1e3,
        "insert_ms": times.insert_seconds_per_op * 1e3,
        "write_amp": times.insert_stats.write_amplification(
            times.n_inserts * tree.config.fmt.entry_bytes
        ),
    }


def nodesize_sweep_point(**params: Any) -> SweepPoint:
    """A :func:`nodesize_point` point; what ``params`` leave out is a
    ``get`` loop on the device's default fields, the default entry format,
    no prefill and an insert window that ignores the amortization unit."""
    defaults = dict(
        device_fields=(),
        cache_bytes=None,
        tree_fields=(),
        value_bytes=EntryFormat().value_bytes,
        lookup_many=False,
        prefill_units=0.0,
        max_prefill=0,
        insert_units=0.0,
    )
    return SweepPoint.make("nodesize_point", **{**defaults, **params})


@dataclass
class NodeSizeResult:
    """One kind's op costs across a node-size axis, one kernel row a size.

    ``title`` heads the table (followed by ``caption``) and the plot; the
    table shows the query and insert columns, then ``extra``'s.
    """

    title: str
    node_sizes: tuple[int, ...]
    query_ms: list[float]
    insert_ms: list[float]
    write_amp: list[float]
    caption: str = ""
    axis: str = "node size"
    extra: dict[str, list[float]] = field(default_factory=dict)
    note: str | None = None
    query_fit: OverlayFit | None = None
    insert_fit: OverlayFit | None = None
    log_y: bool = False

    @classmethod
    def of_rows(cls, title: str, node_sizes, rows, **fields: Any) -> "NodeSizeResult":
        """The result of ``rows``, one :func:`nodesize_point` row a size."""
        return cls(
            title,
            tuple(node_sizes),
            [row["query_ms"] for row in rows],
            [row["insert_ms"] for row in rows],
            [row["write_amp"] for row in rows],
            **fields,
        )

    def best_node(self, series: str = "query") -> int:
        """Node size minimizing the ``"query"`` or ``"insert"`` series."""
        values = self.query_ms if series == "query" else self.insert_ms
        return self.node_sizes[min(range(len(values)), key=values.__getitem__)]

    def sensitivity(self, series: str = "query") -> float:
        """max/min of a series — the 'how V-shaped is it' metric (1.0 = flat)."""
        values = self.query_ms if series == "query" else self.insert_ms
        return max(values) / min(values)

    def render(self) -> str:
        return report.render_series(
            f"{self.title} {self.caption}",
            self.axis,
            [report.format_bytes(b) for b in self.node_sizes],
            {"query (ms/op)": self.query_ms, "insert (ms/op)": self.insert_ms, **self.extra},
            note=self.note,
        )

    def render_plot(self) -> str:
        from repro.experiments.plot import ascii_plot

        return ascii_plot(
            self.title,
            list(self.node_sizes),
            {"query": self.query_ms, "insert": self.insert_ms},
            log_x=True,
            log_y=self.log_y,
            x_label="node bytes",
            y_label="ms/op",
        )


def check_devices(names, known) -> tuple[str, ...]:
    """``names`` as a tuple, each one of ``known``; an unknown name is
    refused when the sweep spec is built, not inside a kernel."""
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ConfigurationError(f"unknown device(s) {unknown}; expected one of {tuple(known)}")
    return tuple(names)


_load_memo: dict[tuple[int, int, int], tuple[list, list]] = {}


def build_load(n_entries: int, universe: int, seed: int = 0):
    """Load pairs plus the key list used to draw queries.

    The load is a pure function of its arguments, and every point of a
    node-size sweep asks for the same one — so the last result is memoized
    (per process; parallel sweeps fork fresh ones).  Callers get shallow
    copies: the tuples are shared but the lists are theirs to mutate.
    """
    memo_key = (n_entries, universe, seed)
    cached = _load_memo.get(memo_key)
    if cached is None:
        # Drop the old load before generating the new one, so only one is
        # ever resident: a stock 300k-entry load is ~50 MiB.
        _load_memo.clear()
        pairs = random_load_pairs(n_entries, universe, seed=seed)
        cached = _load_memo[memo_key] = (pairs, [k for k, _ in pairs])
    return list(cached[0]), list(cached[1])
