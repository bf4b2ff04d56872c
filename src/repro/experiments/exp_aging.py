"""E13 (extension) — file-system aging and range-query bandwidth.

Section 5 of the paper, on why small B-tree nodes are costly for scans:

    "the optimal node size x is not large enough to amortize the setup
    cost.  This means that as B-trees age, their nodes get spread out
    across disk, and range-query performance degrades.  This is borne out
    in practice [28, 29, 31, 59]."

This experiment quantifies it on the simulated HDD: identical B-trees,
one allocated first-fit on an empty disk (fresh — nearly sequential
layout) and one with uniformly random extent placement (aged), measuring
effective range-scan bandwidth across node sizes.  The affine model
predicts the aged/fresh slowdown directly.  A B-tree scan reads each
level in disk order, one IO per run of adjacent nodes, so a scan of ``L``
bytes over ``n = L/B`` nodes costs ``~s_local + L*t`` when laid out
sequentially (one short seek to the scan start, then one run) and
``~s + (n-1)*s_next + L*t`` when the nodes are scattered: the first node
pays a random seek ``s``, each later one a seek to its disk-order
neighbour, ``s_next`` (:func:`neighbour_setup_seconds`).  The slowdown is
large exactly when ``B`` is below the half-bandwidth point, i.e. for
point-query-optimal node sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.experiments import report
from repro.experiments.common import build_load
from repro.experiments.devices import default_hdd
from repro.storage.hdd import HDDGeometry
from repro.trees import KVTree, build
from repro.trees.sizing import EntryFormat
from repro.workloads.generators import range_query_stream

DEFAULT_NODE_SIZES = (16 << 10, 64 << 10, 256 << 10, 1 << 20)


@dataclass
class AgingResult:
    """Fresh vs aged scan bandwidth per node size."""

    node_sizes: tuple[int, ...]
    n_entries: int
    fresh_mibps: list[float] = field(default_factory=list)
    aged_mibps: list[float] = field(default_factory=list)
    predicted_slowdown: list[float] = field(default_factory=list)

    @property
    def measured_slowdown(self) -> list[float]:
        """Aged-layout slowdown factor per node size."""
        return [f / a for f, a in zip(self.fresh_mibps, self.aged_mibps)]

    def render(self) -> str:
        labels = [report.format_bytes(b) for b in self.node_sizes]
        return report.render_series(
            f"File-system aging: range-scan bandwidth (N={self.n_entries})",
            "node size",
            labels,
            {
                "fresh (MiB/s)": self.fresh_mibps,
                "aged (MiB/s)": self.aged_mibps,
                "slowdown": self.measured_slowdown,
                "affine predicted": self.predicted_slowdown,
            },
            note=(
                "Aged = random extent placement.  Affine prediction: "
                "(s + (n-1)*s_next + L*t)/(s_local + L*t) for an L-byte scan "
                "over n nodes read in disk order — severe at small "
                "(point-query-optimal) nodes, mild at large (scan-optimal) "
                "nodes."
            ),
        )


def neighbour_setup_seconds(geometry: HDDGeometry, n: float) -> float:
    """Expected setup of a read whose predecessor is its disk-order
    neighbour among ``n`` nodes scattered uniformly over the disk.

    The gap between neighbours is a ``Beta(1, n)`` fraction ``G`` of the
    disk, and under the square-root seek curve the seek costs ``t2t +
    (full - t2t) * sqrt(G)``, with ``E[sqrt(G)] = Γ(3/2) Γ(n+1) / Γ(n+3/2)``;
    the rotational wait is half a rotation, as for any non-sequential IO.
    """
    t2t = geometry.track_to_track_seek_seconds
    sqrt_gap = math.exp(math.lgamma(1.5) + math.lgamma(n + 1) - math.lgamma(n + 1.5))
    return (
        t2t + (geometry.full_stroke_seek_seconds - t2t) * sqrt_gap
        + geometry.rotation_seconds / 2
    )


def _scan_bandwidth(tree: KVTree, keys, span, n_scans, seed) -> float:
    tree.drop_cache()
    t0 = tree.io_seconds
    rows = 0
    for lo, hi in range_query_stream(keys, n_scans, span_keys=span, seed=seed):
        rows += len(tree.range(lo, hi))
    elapsed = tree.io_seconds - t0
    return rows * tree.config.fmt.entry_bytes / 2**20 / elapsed


def run(
    *,
    node_sizes: tuple[int, ...] = DEFAULT_NODE_SIZES,
    n_entries: int = 200_000,
    cache_bytes: int = 4 << 20,
    universe: int = 1 << 31,
    span_keys: int = 2000,
    n_scans: int = 20,
    seed: int = 0,
) -> AgingResult:
    """Measure fresh vs aged scan bandwidth across node sizes."""
    pairs, keys = build_load(n_entries, universe, seed=seed)
    result = AgingResult(node_sizes=tuple(node_sizes), n_entries=n_entries)
    geometry = default_hdd().geometry
    s = geometry.mean_setup_seconds
    # A fresh tree occupies a tiny disk region, so its scan-start seek is
    # nearly track-to-track plus half a rotation.
    s_local = geometry.track_to_track_seek_seconds + geometry.rotation_seconds / 2
    t = geometry.seconds_per_byte
    fmt = EntryFormat()
    span_bytes = span_keys * fmt.entry_bytes
    for node_bytes in node_sizes:
        for policy, out in (("first_fit", result.fresh_mibps), ("random", result.aged_mibps)):
            device = default_hdd(seed=seed + 1)
            tree = build(
                "btree", device, node_bytes=node_bytes, cache_bytes=cache_bytes,
                placement=policy, placement_seed=13,
            )
            tree.load(pairs)
            tree.settle()
            out.append(_scan_bandwidth(tree, keys, span_keys, n_scans, seed + 2))
        # Expected leaves touched: span over ~90%-full nodes, plus one for
        # boundary straddle.
        n_nodes = span_bytes / (0.9 * node_bytes) + 1.0
        s_next = neighbour_setup_seconds(geometry, n_nodes)
        result.predicted_slowdown.append(
            (s + (n_nodes - 1) * s_next + span_bytes * t) / (s_local + span_bytes * t)
        )
    return result
