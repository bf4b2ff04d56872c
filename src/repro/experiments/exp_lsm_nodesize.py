"""E11 (extension) — LSM-tree SSTable-size sensitivity.

The paper's introduction asks why "LevelDB's LSM-tree uses 2 MiB SSTables
for all workloads" — the same node-size question Figures 2-3 answer for
B-trees and Bε-trees, asked of the third write-optimized family.

This experiment sweeps the SSTable size on the default simulated HDD and
measures amortized insert cost (including compaction IO) and point-query
cost.  Expected affine-model shape: like the Bε-tree, the LSM is a
write-optimized structure whose insert cost falls with run size (fewer,
larger compaction IOs amortize the setup cost) while query cost is fairly
flat (queries probe one ~4 KiB block per level regardless of run size) —
i.e. LSMs are *insensitive* to the SSTable size over a wide range, which
is consistent with LevelDB shipping one default for all workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import report
from repro.experiments.devices import default_hdd
from repro.trees import build
from repro.workloads.generators import insert_stream, point_query_stream, random_load_pairs

DEFAULT_SSTABLE_SIZES = (256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20)


@dataclass
class LSMNodeSizeResult:
    """Per-SSTable-size op costs."""

    sstable_sizes: tuple[int, ...]
    n_loaded: int
    n_inserts: list[int] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)
    insert_ms: list[float] = field(default_factory=list)
    write_amp: list[float] = field(default_factory=list)

    def render(self) -> str:
        labels = [report.format_bytes(b) for b in self.sstable_sizes]
        return report.render_series(
            f"LSM-tree ms/op vs SSTable size (N={self.n_loaded}, "
            f"{min(self.n_inserts)}-{max(self.n_inserts)} measured inserts)",
            "sstable size",
            labels,
            {
                "query (ms/op)": self.query_ms,
                "insert (ms/op)": self.insert_ms,
                "write amp": self.write_amp,
            },
            note=(
                "Insert cost includes compaction IO (amortized).  Like the "
                "Bε-tree, the LSM is insensitive to its run size over a wide "
                "range — consistent with LevelDB's one-default-fits-all 2 MiB."
            ),
        )


def run(
    *,
    sstable_sizes: tuple[int, ...] = DEFAULT_SSTABLE_SIZES,
    n_loaded: int = 120_000,
    min_inserts: int = 30_000,
    max_inserts: int = 150_000,
    n_queries: int = 300,
    universe: int = 1 << 31,
    seed: int = 0,
) -> LSMNodeSizeResult:
    """Sweep SSTable sizes; load by insertion (LSMs have no bulk load).

    The measured insert window scales with the run size so that at least a
    couple of memtable-flush + L0-compaction cycles land inside it —
    otherwise large-run configs report a misleadingly compaction-free cost.
    """
    pairs = random_load_pairs(n_loaded, universe, seed=seed)
    keys = [k for k, _ in pairs]
    result = LSMNodeSizeResult(sstable_sizes=tuple(sstable_sizes), n_loaded=n_loaded)
    for sstable_bytes in sstable_sizes:
        device = default_hdd(seed=seed)
        tree = build(
            "lsm",
            device,
            sstable_bytes=sstable_bytes,
            memtable_bytes=sstable_bytes,
            level1_bytes=max(4 * sstable_bytes, 8 << 20),
            l0_trigger=2,
        )
        config = tree.config
        n_inserts = min(
            max_inserts,
            max(min_inserts, int(2.5 * config.l0_trigger * config.entries_per_sstable)),
        )
        result.n_inserts.append(n_inserts)
        tree.load(pairs)

        t0 = device.stats.busy_seconds
        for key in point_query_stream(keys, n_queries, seed=seed + 2):
            tree.get(key)
        result.query_ms.append((device.stats.busy_seconds - t0) * 1e3 / n_queries)

        base = device.stats.snapshot()
        for key, value in insert_stream(universe, n_inserts, seed=seed + 3):
            tree.insert(key, value)
        tree.settle()
        delta = device.stats.delta(base)
        result.insert_ms.append(delta.busy_seconds * 1e3 / n_inserts)
        result.write_amp.append(
            delta.write_amplification(n_inserts * config.fmt.entry_bytes)
        )
    return result
