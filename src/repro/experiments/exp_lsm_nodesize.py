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

from repro.experiments.common import NodeSizeResult, nodesize_sweep_point, window
from repro.experiments.devices import DEFAULT_HDD
from repro.runner import ResultCache, SweepSpec, run_sweep
from repro.trees import check_kind, configure

DEFAULT_SSTABLE_SIZES = (256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20)

#: Amortization units (the memtable flushes that trigger one L0
#: compaction) in the measured insert window: at least a couple of flush +
#: compaction cycles land inside it, or large-run configs report a
#: misleadingly compaction-free cost.
CYCLES_MEASURED = 2.5


def lsm_fields(sstable_bytes: int) -> tuple[tuple[str, int], ...]:
    """The LSM config at one SSTable size: a memtable of one SSTable, level 1
    of four (at least 8 MiB), compaction at two L0 runs."""
    return (
        ("sstable_bytes", sstable_bytes),
        ("memtable_bytes", sstable_bytes),
        ("level1_bytes", max(4 * sstable_bytes, 8 << 20)),
        ("l0_trigger", 2),
    )


def sweep_spec(
    *,
    sstable_sizes: tuple[int, ...] = DEFAULT_SSTABLE_SIZES,
    n_loaded: int = 120_000,
    min_inserts: int = 30_000,
    max_inserts: int = 150_000,
    n_queries: int = 300,
    universe: int = 1 << 31,
    seed: int = 0,
) -> SweepSpec:
    """The E11 sweep: one LSM ``nodesize_point`` per SSTable size, loaded by
    insertion (LSMs have no bulk load), with no warm-up, on one disk."""
    return SweepSpec.make(
        "lsm_nodesize",
        [
            nodesize_sweep_point(
                kind="lsm",
                device=DEFAULT_HDD,
                device_fields=(("seed", seed),),
                node_bytes=None,
                tree_fields=lsm_fields(sstable_bytes),
                n_entries=n_loaded,
                universe=universe,
                n_queries=n_queries,
                warmup_queries=0,
                insert_units=CYCLES_MEASURED,
                min_inserts=min_inserts,
                max_inserts=max_inserts,
                seed=seed,
            )
            for sstable_bytes in sstable_sizes
        ],
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
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> NodeSizeResult:
    """Sweep SSTable sizes on the default HDD; insert cost includes
    compaction IO."""
    spec = sweep_spec(
        sstable_sizes=tuple(sstable_sizes),
        n_loaded=n_loaded,
        min_inserts=min_inserts,
        max_inserts=max_inserts,
        n_queries=n_queries,
        universe=universe,
        seed=seed,
    )
    # The caption's window sizes, as the kernel counts them.
    unit_of = check_kind("lsm").amortization_unit
    units = [unit_of(configure("lsm", **dict(lsm_fields(size)))) for size in sstable_sizes]
    n_inserts = [window(unit, CYCLES_MEASURED, min_inserts, max_inserts) for unit in units]
    result = NodeSizeResult.of_rows(
        "LSM-tree ms/op vs SSTable size",
        sstable_sizes,
        run_sweep(spec, jobs=jobs, cache=cache),
        caption=f"(N={n_loaded}, {min(n_inserts)}-{max(n_inserts)} measured inserts)",
        axis="sstable size",
        note=(
            "Insert cost includes compaction IO (amortized).  Like the "
            "Bε-tree, the LSM is insensitive to its run size over a wide "
            "range — consistent with LevelDB's one-default-fits-all 2 MiB."
        ),
    )
    result.extra["write amp"] = result.write_amp
    return result
