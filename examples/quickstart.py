"""Quickstart: a write-optimized dictionary on a simulated hard disk.

Builds the paper's Theorem 9 Bε-tree on a simulated commodity HDD, runs a
small workload, and reports what the storage model *charges* for it —
simulated device seconds, the quantity every experiment in this repository
measures.

Run:  python examples/quickstart.py
"""

from repro import storage
from repro.storage.stack import StorageStack
from repro.trees.betree import BeTreeConfig, OptimizedBeTree


def main() -> None:
    # A simulated 2011-era 1 TB disk (Table 2 row) with a 16 MiB cache.
    device = storage.build("wd-black-1tb-2011-sim", seed=42)  # a Table 2 disk
    stack = StorageStack(device, cache_bytes=16 << 20)

    # TokuDB-flavoured tuning: 1 MiB nodes, fanout 16 (paper Section 3).
    tree = OptimizedBeTree(stack, BeTreeConfig(node_bytes=1 << 20, fanout=16))

    print("Loading 100k key-value pairs (bulk)...")
    tree.bulk_load([(k, f"value-{k}") for k in range(0, 200_000, 2)])
    load_seconds = stack.io_seconds
    print(f"  simulated device time: {load_seconds:.3f}s")

    print("Point queries (cold cache)...")
    stack.drop_cache()
    t0 = stack.io_seconds
    hits = sum(tree.get(k) is not None for k in range(0, 2000, 20))
    print(f"  {hits}/100 hits, {(stack.io_seconds - t0) * 1000 / 100:.2f} ms/query simulated")

    print("Buffered mutations (messages, not in-place writes)...")
    t0 = stack.io_seconds
    for k in range(1, 20_001, 2):           # 10k inserts of odd keys
        tree.insert(k, f"new-{k}")
    for k in range(0, 10_000, 10):          # 1k deletes
        tree.delete(k)
    tree.upsert(999_999, 7)                 # read-modify-write without the read
    stack.flush()
    mutate_seconds = stack.io_seconds - t0
    print(f"  11,001 mutations in {mutate_seconds:.3f}s simulated "
          f"({mutate_seconds * 1e6 / 11001:.1f} us/op amortized)")

    print("Range scan...")
    t0 = stack.io_seconds
    rows = tree.range(50_000, 60_000)
    print(f"  {len(rows)} rows, {stack.io_seconds - t0:.3f}s simulated")

    print("Consistency check...")
    tree.check_invariants()
    assert tree.get(1) == "new-1"
    assert tree.get(0) is None          # deleted
    assert tree.get(999_999) == 7       # upsert from absent starts at 0
    print("  all invariants hold")

    stats = device.stats
    print(
        f"\nDevice totals: {stats.reads} reads / {stats.writes} writes, "
        f"{stats.total_bytes / 2**20:.1f} MiB moved, "
        f"{stats.busy_seconds:.2f}s busy"
    )
    print(
        "Write amplification: "
        f"{stats.write_amplification(tree.user_bytes_modified):.1f}x"
    )


if __name__ == "__main__":
    main()
