"""IO-trace anatomy: what write-optimization looks like on the wire.

Runs the same update-heavy workload against a B-tree and a Bε-tree with IO
tracing enabled, then uses :mod:`repro.analysis.traces` to show *why* the
Bε-tree wins: far fewer IOs, much larger and more sequential ones — the
affine model's favourite kind.

Run:  python examples/io_trace_analysis.py
"""

import math

from repro.analysis.traces import io_size_histogram, summarize_trace
from repro import storage
from repro.storage.stack import StorageStack
from repro.trees.betree import BeTreeConfig, OptimizedBeTree
from repro.trees.btree import BTree, BTreeConfig
from repro.workloads.generators import insert_stream, random_load_pairs

N_LOAD = 100_000
N_OPS = 6000
CACHE = 2 << 20


def run_workload(label, build):
    device = storage.build("wd-black-1tb-2011-sim", seed=1, trace=True)
    stack = StorageStack(device, CACHE)
    tree = build(stack)
    tree.bulk_load(random_load_pairs(N_LOAD, 1 << 31, seed=0))
    stack.drop_cache()
    trace_start = len(device.trace)
    for k, v in insert_stream(1 << 31, N_OPS, seed=2):
        tree.insert(k, v)
    stack.flush()
    trace = device.trace[trace_start:]
    stats = summarize_trace(trace)

    print(f"\n{label}: {N_OPS} random inserts")
    print(f"  IOs issued:          {stats.n_ios} "
          f"({stats.n_reads} reads / {stats.n_writes} writes)")
    print(f"  bytes moved:         {stats.total_bytes / 2**20:.1f} MiB")
    print(f"  mean IO size:        {stats.mean_io_bytes / 1024:.0f} KiB")
    seq = (
        "n/a (single IO)"
        if math.isnan(stats.sequential_fraction)
        else f"{stats.sequential_fraction:.0%}"
    )
    print(f"  sequential IOs:      {seq}")
    print(f"  device time:         {stats.busy_seconds:.2f} s simulated "
          f"({stats.busy_seconds * 1e6 / N_OPS:.0f} us/op)")
    print(f"  effective bandwidth: {stats.effective_bandwidth / 2**20:.1f} MiB/s")
    print("  IO size histogram:")
    for bucket, count in io_size_histogram(trace):
        print(f"    {bucket:>22s}  {count}")
    return stats


def main() -> None:
    bt = run_workload(
        "B-tree (64 KiB nodes)",
        lambda stack: BTree(stack, BTreeConfig(node_bytes=64 << 10)),
    )
    be = run_workload(
        "Bε-tree (1 MiB nodes, F=16)",
        lambda stack: OptimizedBeTree(
            stack, BeTreeConfig(node_bytes=1 << 20, fanout=16)
        ),
    )
    print(
        f"\nSame {N_OPS} inserts: the Bε-tree issued {bt.n_ios / be.n_ios:.0f}x "
        f"fewer IOs, moved {bt.total_bytes / be.total_bytes:.0f}x fewer bytes, "
        f"and finished in {bt.busy_seconds / be.busy_seconds:.0f}x less device "
        "time.  Buffering turns thousands of read-modify-write leaf touches "
        "into a few large batched node IOs — exactly the IO pattern the "
        "affine model rewards (and Definition 3's write amplification counts "
        "from the bytes side)."
    )


if __name__ == "__main__":
    main()
