"""Node-size tuning workflow: from device measurements to design choices.

Walks the full loop an engineer would follow with this library:

1. Microbenchmark an (unknown) disk: random reads of varying size.
2. Fit the affine model to recover ``(s, t, alpha)`` — the Table 2 recipe.
3. Apply the paper's corollaries to choose node sizes:
   - B-tree optimum (Corollary 7): ``~1/(alpha ln(1/alpha))``, well below
     the half-bandwidth point — this is why production B-trees use 16-64 KiB
     nodes.
   - Bε-tree design (Corollary 12): fanout ``F = B-tree optimum``, node
     size ``B = F^2`` — why TokuDB uses ~4 MiB nodes with basement nodes.
4. Verify the predictions against simulated trees.

Run:  python examples/node_size_tuning.py
"""

from repro.analysis.fitting import fit_affine_model
from repro import storage
from repro.models.analysis import (
    betree_speedup_over_btree,
    optimal_betree_params,
    optimal_btree_node_size,
)
from repro.storage.stack import StorageStack
from repro.trees.btree import BTree, BTreeConfig
from repro.trees.sizing import EntryFormat
from repro.tuning import probe_affine
from repro.workloads.generators import point_query_stream, random_load_pairs


def main() -> None:
    fmt = EntryFormat()  # 108-byte entries
    hdd = storage.build("wd-black-1tb-2011-sim", seed=0)

    print("Step 1-2: fit the affine model to the device")
    probe = probe_affine(hdd, io_sizes=tuple(4096 * 4**k for k in range(7)))
    sizes, times = probe.means()
    fit = fit_affine_model(sizes, times)
    print(f"  s = {fit.setup_seconds * 1e3:.1f} ms, "
          f"t = {fit.seconds_per_byte * 4096 * 1e6:.1f} us/4KiB, "
          f"alpha = {fit.alpha:.4f}/4KiB  (R^2 = {fit.r2:.4f})")

    alpha_per_entry = fit.seconds_per_byte * fmt.entry_bytes / fit.setup_seconds
    half_bw = fit.setup_seconds / fit.seconds_per_byte

    print("\nStep 3: apply the corollaries")
    b_star_entries = optimal_btree_node_size(alpha_per_entry)
    b_star_bytes = b_star_entries * fmt.entry_bytes
    print(f"  half-bandwidth point:       {half_bw / 2**20:.2f} MiB")
    print(f"  B-tree optimum (Cor. 7):    {b_star_bytes / 2**10:.0f} KiB "
          f"({b_star_bytes / half_bw:.0%} of half-bandwidth)")
    F, B = optimal_betree_params(alpha_per_entry)
    print(f"  Bε-tree design (Cor. 12):   F = {F:.0f}, "
          f"node = {B * fmt.entry_bytes / 2**20:.1f} MiB")
    print(f"  predicted insert speedup:   "
          f"{betree_speedup_over_btree(alpha_per_entry, 1e8, 1e5):.1f}x over the B-tree")

    print("\nStep 4: verify against a simulated B-tree")
    n_entries, cache = 150_000, 4 << 20
    pairs = random_load_pairs(n_entries, 1 << 31, seed=1)
    keys = [k for k, _ in pairs]
    candidates = [16 << 10, 64 << 10, 256 << 10, 2 << 20]
    for node_bytes in candidates:
        device = storage.build("wd-black-1tb-2011-sim", seed=2)
        stack = StorageStack(device, cache)
        tree = BTree(stack, BTreeConfig(node_bytes=node_bytes, fmt=fmt))
        tree.bulk_load(pairs)
        stack.drop_cache()
        for k in point_query_stream(keys, 100, seed=3):
            tree.get(k)
        t0 = stack.io_seconds
        for k in point_query_stream(keys, 200, seed=4):
            tree.get(k)
        per_op = (stack.io_seconds - t0) / 200
        marker = "  <- nearest the Cor. 7 optimum" if (
            node_bytes / 2 < b_star_bytes <= node_bytes * 2
        ) else ""
        print(f"  B-tree @ {node_bytes >> 10:5d} KiB nodes: "
              f"{per_op * 1e3:6.2f} ms/query{marker}")


if __name__ == "__main__":
    main()
