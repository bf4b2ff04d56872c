"""PDAM in action: sizing nodes for an SSD serving a varying client load.

Reproduces the Section 8 story end to end:

1. Fit the PDAM to a simulated SSD (the Table 1 recipe) to learn ``P``.
2. Show the dilemma: size-``B`` nodes waste the device at one client;
   size-``PB`` nodes waste it at ``P`` clients.
3. Resolve it with the van Emde Boas layout (Lemma 13): near-optimal
   throughput at *every* concurrency level, obliviously.

Run:  python examples/ssd_concurrency.py
"""

import numpy as np

from repro.analysis.fitting import fit_pdam_model
from repro import storage
from repro.trees.btree.veb import PDAMQuerySimulator, StaticSearchTree
from repro.tuning import probe_parallel


def fit_device(name="samsung-860-pro-sim"):
    """Step 1: the Figure 1 / Table 1 thread-scaling benchmark (E1's ramp)."""
    ramp = probe_parallel(
        storage.build(name),
        threads=(1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 48, 64),
        bytes_per_thread=8 << 20,
    )
    return fit_pdam_model(
        list(ramp.threads), list(ramp.completion_seconds),
        bytes_per_thread=ramp.bytes_per_thread,
    )


def main() -> None:
    print("Step 1: fit the PDAM to the device")
    fit = fit_device()
    print(f"  P = {fit.parallelism:.1f}, saturation = "
          f"{fit.saturation_bytes_per_second / 1e6:.0f} MB/s (R^2 = {fit.r2:.4f})")

    # Round to an integer P for the design step.
    P = max(2, round(fit.parallelism))
    print(f"\nStep 2-3: organize a search tree for P = {P} (Lemma 13)")

    tree = StaticSearchTree(np.arange(1, 2**15 + 1) * 3)
    print(f"  tree: {tree.n_keys} keys, {tree.height} comparison levels\n")

    header = "  {:>10s}".format("k clients")
    modes = ("flat_b", "flat_pb", "veb_pb")
    for mode in modes:
        header += f"  {mode:>10s}"
    print(header + "   (queries per PDAM step)")

    for k in (1, 2, 4, 8, 16):
        row = f"  {k:>10d}"
        for mode in modes:
            device = storage.build("pdam", parallelism=P, block_bytes=4096, step_seconds=1.0)
            sim = PDAMQuerySimulator(device, tree, mode=mode)
            out = sim.run(k, 40, seed=0)
            row += f"  {out.throughput:>10.3f}"
        print(row)

    print(
        "\n  flat_b  : size-B nodes — scales with k, wastes the device at k=1"
        "\n  flat_pb : size-PB nodes, whole-node reads — good at k=1 only"
        "\n  veb_pb  : size-PB nodes in vEB layout — near-best at *every* k"
    )


if __name__ == "__main__":
    main()
