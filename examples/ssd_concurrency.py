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
from repro.storage.device import ReadRequest
from repro.trees.btree.veb import PDAMQuerySimulator, StaticSearchTree


def fit_device(name="samsung-860-pro-sim"):
    """Step 1: the Figure 1 / Table 1 thread-scaling benchmark."""
    threads = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
    bytes_per_thread = 4 << 20
    times = []
    for p in threads:
        ssd = storage.build(name)
        rng = np.random.default_rng(p)
        stripes = ssd.capacity_bytes // 65536
        streams = [
            [ReadRequest(int(o) * 65536, 65536)
             for o in rng.integers(0, stripes, size=bytes_per_thread // 65536)]
            for _ in range(p)
        ]
        times.append(ssd.run_closed_loop(streams))
    return fit_pdam_model(list(threads), times, bytes_per_thread=bytes_per_thread)


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
