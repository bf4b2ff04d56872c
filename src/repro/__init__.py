"""repro — a reproduction of "Small Refinements to the DAM Can Have Big
Consequences for Data-Structure Design" (Bender et al., SPAA 2019).

Three model families (:mod:`repro.models`), a simulated storage substrate
(:mod:`repro.storage`), the paper's dictionaries (:mod:`repro.trees`), the
fitting machinery (:mod:`repro.analysis`), workload generation
(:mod:`repro.workloads`), and a harness regenerating every table and
figure of the evaluation (:mod:`repro.experiments`).

Quick start::

    from repro import storage, trees

    disk = storage.build("wd-black-1tb-2011-sim")   # a Table 2 disk, simulated
    tree = trees.build("betree", disk, node_bytes=1 << 20, cache_bytes=16 << 20)
    tree.insert(1, "hello")
    tree.settle()
    print(tree.io_seconds)   # simulated device time — the metric

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
