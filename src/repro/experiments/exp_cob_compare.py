"""E20 — the cache-oblivious tier vs the knobbed trees, across cost models.

The paper's second half claims the refined models don't just *penalize*
DAM-tuned designs — they *enable* better ones.  This experiment puts the
new :mod:`repro.trees.cob` tier (PMA + vEB index; Lemma 13's layout made
dynamic, plus the Theorem 9 buffered variant) on the same axes as the
knobbed trees, under devices that realize each cost model exactly:

* **dam** — a ``P=1`` PDAM device: every ``B``-block transfer costs one
  step, the classic DAM.
* **affine** — ``s + t·x`` per IO (paper Section 4).
* **pdam** — ``P`` parallel block slots per step (paper Definition 1).

Panel 1 sweeps the B-tree/Bε-tree node-size knob under each model.  The
knobbed trees' optima *move* with the model (DAM says tiny nodes, affine
says the half-bandwidth point, PDAM says ``~PB``) — re-tuning required.
The COLA and cob trees have no node-size knob, so one deployment serves
every column: their rows are flat by construction, and the interesting
number is how close the knob-free query/insert cost sits to the *best
tuned* knobbed tree under every model simultaneously.

Panel 2 is the Lemma 13 concurrency check on the cob tier's index
layout: ``k <= P`` closed-loop query clients over a PDAM device, with
the index stored flat in ``B``-nodes, flat in ``PB``-nodes, or in vEB
order (exactly the block packing :class:`~repro.trees.cob.tree.COBTree`
uses).  The vEB layout should match or beat both flat layouts at every
``k`` — the no-knob property in its parallel form.

Panel 3 is the PMA's scan bound under its adversary (Iacono et al.,
"Locality", arXiv 1902.07928): fill, delete all but every ``2^j``-th key,
then scan ``k`` keys.  With the density floors every segment of ``S``
slots keeps at least ``m = floor(max_density / 4 * S)`` keys once the array
has grown, so the scan reads at most ``c * (1 + k/B)`` blocks with
``c = S/m + 2 + 2S/B`` (``B`` entries a block); each row reports the
blocks read beside that bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any

from repro import storage
from repro.errors import ConfigurationError
from repro.experiments import report
from repro.experiments.common import NodeSizeResult, nodesize_sweep_point
from repro.runner import ResultCache, SweepPoint, SweepSpec, register, run_sweep

MODELS = ("dam", "affine", "pdam")
KNOBBED_TREES = ("btree", "betree")
KNOBLESS_TREES = ("cola", "cob", "cob-buffered")
THREAD_MODES = ("flat_b", "flat_pb", "veb_pb")
ADVERSARY_TREES = ("cob", "cob-buffered")
ADVERSARY_JS = (1, 2, 3, 4, 5)

DEFAULT_NODE_SIZES = (16 << 10, 64 << 10, 256 << 10, 1 << 20)
DEFAULT_THREADS = (1, 2, 4, 8)

#: Shared timing constants: a 5 ms setup/step and 100 MiB/s of bandwidth,
#: so the affine half-bandwidth point sits at ~512 KiB (inside the sweep)
#: and one PDAM step equals one DAM block transfer.
SETUP_SECONDS = 0.005
SECONDS_PER_BYTE = 1.0 / (100 << 20)
MODEL_BLOCK_BYTES = 4096


def model_device(model: str, *, parallelism: int) -> tuple[str, dict[str, Any]]:
    """The :func:`repro.storage.build` kind and fields of a device whose
    timing *is* the named cost model, the DAM being a one-slot PDAM."""
    if model not in MODELS:
        raise ConfigurationError(f"unknown cost model {model!r}; expected one of {MODELS}")
    pdam = dict(block_bytes=MODEL_BLOCK_BYTES, step_seconds=SETUP_SECONDS)
    affine = dict(alpha=SECONDS_PER_BYTE / SETUP_SECONDS, setup_seconds=SETUP_SECONDS)
    return {
        "dam": ("pdam", dict(pdam, parallelism=1)),
        "affine": ("affine", affine),
        "pdam": ("pdam", dict(pdam, parallelism=parallelism)),
    }[model]


def make_model_device(model: str, *, parallelism: int):
    """A fresh :func:`model_device` (``benchmarks/perf`` imports it by this name)."""
    kind, fields = model_device(model, parallelism=parallelism)
    return storage.build(kind, **fields)


@register("cob_pdam_threads_point")
def cob_pdam_threads_point(
    *,
    mode: str,
    clients: int,
    parallelism: int,
    block_bytes: int,
    n_keys: int,
    queries_per_client: int,
    seed: int,
) -> dict[str, float]:
    """Lemma 13 panel: k closed-loop clients over one index layout."""
    import numpy as np

    from repro.trees.btree.veb import PDAMQuerySimulator, StaticSearchTree

    keys = np.arange(1, n_keys + 1, dtype=np.int64) * 3
    tree = StaticSearchTree(keys)
    device = storage.build(
        "pdam", parallelism=parallelism, block_bytes=block_bytes, step_seconds=1.0
    )
    sim = PDAMQuerySimulator(device, tree, mode=mode)
    out = sim.run(clients, queries_per_client, seed=seed)
    return {"throughput": out.throughput}


def adversary(tree: str, j: int, *, n_keys: int = 1 << 15, bulk: bool = False):
    """The scan adversary's tree: ``n_keys`` odd keys, then all but every
    ``2^j``-th deleted, one ``delete`` at a time or, with ``bulk`` (cob
    only), as ``put_bulk`` runs of 500; a buffered tree is flushed after.

    Returns ``(tree, survivors)``.  The tree sits on a traced free device
    whose trace starts empty, which is what :func:`pma_blocks_read` reads.
    """
    from repro.trees import build
    from repro.trees.sizing import EntryFormat

    instance = build(
        tree,
        storage.build("null", capacity_bytes=1 << 32, trace=True),
        cache_bytes=1 << 24,
        initial_slots=8,
        fmt=EntryFormat(key_bytes=8, value_bytes=20),
    )
    keys = list(range(1, 2 * n_keys, 2))
    instance.bulk_load([(key, key) for key in keys])
    doomed = [key for i, key in enumerate(keys) if i % (1 << j)]
    if bulk:
        for at in range(0, len(doomed), 500):
            instance.put_bulk([], doomed[at : at + 500])
    else:
        for key in doomed:
            instance.delete(key)
    if tree == "cob-buffered":
        instance.flush_all()
    instance.device.trace.clear()
    return instance, keys[:: 1 << j]


def pma_of(tree):
    """The packed-memory array under a cob or cob-buffered tree."""
    return getattr(tree, "base", tree).pma


def pma_blocks_read(tree, scan):
    """``(scan(), blocks its device reads touched inside the tree's PMA)``,
    from the device trace of a :func:`adversary` tree."""
    pma, trace = pma_of(tree), tree.device.trace
    start = len(trace)
    result = scan()
    block = pma.block_bytes
    blocks = 0
    for io in trace[start:]:
        if io.kind == "read" and pma.offset <= io.offset < pma.offset + pma.nbytes:
            blocks += (io.offset + io.nbytes - 1) // block - io.offset // block + 1
    return result, blocks


def scan_bound(pma, k: int) -> float:
    """``c * (1 + k/B)``, ``c = S/m + 2 + 2S/B``, for ``pma``'s geometry."""
    width = pma.segment_slots
    least = int(pma.max_density / 4 * width)
    per_block = pma.block_bytes // pma.entry_bytes
    c = width / least + 2 + 2 * width / per_block
    return c * (1 + k / per_block)


@register("cob_adversary_point")
def adversary_point(*, tree: str, j: int, n_keys: int, k: int) -> dict[str, float]:
    """Panel 3: blocks a ``k``-key scan from the first survivor reads
    after the adversary's deletes, and its bound."""
    instance, survivors = adversary(tree, j, n_keys=n_keys)
    _, blocks = pma_blocks_read(
        instance, lambda: instance.range(survivors[0], survivors[k - 1])
    )
    return {"blocks": float(blocks), "bound": scan_bound(pma_of(instance), k)}


@dataclass
class COBCompareResult:
    """E20: per-(model, tree) op costs plus the PDAM thread panel."""

    models: tuple[str, ...]
    node_sizes: tuple[int, ...]
    threads: tuple[int, ...]
    n_entries: int
    parallelism: int
    #: ``(model, tree) ->`` its costs across the node sizes (knobless trees
    #: hold their single measurement replicated across the axis).
    curves: dict[tuple[str, str], NodeSizeResult] = field(default_factory=dict)
    #: ``layout mode -> queries per PDAM step`` at each thread count.
    thread_throughput: dict[str, list[float]] = field(default_factory=dict)
    adversary_keys: int = 0
    adversary_scan: int = 0
    #: ``tree -> (blocks read, bound)`` for each ``j`` of the scan adversary.
    adversary: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    # -- summary accessors (what the tests and the note assert) -----------

    def insert_vs_best_tuned_betree(self, model: str, tree: str) -> float:
        """A knobless tree's insert cost over the best-tuned Bε-tree's."""
        best = min(self.curves[(model, "betree")].insert_ms)
        return self.curves[(model, tree)].insert_ms[0] / best

    def veb_dominates_threads(self, slack: float = 0.85) -> bool:
        """vEB layout within ``slack`` of the best layout at every k."""
        for i in range(len(self.threads)):
            best = max(self.thread_throughput[m][i] for m in self.thread_throughput)
            if self.thread_throughput["veb_pb"][i] < slack * best:
                return False
        return True

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        labels = [report.format_bytes(b) for b in self.node_sizes]
        blocks = []
        for model in self.models:
            series: dict[str, list[float]] = {}
            for tree in KNOBBED_TREES + KNOBLESS_TREES:
                series[f"{tree} q"] = self.curves[(model, tree)].query_ms
                series[f"{tree} i"] = self.curves[(model, tree)].insert_ms
            blocks.append(
                report.render_series(
                    f"E20 ({model}): ms/op vs node-size knob "
                    f"(N={self.n_entries}, P={self.parallelism})",
                    "node size",
                    labels,
                    series,
                    note=(
                        "q = query ms/op, i = insert ms/op.  cola/cob/"
                        "cob-buffered have no node-size knob: one deployment "
                        "serves every column (rows flat by construction)."
                    ),
                )
            )
        if self.thread_throughput:
            blocks.append(
                report.render_series(
                    f"E20 (pdam): cob index throughput vs k query threads "
                    f"(P={self.parallelism}, Lemma 13 panel)",
                    "k clients",
                    list(self.threads),
                    dict(self.thread_throughput),
                    note=(
                        "Queries per PDAM step.  veb_pb is the cob tier's "
                        "index layout; flat_b/flat_pb are the B-tuned and "
                        "PB-tuned node sizes a knobbed tree must pick from."
                    ),
                )
            )
        best = {
            model: report.format_bytes(self.curves[(model, "btree")].best_node())
            for model in self.models
        }
        blocks.append(
            "Best B-tree node size per model: "
            + ", ".join(f"{m}={b}" for m, b in best.items())
            + f"; cob query sensitivity across the axis: "
            f"{self.curves[('affine', 'cob')].sensitivity():.3g}x (no knob)."
        )
        if self.adversary:
            series = {}
            for tree, rows in self.adversary.items():
                series[tree] = [read for read, _ in rows]
                series[f"{tree} bound"] = [bound for _, bound in rows]
            blocks.append(
                report.render_series(
                    f"E20 (adversary): PMA blocks a k={self.adversary_scan} scan "
                    f"reads after deleting all but every 2^j-th of "
                    f"N={self.adversary_keys} keys",
                    "j",
                    list(ADVERSARY_JS),
                    series,
                    note=(
                        "bound = c(1 + k/B), c = S/m + 2 + 2S/B: S slots a "
                        "segment, m its density floor, B entries a block.  "
                        "cob-buffered is flushed before the scan."
                    ),
                )
            )
        return "\n\n".join(blocks)

    def render_plot(self) -> str:
        from repro.experiments.plot import ascii_plot

        return ascii_plot(
            "E20: query ms/op vs node-size knob (affine model)",
            list(self.node_sizes),
            {
                tree: self.curves[("affine", tree)].query_ms
                for tree in KNOBBED_TREES + KNOBLESS_TREES
            },
            log_x=True,
            log_y=True,
            x_label="node bytes",
            y_label="query ms/op",
        )


def sweep_spec(
    *,
    models: tuple[str, ...] = MODELS,
    node_sizes: tuple[int, ...] = DEFAULT_NODE_SIZES,
    threads: tuple[int, ...] = DEFAULT_THREADS,
    n_entries: int = 120_000,
    universe: int = 1 << 30,
    n_queries: int = 300,
    n_inserts: int = 3_000,
    warmup_queries: int = 100,
    parallelism: int = 8,
    cache_bytes: int = 48 << 10,
    thread_keys: int = 1 << 15,
    queries_per_client: int = 40,
    adversary_keys: int = 1 << 15,
    adversary_scan: int = 1000,
    seed: int = 0,
) -> SweepSpec:
    """The E20 sweep: compare points, the Lemma 13 thread panel and the
    scan adversary."""
    points = []
    for model in models:
        kind, fields = model_device(model, parallelism=parallelism)
        measure = dict(
            device=kind,
            device_fields=tuple(sorted(fields.items())),
            cache_bytes=cache_bytes,
            value_bytes=20,
            n_entries=n_entries,
            universe=universe,
            n_queries=n_queries,
            warmup_queries=warmup_queries,
            lookup_many=True,
            min_inserts=n_inserts,
            max_inserts=n_inserts,
            seed=seed,
        )
        for tree in KNOBBED_TREES:
            for node_bytes in node_sizes:
                points.append(nodesize_sweep_point(kind=tree, node_bytes=node_bytes, **measure))
        # One deployment a knobless tree (the block only prices IO); a
        # buffered kind starts from half-full buffers, its steady state.
        for tree in KNOBLESS_TREES:
            points.append(
                nodesize_sweep_point(
                    kind=tree,
                    node_bytes=MODEL_BLOCK_BYTES,
                    prefill_units=0.5,
                    max_prefill=n_entries,
                    **measure,
                )
            )
    for mode in THREAD_MODES:
        for clients in threads:
            points.append(
                SweepPoint.make(
                    "cob_pdam_threads_point",
                    mode=mode,
                    clients=clients,
                    parallelism=parallelism,
                    block_bytes=MODEL_BLOCK_BYTES,
                    n_keys=thread_keys,
                    queries_per_client=queries_per_client,
                    seed=seed,
                )
            )
    for tree in ADVERSARY_TREES:
        for j in ADVERSARY_JS:
            points.append(
                SweepPoint.make(
                    "cob_adversary_point", tree=tree, j=j, n_keys=adversary_keys, k=adversary_scan
                )
            )
    return SweepSpec.make("cob_compare", points)


def run(
    *, quick: bool = False, jobs: int = 1, cache: ResultCache | None = None, **params
) -> COBCompareResult:
    """Run E20; ``params`` are :func:`sweep_spec`'s, and ``quick`` shrinks
    them to CI-smoke size."""
    args = {**sweep_spec.__kwdefaults__, **params}
    if quick:
        args.update(
            n_entries=min(args["n_entries"], 12_000),
            n_inserts=min(args["n_inserts"], 500),
            n_queries=min(args["n_queries"], 100),
            cache_bytes=min(args["cache_bytes"], 48 << 10),
            node_sizes=tuple(args["node_sizes"])[:3],
            threads=tuple(t for t in args["threads"] if t <= 4) or (1,),
            thread_keys=min(args["thread_keys"], 1 << 12),
            queries_per_client=min(args["queries_per_client"], 10),
            adversary_keys=1 << 12,
            adversary_scan=100,
        )
    spec = sweep_spec(**args)
    result = COBCompareResult(
        models=tuple(args["models"]),
        node_sizes=tuple(args["node_sizes"]),
        threads=tuple(args["threads"]),
        n_entries=args["n_entries"],
        parallelism=args["parallelism"],
        adversary_keys=args["adversary_keys"],
        adversary_scan=args["adversary_scan"],
    )
    rows = iter(run_sweep(spec, jobs=jobs, cache=cache))
    sizes = result.node_sizes
    for model in result.models:
        for tree in KNOBBED_TREES:
            curve = list(islice(rows, len(sizes)))
            result.curves[(model, tree)] = NodeSizeResult.of_rows(tree, sizes, curve)
        for tree in KNOBLESS_TREES:
            curve = [next(rows)] * len(sizes)
            result.curves[(model, tree)] = NodeSizeResult.of_rows(tree, sizes, curve)
    for mode in THREAD_MODES:
        result.thread_throughput[mode] = [next(rows)["throughput"] for _ in result.threads]
    for tree in ADVERSARY_TREES:
        result.adversary[tree] = [
            (row["blocks"], row["bound"]) for row in islice(rows, len(ADVERSARY_JS))
        ]
    return result
