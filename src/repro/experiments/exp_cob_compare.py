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
from typing import Any

from repro.errors import ConfigurationError
from repro.experiments import report
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


def make_model_device(model: str, *, parallelism: int):
    """A device whose timing *is* the named cost model."""
    if model == "affine":
        from repro.models.affine import AffineModel
        from repro.storage.ideal import AffineDevice

        return AffineDevice(
            AffineModel.from_hardware(SETUP_SECONDS, SECONDS_PER_BYTE)
        )
    if model in ("dam", "pdam"):
        from repro.models.pdam import PDAMModel
        from repro.storage.ideal import PDAMDevice

        p = 1 if model == "dam" else parallelism
        return PDAMDevice(
            PDAMModel(
                parallelism=p,
                block_bytes=MODEL_BLOCK_BYTES,
                step_seconds=SETUP_SECONDS,
            )
        )
    raise ConfigurationError(f"unknown cost model {model!r}")


@register("cob_compare_point")
def measure_point(
    *,
    tree: str,
    model: str,
    node_bytes: int,
    n_entries: int,
    universe: int,
    n_queries: int,
    n_inserts: int,
    warmup_queries: int,
    parallelism: int,
    cache_bytes: int,
    seed: int,
) -> dict[str, float]:
    """Load one tree on one model device; measure query and insert ms/op.

    A pure function of its arguments (the sweep-kernel contract): the
    ideal devices are noise-free and every stream is derived from
    ``seed`` with the same offsets as
    :func:`repro.experiments.common.measure_tree_ops`.
    """
    from repro.experiments.common import build_load
    from repro.workloads.generators import insert_stream, point_query_stream

    device = make_model_device(model, parallelism=parallelism)
    pairs, keys = build_load(n_entries, universe, seed=seed)
    instance = _build_and_load(tree, device, node_bytes, cache_bytes, pairs, seed)

    for key in point_query_stream(keys, warmup_queries, seed=seed + 1):
        instance.get(key)

    t0 = device.clock
    instance.lookup_many(list(point_query_stream(keys, n_queries, seed=seed + 2)))
    query_per_op = (device.clock - t0) / n_queries

    t0 = device.clock
    instance.put_many(insert_stream(universe, n_inserts, seed=seed + 3))
    instance.settle()  # deferred write-backs belong to the insert phase
    insert_per_op = (device.clock - t0) / n_inserts

    return {
        "query_ms": query_per_op * 1e3,
        "insert_ms": insert_per_op * 1e3,
    }


def _build_and_load(tree, device, node_bytes, cache_bytes, pairs, seed):
    """Build one tree of kind ``tree``, load it and start it cold."""
    from repro.trees import build
    from repro.trees.sizing import EntryFormat

    instance = build(
        tree,
        device,
        node_bytes=node_bytes,
        cache_bytes=cache_bytes,
        fmt=EntryFormat(value_bytes=20),
    )
    instance.load(pairs)
    instance.drop_cache()
    if tree == "cob-buffered":
        # Reach buffer steady state before measuring, the exact
        # analogue of the Bε-tree kernel's root-buffer prefill.
        from repro.workloads.generators import insert_stream

        config = instance.config
        capacity = config.fanout * config.buffer_bytes // config.fmt.message_bytes
        prefill = min(len(pairs), capacity // 2)
        universe = max(k for k, _ in pairs) + 1 if pairs else 1 << 20
        instance.put_many(insert_stream(universe, prefill, seed=seed + 7))
    return instance


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

    from repro.models.pdam import PDAMModel
    from repro.storage.ideal import PDAMDevice
    from repro.trees.btree.veb import PDAMQuerySimulator, StaticSearchTree

    keys = np.arange(1, n_keys + 1, dtype=np.int64) * 3
    tree = StaticSearchTree(keys)
    device = PDAMDevice(
        PDAMModel(parallelism=parallelism, block_bytes=block_bytes)
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
    from repro.storage.ram import NullDevice
    from repro.trees import build
    from repro.trees.sizing import EntryFormat

    instance = build(
        tree,
        NullDevice(capacity_bytes=1 << 32, trace=True),
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
    #: ``(model, tree) -> one value per node size`` (knobless trees hold
    #: their single measurement replicated across the axis).
    query_ms: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    insert_ms: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    #: ``layout mode -> queries per PDAM step`` at each thread count.
    thread_throughput: dict[str, list[float]] = field(default_factory=dict)
    adversary_keys: int = 0
    adversary_scan: int = 0
    #: ``tree -> (blocks read, bound)`` for each ``j`` of the scan adversary.
    adversary: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    # -- summary accessors (what the tests and the note assert) -----------

    def best_node(self, model: str, tree: str, series: str = "query") -> int:
        """Node size minimizing a knobbed tree's cost under ``model``."""
        values = (self.query_ms if series == "query" else self.insert_ms)[
            (model, tree)
        ]
        return self.node_sizes[min(range(len(values)), key=values.__getitem__)]

    def sensitivity(self, model: str, tree: str, series: str = "query") -> float:
        """max/min across the node-size axis (1.0 = perfectly flat)."""
        values = (self.query_ms if series == "query" else self.insert_ms)[
            (model, tree)
        ]
        return max(values) / min(values)

    def query_vs_best_tuned(self, model: str, tree: str) -> float:
        """A knobless tree's query cost over the best-tuned B-tree's."""
        best_btree = min(self.query_ms[(model, "btree")])
        return self.query_ms[(model, tree)][0] / best_btree

    def insert_vs_best_tuned_betree(self, model: str, tree: str) -> float:
        """A knobless tree's insert cost over the best-tuned Bε-tree's."""
        best = min(self.insert_ms[(model, "betree")])
        return self.insert_ms[(model, tree)][0] / best

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
                series[f"{tree} q"] = self.query_ms[(model, tree)]
                series[f"{tree} i"] = self.insert_ms[(model, tree)]
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
            model: report.format_bytes(self.best_node(model, "btree"))
            for model in self.models
        }
        blocks.append(
            "Best B-tree node size per model: "
            + ", ".join(f"{m}={b}" for m, b in best.items())
            + f"; cob query sensitivity across the axis: "
            f"{self.sensitivity('affine', 'cob'):.3g}x (no knob)."
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
                tree: self.query_ms[("affine", tree)]
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
        for tree in KNOBBED_TREES:
            for node_bytes in node_sizes:
                points.append(
                    SweepPoint.make(
                        "cob_compare_point",
                        tree=tree,
                        model=model,
                        node_bytes=node_bytes,
                        n_entries=n_entries,
                        universe=universe,
                        n_queries=n_queries,
                        n_inserts=n_inserts,
                        warmup_queries=warmup_queries,
                        parallelism=parallelism,
                        cache_bytes=cache_bytes,
                        seed=seed,
                    )
                )
        for tree in KNOBLESS_TREES:
            points.append(
                SweepPoint.make(
                    "cob_compare_point",
                    tree=tree,
                    model=model,
                    node_bytes=MODEL_BLOCK_BYTES,  # pricing block; no knob
                    n_entries=n_entries,
                    universe=universe,
                    n_queries=n_queries,
                    n_inserts=n_inserts,
                    warmup_queries=warmup_queries,
                    parallelism=parallelism,
                    cache_bytes=cache_bytes,
                    seed=seed,
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
    seed: int = 0,
    quick: bool = False,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> COBCompareResult:
    """Run E20; ``quick`` shrinks it to CI-smoke size."""
    adversary_keys, adversary_scan = (1 << 12, 100) if quick else (1 << 15, 1000)
    if quick:
        n_entries = min(n_entries, 12_000)
        n_inserts = min(n_inserts, 500)
        n_queries = min(n_queries, 100)
        cache_bytes = min(cache_bytes, 48 << 10)
        node_sizes = tuple(node_sizes)[:3]
        threads = tuple(t for t in threads if t <= 4) or (1,)
        thread_keys = min(thread_keys, 1 << 12)
        queries_per_client = min(queries_per_client, 10)
    spec = sweep_spec(
        models=tuple(models),
        node_sizes=tuple(node_sizes),
        threads=tuple(threads),
        n_entries=n_entries,
        universe=universe,
        n_queries=n_queries,
        n_inserts=n_inserts,
        warmup_queries=warmup_queries,
        parallelism=parallelism,
        cache_bytes=cache_bytes,
        thread_keys=thread_keys,
        queries_per_client=queries_per_client,
        adversary_keys=adversary_keys,
        adversary_scan=adversary_scan,
        seed=seed,
    )
    result = COBCompareResult(
        models=tuple(models),
        node_sizes=tuple(node_sizes),
        threads=tuple(threads),
        n_entries=n_entries,
        parallelism=parallelism,
        adversary_keys=adversary_keys,
        adversary_scan=adversary_scan,
    )
    rows: list[dict[str, Any]] = list(run_sweep(spec, jobs=jobs, cache=cache))
    i = 0
    for model in result.models:
        for tree in KNOBBED_TREES:
            q, ins = [], []
            for _ in result.node_sizes:
                q.append(rows[i]["query_ms"])
                ins.append(rows[i]["insert_ms"])
                i += 1
            result.query_ms[(model, tree)] = q
            result.insert_ms[(model, tree)] = ins
        for tree in KNOBLESS_TREES:
            row = rows[i]
            i += 1
            n = len(result.node_sizes)
            result.query_ms[(model, tree)] = [row["query_ms"]] * n
            result.insert_ms[(model, tree)] = [row["insert_ms"]] * n
    for mode in THREAD_MODES:
        series = []
        for _ in result.threads:
            series.append(rows[i]["throughput"])
            i += 1
        result.thread_throughput[mode] = series
    for tree in ADVERSARY_TREES:
        result.adversary[tree] = [
            (row["blocks"], row["bound"]) for row in rows[i : i + len(ADVERSARY_JS)]
        ]
        i += len(ADVERSARY_JS)
    return result
