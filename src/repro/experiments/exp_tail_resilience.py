"""E18 — tail latency and throughput under injected faults (repro.faults).

The paper's refined models price *time*; real devices also *misbehave* —
latency spikes, transient errors, stalled flash channels.  This
experiment asks whether the model-driven resilience moves survive
contact with a faulty device:

* **Trees on a faulty HDD** — B-tree and Bε-tree point queries under a
  fault plan swept across intensities, once per policy
  (``none``/``retry``/``hedge``).  The interesting number is the
  p99-vs-mean gap: heavy-tailed spikes barely move the mean but blow up
  the tail, and hedging converts the tail to a min-of-two draw.
* **PDAM channel stalls** — a :class:`ReadAheadScheduler` driving ``k``
  closed-loop clients on a ``P``-way PDAM device whose channels stall at
  random.  A hedging policy spends the ``P - k`` spare slots per step on
  duplicates of stalled demands — the same unused-slot budget read-ahead
  uses (PAPER.md Definition 1: unused slots are wasted anyway) — and
  should recover most of the fault-free throughput.

Both parts draw every fault from the plan's own seeded RNG stream, so
``intensity=0`` (or ``--policy none`` on a zero plan) reproduces the
fault-free numbers exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, TransientIOError
from repro.experiments import report
from repro.faults import FaultPlan, FaultyDevice, ResiliencePolicy
from repro.runner import ResultCache, SweepPoint, SweepSpec, register, run_sweep

DEFAULT_INTENSITIES = (0.0, 0.5, 1.0)
DEFAULT_POLICIES = ("none", "retry", "hedge")
DEFAULT_TREES = ("btree", "betree")

#: The stock E18 fault plan (overridable via ``--faults PLAN.json``):
#: 4% of IOs spike by >= 25ms with a heavy Pareto tail, 1% fail
#: transiently, and 6% of PDAM channels stall per step for up to 6 steps.
DEFAULT_PLAN = FaultPlan(
    seed=1307,
    spike_prob=0.04,
    spike_seconds=25e-3,
    spike_alpha=1.2,
    error_prob=0.01,
    stall_prob=0.06,
    stall_steps=6,
)

#: Hedge deadline for the HDD trees: ~2x a typical random read, so only
#: genuinely spiked IOs hedge.
TREE_HEDGE_DEADLINE = 30e-3


def policy_for(name: str, *, hedge_deadline_seconds: float) -> ResiliencePolicy:
    """The stock policy behind one ``--policy`` spelling."""
    if name == "none":
        return ResiliencePolicy.none()
    if name == "retry":
        return ResiliencePolicy.retry()
    if name == "hedge":
        return ResiliencePolicy.hedged(hedge_deadline_seconds)
    raise ConfigurationError(f"unknown policy {name!r}; expected one of "
                             f"{DEFAULT_POLICIES}")


# -- sweep kernels ------------------------------------------------------------


@register("tail_resilience_tree")
def measure_tree(
    *,
    tree: str,
    plan_json: str,
    intensity: float,
    policy: str,
    n_entries: int,
    cache_bytes: int,
    universe: int,
    n_queries: int,
    warmup_queries: int,
    seed: int,
) -> dict[str, Any]:
    """Per-query latency distribution of one tree under one (plan, policy).

    The tree is loaded against a *zero* plan (loading through injected
    write errors under ``--policy none`` would abort the build, which is
    not the phenomenon under study), then the scaled plan is armed for
    warm-up and measurement.  Queries that exhaust the retry budget count
    as ``failed`` and are excluded from the latency percentiles.
    """
    from repro.experiments.common import build_load
    from repro.experiments.devices import default_hdd
    from repro.trees import build
    from repro.workloads.generators import point_query_stream

    base = FaultPlan.from_json(plan_json)
    armed = base.scaled(intensity)
    pol = policy_for(policy, hedge_deadline_seconds=TREE_HEDGE_DEADLINE)

    pairs, keys = build_load(n_entries, universe, seed=seed)
    device = FaultyDevice(default_hdd(seed=seed), FaultPlan(seed=base.seed), policy=pol)
    t = build(tree, device, cache_bytes=cache_bytes)  # each kind's default node size
    t.load(pairs)
    t.drop_cache()
    device.plan = armed  # faults apply to warm-up and measurement only

    for key in point_query_stream(keys, warmup_queries, seed=seed + 1):
        try:
            t.get(key)
        except TransientIOError:
            pass
    t.reset_cache_stats()

    latencies: list[float] = []
    failed = 0
    for key in point_query_stream(keys, n_queries, seed=seed + 2):
        t0 = t.io_seconds
        try:
            t.get(key)
        except TransientIOError:
            failed += 1
            continue
        latencies.append(t.io_seconds - t0)

    arr = np.asarray(latencies) if latencies else np.zeros(1)
    fs = device.fault_stats
    return {
        "tree": tree,
        "intensity": intensity,
        "policy": policy,
        "mean_ms": float(arr.mean()) * 1e3,
        "p50_ms": float(np.percentile(arr, 50)) * 1e3,
        "p99_ms": float(np.percentile(arr, 99)) * 1e3,
        "max_ms": float(arr.max()) * 1e3,
        "failed": failed,
        "retries": fs.retries,
        "hedges_issued": fs.hedges_issued,
        "hedge_wins": fs.hedge_wins,
    }


@register("tail_resilience_pdam")
def measure_pdam(
    *,
    plan_json: str,
    intensity: float,
    policy: str,
    parallelism: int,
    clients: int,
    n_rounds: int,
    seed: int,
) -> dict[str, Any]:
    """Closed-loop PDAM throughput under channel stalls, one (plan, policy).

    ``clients`` clients each demand one random block per step; with
    ``clients < parallelism`` the spare slots are the hedging budget.
    Fault-free this costs exactly one step per round, so throughput is
    ``clients`` demands/step and ``recovered`` is 1.0 by construction.
    """
    from repro.models.pdam import PDAMModel
    from repro.storage.ideal import PDAMDevice
    from repro.storage.scheduler import ReadAheadScheduler

    if not 0 < clients <= parallelism:
        raise ConfigurationError(
            f"need 0 < clients <= parallelism, got {clients} vs {parallelism}"
        )
    base = FaultPlan.from_json(plan_json)
    armed = base.scaled(intensity)
    model = PDAMModel(parallelism, 4096, step_seconds=1e-3)
    device = PDAMDevice(model, capacity_bytes=1 << 30)
    pol = policy_for(policy, hedge_deadline_seconds=1.5 * model.step_seconds)
    sched = ReadAheadScheduler(
        device, expand_readahead=False, fault_plan=armed, policy=pol
    )
    rng = np.random.default_rng(seed + 11)
    max_block = device.capacity_bytes // model.block_bytes
    for _ in range(n_rounds):
        blocks = rng.integers(0, max_block, size=clients)
        for c in range(clients):
            sched.submit(c, int(blocks[c]))
        sched.step()
    demands = n_rounds * clients
    throughput = demands / device.steps_elapsed  # demands per PDAM step
    fs = sched.fault_stats
    return {
        "intensity": intensity,
        "policy": policy,
        "throughput": throughput,
        "recovered": throughput / clients,
        "stalls": fs.stalls_injected,
        "hedges_issued": fs.hedges_issued,
        "hedge_wins": fs.hedge_wins,
    }


# -- sweep + result ----------------------------------------------------------


@dataclass
class TailResilienceResult:
    """Latency rows (trees on a faulty HDD) + throughput rows (PDAM stalls)."""

    intensities: tuple[float, ...]
    policies: tuple[str, ...]
    trees: tuple[str, ...]
    plan: dict[str, Any]
    tree_rows: list[dict[str, Any]] = field(default_factory=list)
    pdam_rows: list[dict[str, Any]] = field(default_factory=list)

    def render(self) -> str:
        blocks = []
        if self.tree_rows:
            blocks.append(
                report.render_table(
                    "E18a: per-query latency under injected faults (simulated HDD)",
                    ["tree", "intensity", "policy", "mean ms", "p50 ms",
                     "p99 ms", "max ms", "failed", "retries", "hedge wins"],
                    [
                        [r["tree"], r["intensity"], r["policy"],
                         f"{r['mean_ms']:.2f}", f"{r['p50_ms']:.2f}",
                         f"{r['p99_ms']:.2f}", f"{r['max_ms']:.2f}",
                         r["failed"], r["retries"], r["hedge_wins"]]
                        for r in self.tree_rows
                    ],
                    note=(
                        "Heavy-tailed spikes widen the p99-vs-mean gap; 'retry' "
                        "eliminates failed ops, 'hedge' additionally caps the "
                        "tail at min-of-two draws.  intensity=0 rows are the "
                        "fault-free baseline."
                    ),
                )
            )
        if self.pdam_rows:
            blocks.append(
                report.render_table(
                    "E18b: PDAM closed-loop throughput under channel stalls",
                    ["intensity", "policy", "demands/step", "vs fault-free",
                     "stalls", "hedges", "hedge wins"],
                    [
                        [r["intensity"], r["policy"], f"{r['throughput']:.3f}",
                         f"{r['recovered']:.0%}", r["stalls"],
                         r["hedges_issued"], r["hedge_wins"]]
                        for r in self.pdam_rows
                    ],
                    note=(
                        "Hedging spends the step's spare slots (Definition 1: "
                        "wasted otherwise) on duplicates of stalled demands, "
                        "recovering most of the fault-free throughput."
                    ),
                )
            )
        return "\n\n".join(blocks)


def sweep_spec(
    *,
    plan: FaultPlan = DEFAULT_PLAN,
    intensities: tuple[float, ...] = DEFAULT_INTENSITIES,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    trees: tuple[str, ...] = DEFAULT_TREES,
    n_entries: int = 150_000,
    cache_bytes: int = 2 << 20,
    universe: int = 1 << 31,
    n_queries: int = 400,
    warmup_queries: int = 100,
    parallelism: int = 16,
    clients: int = 8,
    n_rounds: int = 3000,
    seed: int = 0,
) -> SweepSpec:
    """The E18 sweep: (tree x intensity x policy) + (intensity x policy)."""
    plan_json = plan.to_json()
    points = [
        SweepPoint.make(
            "tail_resilience_tree",
            tree=tree,
            plan_json=plan_json,
            intensity=float(intensity),
            policy=policy,
            n_entries=n_entries,
            cache_bytes=cache_bytes,
            universe=universe,
            n_queries=n_queries,
            warmup_queries=warmup_queries,
            seed=seed,
        )
        for tree in trees
        for intensity in intensities
        for policy in policies
    ]
    points += [
        SweepPoint.make(
            "tail_resilience_pdam",
            plan_json=plan_json,
            intensity=float(intensity),
            policy=policy,
            parallelism=parallelism,
            clients=clients,
            n_rounds=n_rounds,
            seed=seed,
        )
        for intensity in intensities
        for policy in policies
    ]
    return SweepSpec.make("tail_resilience", points)


def run(
    *,
    plan: FaultPlan | None = None,
    intensities: tuple[float, ...] = DEFAULT_INTENSITIES,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    trees: tuple[str, ...] = DEFAULT_TREES,
    quick: bool = False,
    seed: int = 0,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> TailResilienceResult:
    """Sweep fault intensity x policy over trees and the PDAM scheduler.

    ``quick`` shrinks every dimension to CI-smoke size (same code paths,
    ~seconds of wall clock).
    """
    plan = plan if plan is not None else DEFAULT_PLAN
    sizes: dict[str, Any] = {}
    if quick:
        sizes = dict(
            n_entries=30_000,
            cache_bytes=512 << 10,
            n_queries=120,
            warmup_queries=40,
            n_rounds=600,
        )
    spec = sweep_spec(
        plan=plan,
        intensities=tuple(intensities),
        policies=tuple(policies),
        trees=tuple(trees),
        seed=seed,
        **sizes,
    )
    result = TailResilienceResult(
        intensities=tuple(intensities),
        policies=tuple(policies),
        trees=tuple(trees),
        plan=plan.describe(),
    )
    for row in run_sweep(spec, jobs=jobs, cache=cache):
        if "tree" in row:
            result.tree_rows.append(row)
        else:
            result.pdam_rows.append(row)
    return result
