"""E21 — durability knobs across cost models: the WAL is a node-size problem.

Corollaries 6/7 say the optimal *node* size moves when the DAM's "every
IO costs one block" gives way to the affine ``1 + alpha*k`` charge.  The
same argument applies verbatim to the write path's group-commit batch:
a commit is one sequential write of ``k`` framed records, so

* under the **DAM** (constant latency ``L``) its per-op cost is ``L/k``;
* under the **affine** model it is ``s/k + t*frame`` — the setup ``s``
  amortizes, the bandwidth term does not;
* under the **PDAM** a whole batch usually fits one parallel step, so it
  prices like the DAM until the blob spans more than ``P`` blocks.

Against that saving stands the durability price of batching: a crash
loses the unacked tail of the current group — every op in it must be
resubmitted by its client, at a fixed SLO penalty per lost op — plus the
recovery downtime.  The objective per op is

    J(k) = run/op + rho * (recovery_seconds + exposure * loss_penalty)

with ``rho`` the crash rate per op and ``exposure`` the *measured* mean
number of unacked records over the run (``~(k-1)/2``).  Minimizing J
gives the classic ``k* ~ sqrt(2 * setup / (rho * loss_penalty))`` — and
because the affine setup ``s`` is much larger than the DAM's ``L``, the
affine-optimal batch is measurably larger than the DAM-optimal one,
while the PDAM (whose parallel step prices like the DAM until the blob
spans more than ``P`` blocks) agrees with the DAM.  The checkpoint
interval trades the same way against replay length.

Every point is a registered pure kernel (``durability_point``) and the
recovered contents are verified against the acked-prefix dict model
inside the kernel, so the sweep doubles as a crash-consistency gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.experiments import report
from repro.runner import ResultCache, SweepPoint, SweepSpec, register, run_sweep

DEFAULT_DEVICES = ("dam", "affine", "pdam")
DEFAULT_GROUP_COMMITS = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_CHECKPOINTS = (0, 100, 400)

#: DAM block latency (seconds); also the PDAM step time.
DAM_LATENCY = 1e-3

#: Crashes per op in the amortized objective — high enough that the loss
#: term bends J(k) back up inside the swept range.
DEFAULT_CRASH_RATE = 0.01

#: Client-side cost of one lost (unacked, must-resubmit) op, in seconds.
#: Deliberately device-independent: the retry round-trip is an SLO price,
#: which is what lets the commit *setup* cost drive the optimum apart.
DEFAULT_LOSS_PENALTY = 0.02

#: Where in the workload's IO stream the measured crash lands.
DEFAULT_CRASH_FRACTION = 0.6


def make_durability_device(device: str, *, node_bytes: int) -> Any:
    """One of the three cost-model devices the sweep compares."""
    if device == "dam":
        from repro.storage.ram import ConstantLatencyDevice

        return ConstantLatencyDevice(DAM_LATENCY)
    if device == "affine":
        from repro.experiments.devices import make_affine

        return make_affine("affine-lowalpha-sim")
    if device == "pdam":
        from repro.models.pdam import PDAMModel
        from repro.storage.ideal import PDAMDevice

        return PDAMDevice(PDAMModel(4, node_bytes, DAM_LATENCY))
    raise ConfigurationError(
        f"unknown device {device!r}; expected one of {DEFAULT_DEVICES}"
    )


# -- sweep kernel -------------------------------------------------------------


@register("durability_point")
def measure_durability(
    *,
    device: str,
    tree: str,
    group_commit: int,
    checkpoint_every: int,
    n_ops: int,
    n_load: int,
    universe: int,
    node_bytes: int,
    cache_bytes: int,
    wal_bytes: int,
    crash_rate: float,
    loss_penalty: float,
    crash_fraction: float,
    seed: int,
) -> dict[str, Any]:
    """One (device, group_commit, checkpoint_every) durability point.

    Two executions of the same seeded write-heavy workload: a crash-free
    run measures the durable write path's cost and the mean unacked
    exposure, then a fresh system runs into a crash at ``crash_fraction``
    of the first run's IO stream, recovers, and is verified against the
    acked-prefix dict model.
    """
    from repro.faults import CrashPlan, FaultPlan, FaultyDevice
    from repro.recovery import (
        DurableConfig,
        DurableTree,
        expected_contents,
        generate_workload,
    )

    config = DurableConfig(
        tree=tree,
        node_bytes=node_bytes,
        cache_bytes=cache_bytes,
        wal_bytes=wal_bytes,
        group_commit=group_commit,
        checkpoint_every=checkpoint_every,
    )
    load_pairs, ops = generate_workload(
        n_ops,
        universe=universe,
        seed=seed,
        n_load=n_load,
        put_weight=0.8,
        delete_weight=0.1,
    )
    n_writes = sum(1 for op, _, _ in ops if op != "g")

    def build() -> tuple[FaultyDevice, DurableTree]:
        inner = make_durability_device(device, node_bytes=node_bytes)
        fdev = FaultyDevice(inner, FaultPlan())
        durable = DurableTree(fdev, config)
        durable.load(list(load_pairs))
        return fdev, durable

    def run_ops(durable: DurableTree) -> int:
        """Apply the stream; returns the summed post-op unacked counts."""
        pending_sum = 0
        for op, key, value in ops:
            if op == "p":
                durable.put(key, value)
            elif op == "d":
                durable.delete(key)
            else:
                durable.get(key)
            if op != "g":
                pending_sum += durable.wal.pending_records
        durable.sync()
        return pending_sum

    # Crash-free run: the durable write path's cost at these knobs.
    fdev, durable = build()
    fdev.arm_crash(None)  # ordinals count from the start of traffic
    t0 = durable.io_seconds
    pending_sum = run_ops(durable)
    run_seconds = durable.io_seconds - t0
    total_io = fdev.io_ordinal
    wal_seconds = durable.wal.write_seconds
    commits = durable.wal.commits
    checkpoints = durable.checkpoints_taken
    run_per_op = run_seconds / n_writes
    # A crash at a uniformly random moment loses the unacked tail of the
    # current group; its expectation is the run's mean pending depth.
    exposure = pending_sum / n_writes

    # Crash run: same workload, crash mid-stream, recover, verify.
    from repro.errors import DeviceCrashed

    fdev, durable = build()
    crash_io = max(0, min(total_io - 1, int(crash_fraction * total_io)))
    fdev.arm_crash(CrashPlan(seed=seed ^ 0x9E3779B9, at_io=crash_io))
    lost_ops = 0
    recovery_seconds = 0.0
    replayed = 0
    recovered_ok = True
    try:
        run_ops(durable)
    except DeviceCrashed:
        acked = durable.wal.committed_lsn
        lost_ops = (durable.wal.next_lsn - 1) - acked
        rec = durable.recover()
        recovery_seconds = rec.recovery_seconds
        replayed = rec.replayed_records
        recovered_ok = durable.contents() == expected_contents(
            load_pairs, ops, acked
        )

    cost_per_op = run_per_op + crash_rate * (
        recovery_seconds + exposure * loss_penalty
    )
    return {
        "device": device,
        "tree": tree,
        "group_commit": group_commit,
        "checkpoint_every": checkpoint_every,
        "run_per_op_ms": run_per_op * 1e3,
        "wal_frac": wal_seconds / run_seconds if run_seconds else 0.0,
        "commits": commits,
        "checkpoints": checkpoints,
        "exposure": exposure,
        "lost_ops": lost_ops,
        "replayed": replayed,
        "recovery_ms": recovery_seconds * 1e3,
        "cost_per_op_ms": cost_per_op * 1e3,
        "recovered_ok": recovered_ok,
    }


# -- sweep + result ----------------------------------------------------------


@dataclass
class DurabilityResult:
    """One row per (device, group_commit, checkpoint_every)."""

    devices: tuple[str, ...]
    group_commits: tuple[int, ...]
    checkpoints: tuple[int, ...]
    crash_rate: float
    rows: list[dict[str, Any]] = field(default_factory=list)

    def argmin_batch(self, device: str, *, checkpoint_every: int = 0) -> int:
        """The J-minimizing group-commit batch for one device."""
        rows = [
            r
            for r in self.rows
            if r["device"] == device and r["checkpoint_every"] == checkpoint_every
        ]
        if not rows:
            raise ConfigurationError(f"no rows for device {device!r}")
        return min(rows, key=lambda r: r["cost_per_op_ms"])["group_commit"]

    def render(self) -> str:
        optima = ", ".join(
            f"{d}: k*={self.argmin_batch(d, checkpoint_every=self.checkpoints[0])}"
            for d in self.devices
        )
        return report.render_table(
            "E21: durability knobs vs cost model (group commit, checkpoints)",
            ["device", "k", "ckpt", "run/op ms", "wal%", "expos",
             "lost", "recov ms", "J(k) ms", "ok"],
            [
                [r["device"], r["group_commit"], r["checkpoint_every"],
                 f"{r['run_per_op_ms']:.3f}", f"{100 * r['wal_frac']:.0f}",
                 f"{r['exposure']:.1f}", r["lost_ops"],
                 f"{r['recovery_ms']:.2f}", f"{r['cost_per_op_ms']:.3f}",
                 "yes" if r["recovered_ok"] else "NO"]
                for r in self.rows
            ],
            note=(
                f"J(k) = run/op + {self.crash_rate:g} * (recovery + exposure"
                " * loss_penalty); cost-minimizing batches at ckpt="
                f"{self.checkpoints[0]}: {optima}.  The affine setup cost "
                "amortizes over the batch, so its optimum sits at larger k "
                "than the DAM's — Corollary 6/7 applied to the write path."
            ),
        )


def sweep_spec(
    *,
    devices: tuple[str, ...] = DEFAULT_DEVICES,
    group_commits: tuple[int, ...] = DEFAULT_GROUP_COMMITS,
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS,
    tree: str = "btree",
    n_ops: int = 600,
    n_load: int = 256,
    universe: int = 1 << 18,
    node_bytes: int = 4096,
    cache_bytes: int = 32 << 10,
    wal_bytes: int = 16 << 20,
    crash_rate: float = DEFAULT_CRASH_RATE,
    loss_penalty: float = DEFAULT_LOSS_PENALTY,
    crash_fraction: float = DEFAULT_CRASH_FRACTION,
    seed: int = 0,
) -> SweepSpec:
    """The E21 sweep: one kernel point per (device, batch, checkpoint)."""
    points = [
        SweepPoint.make(
            "durability_point",
            device=device,
            tree=tree,
            group_commit=int(k),
            checkpoint_every=int(ckpt),
            n_ops=n_ops,
            n_load=n_load,
            universe=universe,
            node_bytes=node_bytes,
            cache_bytes=cache_bytes,
            wal_bytes=wal_bytes,
            crash_rate=crash_rate,
            loss_penalty=loss_penalty,
            crash_fraction=crash_fraction,
            seed=seed,
        )
        for device in devices
        for ckpt in checkpoints
        for k in group_commits
    ]
    return SweepSpec.make("durability", points)


def run(
    *,
    devices: tuple[str, ...] = DEFAULT_DEVICES,
    group_commits: tuple[int, ...] | None = None,
    checkpoints: tuple[int, ...] | None = None,
    quick: bool = False,
    seed: int = 0,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> DurabilityResult:
    """Sweep group-commit batch x checkpoint interval x cost model.

    ``quick`` shrinks to CI-smoke size (a shorter workload and, for the
    axes left at ``None``, fewer batches and one checkpoint interval — an
    explicit choice survives it) but keeps all three devices: the
    model-dependent-optimum comparison is the point.
    """
    if group_commits is None:
        group_commits = (1, 4, 16, 64) if quick else DEFAULT_GROUP_COMMITS
    if checkpoints is None:
        checkpoints = (0,) if quick else DEFAULT_CHECKPOINTS
    sizes: dict[str, Any] = {}
    if quick:
        sizes = dict(n_ops=240, n_load=128)
    spec = sweep_spec(
        devices=tuple(devices),
        group_commits=tuple(group_commits),
        checkpoints=tuple(checkpoints),
        seed=seed,
        **sizes,
    )
    result = DurabilityResult(
        devices=tuple(devices),
        group_commits=tuple(group_commits),
        checkpoints=tuple(checkpoints),
        crash_rate=DEFAULT_CRASH_RATE,
    )
    result.rows.extend(run_sweep(spec, jobs=jobs, cache=cache))
    return result
