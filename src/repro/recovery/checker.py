"""Systematic crash-consistency checking: crash everywhere, verify always.

For one seeded mixed workload the checker:

1. does a **dry run** (no crash) to count the IO boundaries the workload
   crosses after load and warm-up;
2. for every boundary (exhaustive mode) or a seeded sample of them,
   rebuilds the whole system from scratch with a
   :class:`~repro.faults.crash.CrashPlan` armed at that boundary, runs
   the workload into the crash, recovers, and verifies

   * **tree invariants** — ``check_invariants()`` on the recovered tree;
   * **durability linearizability** — the recovered contents equal the
     dict model of exactly the *acked* op prefix (``lsn <=
     committed_lsn`` at crash time): every acked op survives, nothing
     unacked appears (no phantoms), and a fresh write works afterwards.

Workloads and crash points are pure functions of their seeds, so a
checker failure replays exactly — report the boundary ordinal and rerun
with ``at_io`` pinned to it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, DeviceCrashed
from repro.faults.crash import CrashPlan
from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultPlan
from repro.recovery.durable import DurableConfig, DurableTree
from repro.storage.ram import ConstantLatencyDevice
from repro.trees import check_kind

#: Checker modes.
CHECK_MODES = ("exhaustive", "sample")


@dataclass(frozen=True)
class CheckFailure:
    """One boundary where recovery broke its contract."""

    ordinal: int
    reason: str

    def describe(self) -> dict[str, Any]:
        """JSON-able summary."""
        return {"ordinal": self.ordinal, "reason": self.reason}


@dataclass
class CheckReport:
    """What one :func:`run_check` covered and found."""

    tree: str
    mode: str
    ops: int
    boundaries_total: int
    boundaries_tested: int
    crashes_fired: int
    replayed_records: int
    failures: list[CheckFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every tested boundary recovered correctly."""
        return not self.failures

    def describe(self) -> dict[str, Any]:
        """JSON-able summary."""
        return {
            "tree": self.tree,
            "mode": self.mode,
            "ops": self.ops,
            "boundaries_total": self.boundaries_total,
            "boundaries_tested": self.boundaries_tested,
            "crashes_fired": self.crashes_fired,
            "replayed_records": self.replayed_records,
            "failures": [f.describe() for f in self.failures],
            "passed": self.passed,
        }


def generate_workload(
    n_ops: int,
    *,
    universe: int = 1 << 16,
    seed: int = 0,
    n_load: int = 64,
    put_weight: float = 0.55,
    delete_weight: float = 0.15,
) -> tuple[list[tuple[int, Any]], list[tuple[str, int, Any]]]:
    """A seeded mixed workload: ``(load_pairs, ops)``.

    Ops are ``("p", key, value)``, ``("d", key, None)`` or ``("g", key,
    None)``; deletes always target a key present in the running model
    (every tree kind accepts them), and the stream is a pure function of
    the arguments.
    """
    if n_ops < 1:
        raise ConfigurationError(f"n_ops must be >= 1, got {n_ops}")
    if n_load < 0:
        raise ConfigurationError(f"n_load must be >= 0, got {n_load}")
    if universe < max(n_load, 2):
        raise ConfigurationError(f"universe {universe} too small")
    rng = np.random.default_rng(seed)
    load_keys = rng.choice(universe, size=n_load, replace=False) if n_load else []
    load_pairs = sorted((int(k), f"v{int(k)}") for k in load_keys)
    # The running model's keys, kept sorted as they change: a get or delete
    # picks the i-th smallest live key, so re-sorting per op would make the
    # stream quadratic in the live set.
    live = [k for k, _ in load_pairs]
    ops: list[tuple[str, int, Any]] = []
    counter = 0
    while len(ops) < n_ops:
        draw = float(rng.random())
        if draw < put_weight or not live:
            key = int(rng.integers(0, universe))
            counter += 1
            ops.append(("p", key, f"w{counter}"))
            i = bisect.bisect_left(live, key)
            if i == len(live) or live[i] != key:
                live.insert(i, key)
        elif draw < put_weight + delete_weight:
            ops.append(("d", live.pop(int(rng.integers(0, len(live)))), None))
        else:
            ops.append(("g", live[int(rng.integers(0, len(live)))], None))
    return load_pairs, ops


def _build(
    tree: str,
    config_kwargs: dict[str, Any],
    load_pairs: list[tuple[int, Any]],
    *,
    latency_seconds: float,
    capacity_bytes: int,
) -> tuple[FaultyDevice, DurableTree]:
    """One fresh (device, durable tree) pair, loaded but not yet armed."""
    inner = ConstantLatencyDevice(latency_seconds, capacity_bytes)
    device = FaultyDevice(inner, FaultPlan())
    durable = DurableTree(device, DurableConfig(tree=tree, **config_kwargs))
    durable.load(list(load_pairs))
    return device, durable


def _run_ops(durable: DurableTree, ops: list[tuple[str, int, Any]]) -> None:
    """Apply the op stream, ending with a sync (crashes propagate)."""
    for op, key, value in ops:
        if op == "p":
            durable.put(key, value)
        elif op == "d":
            durable.delete(key)
        else:
            durable.get(key)
    durable.sync()


def expected_contents(
    load_pairs: list[tuple[int, Any]],
    ops: list[tuple[str, int, Any]],
    acked_writes: int,
) -> dict[int, Any]:
    """The dict model restricted to the first ``acked_writes`` logged ops."""
    model = dict(load_pairs)
    applied = 0
    for op, key, value in ops:
        if op == "g":
            continue
        if applied >= acked_writes:
            break
        if op == "p":
            model[key] = value
        else:
            model.pop(key, None)
        applied += 1
    return model


def run_check(
    tree: str,
    *,
    n_ops: int = 80,
    n_load: int = 64,
    universe: int = 1 << 16,
    seed: int = 0,
    mode: str = "exhaustive",
    samples: int = 32,
    group_commit: int = 4,
    checkpoint_every: int = 0,
    node_bytes: int = 4096,
    cache_bytes: int = 32 << 10,
    wal_bytes: int = 8 << 20,
    ckpt_bytes: int = 16 << 20,
    latency_seconds: float = 1e-4,
    capacity_bytes: int = 2 << 30,
) -> CheckReport:
    """Crash one workload at every (or a sampled set of) IO boundaries.

    ``mode="exhaustive"`` tests every boundary the dry run counted;
    ``mode="sample"`` tests ``samples`` of them, drawn without
    replacement from a stream seeded by ``seed`` — cheap enough for CI,
    and any failure it finds replays exhaustively.
    """
    check_kind(tree)
    if mode not in CHECK_MODES:
        raise ConfigurationError(
            f"unknown mode {mode!r}; expected one of {CHECK_MODES}"
        )
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    config_kwargs = dict(
        node_bytes=node_bytes,
        cache_bytes=cache_bytes,
        wal_bytes=wal_bytes,
        group_commit=group_commit,
        checkpoint_every=checkpoint_every,
        ckpt_bytes=ckpt_bytes,
    )
    load_pairs, ops = generate_workload(
        n_ops, universe=universe, seed=seed, n_load=n_load
    )

    # Dry run: how many IO boundaries does the workload cross?
    device, durable = _build(
        tree,
        config_kwargs,
        load_pairs,
        latency_seconds=latency_seconds,
        capacity_bytes=capacity_bytes,
    )
    device.arm_crash(None)  # ordinal 0 = first post-load IO
    _run_ops(durable, ops)
    total = device.io_ordinal
    final_model = expected_contents(load_pairs, ops, n_ops + 1)
    if durable.contents() != final_model:
        raise ConfigurationError(
            "dry run does not match the dict model; the workload generator "
            "and the tree disagree before any crash is injected"
        )

    if mode == "exhaustive":
        boundaries = list(range(total))
    else:
        k = min(samples, total)
        picks = np.random.default_rng(seed + 1).choice(total, size=k, replace=False)
        boundaries = sorted(int(b) for b in picks)

    report = CheckReport(
        tree=tree,
        mode=mode,
        ops=n_ops,
        boundaries_total=total,
        boundaries_tested=len(boundaries),
        crashes_fired=0,
        replayed_records=0,
    )
    for ordinal in boundaries:
        failure = _check_one(
            tree,
            config_kwargs,
            load_pairs,
            ops,
            ordinal,
            seed=seed,
            latency_seconds=latency_seconds,
            capacity_bytes=capacity_bytes,
            report=report,
        )
        if failure is not None:
            report.failures.append(failure)
    return report


def _check_one(
    tree: str,
    config_kwargs: dict[str, Any],
    load_pairs: list[tuple[int, Any]],
    ops: list[tuple[str, int, Any]],
    ordinal: int,
    *,
    seed: int,
    latency_seconds: float,
    capacity_bytes: int,
    report: CheckReport,
) -> CheckFailure | None:
    """Crash at one boundary; recover; verify the durability contract."""
    device, durable = _build(
        tree,
        config_kwargs,
        load_pairs,
        latency_seconds=latency_seconds,
        capacity_bytes=capacity_bytes,
    )
    device.arm_crash(CrashPlan(seed=seed ^ (ordinal * 2654435761), at_io=ordinal))
    try:
        _run_ops(durable, ops)
        return CheckFailure(ordinal, "armed crash never fired during the workload")
    except DeviceCrashed:
        pass
    report.crashes_fired += 1
    # LSNs start at 1 on the first workload write (the load is not
    # logged), so committed_lsn IS the count of acked write ops.
    acked = durable.wal.committed_lsn
    rec = durable.recover()
    report.replayed_records += rec.replayed_records
    try:
        durable.check_invariants()
    # Not swallowed: the exception becomes a reported CheckFailure.
    except Exception as exc:
        return CheckFailure(ordinal, f"invariants broken after recovery: {exc}")
    expected = expected_contents(load_pairs, ops, acked)
    got = durable.contents()
    if got != expected:
        lost = sorted(set(expected) - set(got))[:5]
        phantom = sorted(set(got) - set(expected))[:5]
        changed = sorted(
            k for k in set(got) & set(expected) if got[k] != expected[k]
        )[:5]
        return CheckFailure(
            ordinal,
            f"contents diverge from the acked prefix ({acked} acked): "
            f"lost={lost} phantom={phantom} changed={changed}",
        )
    # The recovered tree must also be writable: one fresh durable put.
    probe_key = int(max(expected, default=0)) + 1
    durable.put(probe_key, "probe")
    durable.sync()
    if durable.get(probe_key) != "probe":
        return CheckFailure(ordinal, "post-recovery write not readable")
    return None
