"""durable_e21 — closed loop, one client: the durable write path and a crash.

Each iteration, for ``btree`` and for ``lsm``: a fresh ``DurableTree`` on
the E20 affine model device (behind a zero-fault ``FaultyDevice``), load
2 000 pairs, then 20 000 puts/deletes with ``group_commit=16`` and
``checkpoint_every=400`` (the flush policy, fixed).  In the middle of the
checkpoint interval that holds the 60 % mark of the stream (so there is a
log suffix to replay) a ``CrashPlan`` is armed and the next device IO dies
mid-write; then
``recover()``, the acked-prefix / no-phantom check, the rest of the stream
(resubmitting what the crash lost) and ``sync()``.  op = one put/delete.
"""

from __future__ import annotations

from time import perf_counter

from perfbench.harness import Run, derive_seed
from perfbench.layers import adopt_device, adopt_tree
from repro.errors import DeviceCrashed
from repro.experiments.exp_cob_compare import make_model_device
from repro.faults import CrashPlan, FaultPlan, FaultyDevice
from repro.recovery import DurableConfig, DurableTree
from repro.trees.sizing import EntryFormat

KINDS = ("btree", "lsm")
N_LOAD, N_OPS = 2_000, 20_000
UNIVERSE = 1 << 24
PUT_SHARE = 0.85
CRASH_AT = 0.6
CONFIG = dict(
    node_bytes=4096, cache_bytes=64 << 10, wal_bytes=16 << 20,
    group_commit=16, checkpoint_every=400,
)
ENTRY_BYTES = EntryFormat().entry_bytes  # DurableTree's trees use the default format


def apply(model: dict[int, int], ops: list[tuple[int, int | None]]) -> dict[int, int]:
    """The dict model after ``ops`` (``value is None`` deletes)."""
    for key, value in ops:
        if value is None:
            model.pop(key, None)
        else:
            model[key] = value
    return model


class DurableE21:
    name = "durable_e21"

    def __init__(self, run: Run) -> None:
        self.run = run
        self.totals = dict.fromkeys(
            ("ops", "written", "allocated", "live", "wal_s", "checkpoints", "checkpoint_s",
             "recovery_s", "replayed", "log_bytes"),
            0.0,
        )
        #: kind -> [mutations, sim seconds, device bytes written]
        self.puts = {kind: [0, 0.0, 0] for kind in KINDS}

    def setup(self) -> None:
        # Warm-up: a third of an iteration, so set-up time is mostly the
        # same interpreter work the timed region does.
        self.prepare("warm", shrink=3)
        self.iteration("warm")

    def prepare(self, i, shrink: int = 1) -> None:
        run = self.run
        rng = run.rng("durable_e21", i)
        n_load = max(64, run.sized(N_LOAD) // shrink)
        n_ops = max(256, run.sized(N_OPS) // shrink)
        load = rng.choice(UNIVERSE, size=n_load, replace=False).tolist()
        self.load = sorted((key, -key) for key in load)
        live = list(load)
        present = set(load)
        draws = rng.random(n_ops).tolist()
        keys = rng.integers(0, UNIVERSE, size=n_ops).tolist()
        self.ops: list[tuple[int, int | None]] = []
        for serial, (draw, key) in enumerate(zip(draws, keys), start=1):
            if draw < PUT_SHARE or not live:
                if key not in present:
                    present.add(key)
                    live.append(key)
                self.ops.append((key, serial))
            else:
                # Delete a live key (every tree kind accepts that); the
                # swap-pop keeps the choice O(1) and seeded.
                at = key % len(live)
                live[at], live[-1] = live[-1], live[at]
                victim = live.pop()
                present.discard(victim)
                self.ops.append((victim, None))

    def _build(self, kind: str) -> tuple[FaultyDevice, DurableTree]:
        run = self.run
        device = FaultyDevice(make_model_device("affine", parallelism=1), FaultPlan())
        adopt_device(run, device)
        durable = DurableTree(device, DurableConfig(tree=kind, **CONFIG))
        adopt_tree(run, kind, durable.tree)
        if run.tracer is not None:
            run.tracer.wrap(
                durable, "recovery.durable",
                ("put", "delete", "load", "checkpoint", "recover", "sync", "contents"),
            )
            run.tracer.wrap(
                durable.wal, "recovery.wal", ("append", "commit", "truncate", "recover")
            )
            traced_commit = durable.wal.commit

            def commit() -> None:
                before = device.stats.bytes_written
                try:
                    traced_commit()
                finally:
                    if run.recording:
                        self.totals["log_bytes"] += device.stats.bytes_written - before

            durable.wal.commit = commit
        return device, durable

    @staticmethod
    def _drive(durable: DurableTree, device: FaultyDevice, ops, latencies: list[float]) -> None:
        put, delete, stats = durable.put, durable.delete, device.stats
        sample = latencies.append
        busy = stats.busy_seconds
        for key, value in ops:
            if value is None:
                delete(key)
            else:
                put(key, value)
            now = stats.busy_seconds
            sample(now - busy)
            busy = now

    def iteration(self, i) -> tuple[int, float]:
        run = self.run
        ops = self.ops
        interval = CONFIG["checkpoint_every"]
        crash_index = int(CRASH_AT * len(ops)) // interval * interval + interval // 2
        wall = 0.0
        for kind in KINDS:
            device, durable = self._build(kind)
            latencies: list[float] = []
            start = perf_counter()
            durable.load(self.load)
            loaded_busy = device.stats.busy_seconds
            loaded_written = device.stats.bytes_written
            self._drive(durable, device, ops[:crash_index], latencies)
            device.arm_crash(CrashPlan(seed=derive_seed(run.seed, "crash", i, kind), at_io=0))
            crashed = False
            try:
                self._drive(durable, device, ops[crash_index:], latencies)
            except DeviceCrashed:
                crashed = True
            acked = durable.wal.committed_lsn
            report = durable.recover()
            wall += perf_counter() - start

            # Acked prefix, no phantoms: exactly the ops with LSN <= acked.
            adopt_tree(run, kind, durable.tree)  # recover() rebuilt it
            want = apply(dict(self.load), ops[:acked])
            run.expect(crashed, f"{kind}: the armed crash never fired")
            run.expect(
                durable.contents() == want,
                f"{kind}: recovered contents differ from the acked prefix (lsn {acked})",
            )
            del latencies[acked:]  # lost ops are sampled when resubmitted

            start = perf_counter()
            self._drive(durable, device, ops[acked:], latencies)
            durable.sync()
            wall += perf_counter() - start

            run.expect(
                durable.contents() == apply(want, ops[acked:])
                and durable.acked(durable.wal.next_lsn - 1),
                f"{kind}: final contents differ from the model, or the tail is unacked",
                n_ops=len(ops),
            )
            sim = sum(latencies) + report.recovery_seconds
            written = device.stats.bytes_written - loaded_written
            run.record(sim, len(ops), latencies)
            run.digest(kind, latencies, acked, report.recovery_seconds, report.replayed_records,
                       durable.checkpoints_taken, written, device.stats.busy_seconds - loaded_busy)
            if run.recording:
                allocator = (durable.stack or durable.tree).allocator
                totals = self.totals
                totals["ops"] += len(ops)
                totals["written"] += written
                totals["allocated"] += allocator.used_bytes
                totals["live"] += len(want) * ENTRY_BYTES
                totals["wal_s"] += durable.wal.write_seconds
                totals["checkpoints"] += durable.checkpoints_taken
                totals["checkpoint_s"] += durable.checkpoint_seconds
                totals["recovery_s"] += report.recovery_seconds
                totals["replayed"] += durable.replayed_records
                acc = self.puts[kind]
                acc[0] += len(ops)
                acc[1] += sim
                acc[2] += written
        return len(ops) * len(KINDS), wall

    def snapshot(self) -> None:
        stats, totals = self.run.stats, self.totals
        user_bytes = totals["ops"] * ENTRY_BYTES
        stats["sim.write_amp"] = totals["written"] / user_bytes
        stats["sim.space_amp"] = totals["allocated"] / totals["live"]
        for kind, (n, sim, written) in self.puts.items():
            stats[f"trees.{kind}.sim_ms_per_put"] = sim / n * 1e3
            stats[f"trees.{kind}.write_amp"] = written / (n * ENTRY_BYTES)
        stats["recovery.wal.sim_wal_s"] = totals["wal_s"]
        stats["recovery.durable.checkpoints"] = totals["checkpoints"]
        stats["recovery.durable.sim_checkpoint_s"] = totals["checkpoint_s"]
        stats["recovery.durable.sim_recovery_s"] = totals["recovery_s"]
        stats["recovery.durable.replayed_records"] = totals["replayed"]
        if self.run.tracer is not None:
            stats["recovery.wal.log_bytes_per_user_byte"] = totals["log_bytes"] / user_bytes
        self.run.notes.append(
            "flush policy: group_commit=16, checkpoint_every=400; one torn-write crash at "
            f"{CRASH_AT:.0%} of each stream"
        )

    def finish(self) -> None:
        pass
