"""tree_write — closed loop, one client, six tree kinds, mutations only.

Same kinds and load as ``tree_read``; the stream is 70 % fresh inserts,
20 % overwrites and 10 % deletes (of live keys, so every kind accepts
them).  Half of each iteration goes through ``insert``/``delete``, half
through ``put_many`` in batches of up to 256 (a delete closes the open
batch, so order is preserved), and each kind's share ends with its
flush/settle inside the timed region.  op = one mutation.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from perfbench import trees
from perfbench.harness import Run

MUTATIONS = 5_000
BATCH = 256
FRESH, OVERWRITE = 0.70, 0.90  # cumulative shares; the rest are deletes


class MutationStream:
    """Seeded mutations against a running dict model (the oracle)."""

    def __init__(self, model: dict[int, int]) -> None:
        self.model = model
        self.live = list(model)
        self.slot = {key: i for i, key in enumerate(self.live)}
        self.serial = 0

    def draw(self, rng: np.random.Generator, n: int) -> list[tuple[int, int | None]]:
        """``n`` mutations as ``(key, value)``; ``value is None`` deletes."""
        kinds = rng.random(n).tolist()
        fresh = rng.integers(0, trees.UNIVERSE, size=n).tolist()
        picks = rng.random(n).tolist()
        model, live, slot = self.model, self.live, self.slot
        out: list[tuple[int, int | None]] = []
        for kind, key, pick in zip(kinds, fresh, picks):
            self.serial += 1
            if kind < FRESH or not live:
                if key not in model:
                    slot[key] = len(live)
                    live.append(key)
                model[key] = self.serial
                out.append((key, self.serial))
                continue
            key = live[int(pick * len(live))]
            if kind < OVERWRITE:
                model[key] = self.serial
                out.append((key, self.serial))
            else:
                last = live.pop()
                i = slot.pop(key)
                if last != key:
                    live[i] = last
                    slot[last] = i
                del model[key]
                out.append((key, None))
        return out


class TreeWrite:
    name = "tree_write"

    def __init__(self, run: Run) -> None:
        self.run = run
        #: kind -> [mutations, sim seconds, device bytes written]
        self.puts = {kind: [0, 0.0, 0] for kind in trees.TREE_KINDS}

    def setup(self) -> None:
        self.built, model, _ = trees.build_all(self.run)
        self.stream = MutationStream(model)
        self.prepare("warm", shrink=10)
        self.iteration("warm")

    def prepare(self, i, shrink: int = 1) -> None:
        n = max(BATCH, self.run.sized(MUTATIONS) // shrink)
        self.ops = self.stream.draw(self.run.rng("tree_write", i), n)

    def iteration(self, i) -> tuple[int, float]:
        run = self.run
        ops = self.ops
        half = len(ops) // 2
        wall = 0.0
        for bt in self.built:
            tree, device = bt.tree, bt.device
            insert, delete, put_many = tree.insert, tree.delete, tree.put_many
            latencies: list[float] = []
            sample = latencies.append
            written_before = device.stats.bytes_written
            start = perf_counter()
            first = clock = device.clock
            for key, value in ops[:half]:
                if value is None:
                    delete(key)
                else:
                    insert(key, value)
                now = device.clock
                sample(now - clock)
                clock = now
            batch: list[tuple[int, int]] = []
            for key, value in ops[half:]:
                if value is None:
                    if batch:
                        put_many(batch)
                        batch = []
                    delete(key)
                else:
                    batch.append((key, value))
                    if len(batch) == BATCH:
                        put_many(batch)
                        batch = []
            if batch:
                put_many(batch)
            bt.settle()
            wall += perf_counter() - start

            sim = device.clock - first
            written = device.stats.bytes_written - written_before
            run.attempted += len(ops)  # verified by items() in finish()
            run.record(sim, len(ops), latencies)
            run.digest(bt.kind, latencies, sim, written)
            if run.recording:
                acc = self.puts[bt.kind]
                acc[0] += len(ops)
                acc[1] += sim
                acc[2] += written
        return len(ops) * len(self.built), wall

    def snapshot(self) -> None:
        stats = self.run.stats
        entry = trees.FMT.entry_bytes
        live_bytes = len(self.stream.model) * entry
        for kind, (n, sim, written) in self.puts.items():
            stats[f"trees.{kind}.sim_ms_per_put"] = sim / n * 1e3
            stats[f"trees.{kind}.write_amp"] = written / (n * entry)
        total_n = sum(n for n, _, _ in self.puts.values())
        stats["sim.write_amp"] = sum(w for _, _, w in self.puts.values()) / (total_n * entry)
        stats["sim.space_amp"] = sum(bt.allocator.used_bytes for bt in self.built) / (
            live_bytes * len(self.built)
        )
        self.run.digest(stats["sim.write_amp"], stats["sim.space_amp"])

    def finish(self) -> None:
        want = sorted(self.stream.model.items())
        for bt in self.built:
            got = [(int(k), v) for k, v in bt.tree.items()]
            if got != want:
                lost = len(set(want) - set(got))
                self.run.failed += max(1, lost)
                self.run.failures.append(
                    f"{bt.kind} items(): {lost} model pairs missing or wrong, "
                    f"{len(got)} returned vs {len(want)} expected"
                )
