"""tree_read — closed loop, one client, six tree kinds, read-only.

The same stream goes to every kind: uniform point gets over the loaded
keys (miss-dominated: data is ~7x the cache), Zipf(1.2) gets
(hit-dominated) and 200-key range scans.  Half of each get phase goes
through ``get`` and half through ``get_many`` (batches of 64) where the
kind has it.  op = one get, or one key a range returned.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from perfbench import trees
from perfbench.harness import Run, derive_seed, ratio
from repro.workloads.distributions import ZipfKeys

GETS_PER_PHASE = 6_000
RANGES = 10
RANGE_KEYS = 200
BATCH = 64
ABSENT_SHARE = 0.05
PHASES = ("uniform", "zipf")


class TreeRead:
    name = "tree_read"

    def __init__(self, run: Run) -> None:
        self.run = run
        #: (kind, phase) -> [gets, sim seconds, device IOs]
        self.gets = {
            (kind, phase): [0, 0.0, 0] for kind in trees.TREE_KINDS for phase in PHASES
        }

    def setup(self) -> None:
        run = self.run
        # The B-tree's nodes are placed at random over the disk, as in E16,
        # so the planted mean setup cost ``s`` describes its seeks and the
        # closed form in snapshot() applies.
        self.built, self.model, self.keys = trees.build_all(run, btree_placement="random")
        self.pairs = sorted(self.model.items())
        # One hot set for the whole run; each iteration draws afresh from it.
        self.zipf = ZipfKeys(
            len(self.keys), seed=derive_seed(run.seed, "tree_read.zipf"), theta=1.2
        )
        # Warm-up: one small unrecorded pass so internal nodes are cached
        # and lazy imports are done before the first timed iteration.
        self.prepare("warm", shrink=10)
        self.iteration("warm")

    def prepare(self, i, shrink: int = 1) -> None:
        run = self.run
        n_gets = max(BATCH, run.sized(GETS_PER_PHASE) // shrink)
        n = len(self.keys)
        rng = run.rng("tree_read", i)
        uniform = self.keys[rng.integers(0, n, size=n_gets)]
        absent = rng.random(n_gets) < ABSENT_SHARE
        uniform[absent] = rng.integers(0, trees.UNIVERSE, size=int(absent.sum()))
        with run.span("ZipfKeys.sample", "workloads", n_gets):
            ranks = self.zipf.sample(n_gets)
        span = min(RANGE_KEYS, n)
        starts = rng.integers(0, n - span + 1, size=max(1, run.sized(RANGES) // shrink))
        model = self.model
        self.phase_keys = {"uniform": uniform.tolist(), "zipf": self.keys[ranks].tolist()}
        self.expected_gets = {
            name: [model.get(k) for k in keys] for name, keys in self.phase_keys.items()
        }
        self.ranges = [
            (self.pairs[s][0], self.pairs[s + span - 1][0], self.pairs[s : s + span])
            for s in starts.tolist()
        ]

    def iteration(self, i) -> tuple[int, float]:
        run = self.run
        ops = 0
        wall = 0.0
        for bt in self.built:
            tree, device = bt.tree, bt.device
            get, get_many = tree.get, bt.get_many
            stats = device.stats
            got: dict[str, list] = {}
            latencies: list[float] = []
            sample = latencies.append
            phase_cost: dict[str, tuple[float, int]] = {}
            start = perf_counter()
            clock = device.clock
            for name, keys in self.phase_keys.items():
                phase_start, ios_before = clock, stats.ios
                half = len(keys) // 2
                out: list = []
                add = out.append
                for key in keys[:half] if get_many is not None else keys:
                    add(get(key))
                    now = device.clock
                    sample(now - clock)
                    clock = now
                if get_many is not None:
                    for lo in range(half, len(keys), BATCH):
                        out.extend(get_many(keys[lo : lo + BATCH]))
                    clock = device.clock
                got[name] = out
                phase_cost[name] = (clock - phase_start, stats.ios - ios_before)
            scans = [tree.range(lo, hi) for lo, hi, _ in self.ranges]
            scan_sim = device.clock - clock
            wall += perf_counter() - start

            n_gets = sum(len(keys) for keys in self.phase_keys.values())
            n_scanned = sum(len(scan) for scan in scans)
            ops += n_gets + n_scanned
            for name, out in got.items():
                run.expect_equal(out, self.expected_gets[name], f"{bt.kind} {name} gets")
            run.expect_equal(
                [pair for scan in scans for pair in scan],
                [pair for _, _, want in self.ranges for pair in want],
                f"{bt.kind} range scans",
            )
            get_sim = sum(sim for sim, _ in phase_cost.values())
            run.record(get_sim + scan_sim, n_gets + n_scanned, latencies)
            run.digest(bt.kind, latencies, sorted(phase_cost.items()), scan_sim)
            if run.recording:
                for name, (sim, ios) in phase_cost.items():
                    acc = self.gets[bt.kind, name]
                    acc[0] += len(self.phase_keys[name])
                    acc[1] += sim
                    acc[2] += ios
        return ops, wall

    def snapshot(self) -> None:
        stats = self.run.stats
        def total(cells) -> tuple[int, float, int]:
            """Column sums of some ``[gets, sim seconds, IOs]`` cells."""
            return tuple(sum(col) for col in zip(*cells))

        for kind in trees.TREE_KINDS:
            n, sim, ios = total(self.gets[kind, phase] for phase in PHASES)
            stats[f"trees.{kind}.sim_ios_per_get"] = ios / n
            stats[f"trees.{kind}.sim_ms_per_get"] = sim / n * 1e3
        for phase in PHASES:
            n, sim, _ = total(self.gets[kind, phase] for kind in trees.TREE_KINDS)
            stats[f"tree_read.{phase}_sim_ms_per_get"] = sim / n * 1e3
        # The E16 closed form for B-tree uniform gets: IOs x (s + t x B).
        _, sim, ios = self.gets["btree", "uniform"]
        btree = self.built[0]
        geometry = btree.device.geometry
        predicted = ios * (
            geometry.mean_setup_seconds
            + geometry.seconds_per_byte * btree.tree.config.node_bytes
        )
        stats["sim.model_rel_err"] = ratio(abs(predicted - sim), sim)

    def finish(self) -> None:
        # Read-only workload: contents must still be exactly the load.
        for bt in self.built:
            self.run.expect(
                list(bt.tree.items()) == self.pairs, f"{bt.kind} items() differ from the load"
            )
