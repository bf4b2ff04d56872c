"""sweep_runner — what a user runs: experiment sweeps through ``run_sweep``.

One repetition runs the concatenated stock specs of E5 (5 points), E6
(4 points) and E21 with ``group_commits=(1, 4, 16, 64)`` (36 points) three
ways: cold at ``jobs=1`` without a cache (the CLI default, and the timed
region behind ``norm_ops_per_s``), cold at ``jobs=min(nproc, 4)`` into a
fresh ``ResultCache``, and warm from that cache.  Repetitions alternate
which cold mode goes first, and each draws its own seed so no load is
memoised across them.  The three result lists must be equal (the
bit-identity contract).  Three such repetitions are followed by
``jobs=1``-only ones, so the median behind ``norm_ops_per_s`` rests on
five timings, not three.  op = one sweep point.

The points' own outputs are the simulated statistics here: a point's
``sim ms/op`` is the mean of ``query_ms`` and ``insert_ms`` (E5, E6) or
``run_per_op_ms`` (E21).
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
from pathlib import Path
from time import perf_counter

from perfbench.harness import Run, derive_seed
from repro.experiments import exp_betree_nodesize as e6
from repro.experiments import exp_btree_nodesize as e5
from repro.experiments import exp_durability as e21
from repro.runner import PointError, ResultCache, SweepSpec, get_kernel, run_sweep

GROUP_COMMITS = (1, 4, 16, 64)
#: Repetitions that run all three modes; later ones time ``jobs=1`` only.
FULL_REPETITIONS = 3
#: Scratch space for the result caches: inside the benchmark's directory.
WORK = Path(__file__).resolve().parents[2] / "out"


def point_sim_ms(row: dict) -> float:
    """The simulated ms/op a sweep point reports (see module docstring)."""
    if "run_per_op_ms" in row:
        return row["run_per_op_ms"]
    return (row["query_ms"] + row["insert_ms"]) / 2.0


class SweepRunner:
    name = "sweep_runner"
    #: A full repetition is ~5 s at scale 1 and a ``jobs=1`` pass ~3 s, so
    #: five are recorded, not seven.
    min_iterations = 5

    def __init__(self, run: Run) -> None:
        self.run = run
        self.jobs = min(os.cpu_count() or 1, 4)
        self.cache_root = WORK / f"sweep-cache-{os.getpid()}"
        self.walls: dict[str, list[float]] = {"j1": [], "jn": [], "warm": [], "kernels": []}
        self.kernel_walls: list[float] = []
        self.warm_hits = self.warm_lookups = 0

    def _spec(self, seed: int, *, warm: bool = False) -> SweepSpec:
        """The 45 points, or (``warm``) one point of each kernel, a tenth the size."""
        def sized(base: int, floor: int) -> int:
            return max(floor, self.run.sized(base) // (10 if warm else 1))

        sizes = dict(n_entries=sized(300_000, 5_000), seed=seed)
        one = dict(node_sizes=(65536,)) if warm else {}
        parts = (
            e5.sweep_spec(**sizes, **one),
            e6.sweep_spec(max_inserts=sized(100_000, 500), **sizes, **one),
            e21.sweep_spec(
                group_commits=(16,) if warm else GROUP_COMMITS,
                n_ops=sized(600, 60), n_load=sized(256, 32), seed=seed,
                **(dict(checkpoints=(100,)) if warm else {}),
            ),
        )
        return SweepSpec.make("perf_sweep", [p for spec in parts for p in spec.points])

    def setup(self) -> None:
        # Warm-up: every kernel once, small, so imports and first calls are paid.
        spec = self._spec(derive_seed(self.run.seed, "sweep", "warm"), warm=True)
        run_sweep(spec, jobs=1, on_error="isolate")

    def prepare(self, i) -> None:
        self.spec = self._spec(derive_seed(self.run.seed, "sweep", i))

    def _sweep(self, mode: str, **kwargs):
        with self.run.span("run_sweep", "runner.executor", n=len(self.spec)):
            start = perf_counter()
            results = run_sweep(self.spec, on_error="isolate", **kwargs)
            wall = perf_counter() - start
        if self.run.recording:
            self.walls[mode].append(wall)
        return results, wall

    def iteration(self, i) -> tuple[int, float]:
        run = self.run
        spec = self.spec
        if i >= FULL_REPETITIONS:
            serial, wall = self._sweep("j1", jobs=1)
            self._account(serial)
            return len(spec), wall
        cache = ResultCache(self.cache_root / f"rep-{i}")
        if run.tracer is not None:
            run.tracer.wrap(cache, "runner.cache", ("get", "put"))
        cold = {
            "j1": lambda: self._sweep("j1", jobs=1),
            "jn": lambda: self._sweep("jn", jobs=self.jobs, cache=cache),
        }
        order = ("j1", "jn") if i % 2 == 0 else ("jn", "j1")
        done = {mode: cold[mode]() for mode in order}
        (serial, wall), (parallel, _) = done["j1"], done["jn"]
        hits_before = cache.hits
        warm, _ = self._sweep("warm", jobs=1, cache=cache)
        shutil.rmtree(cache.root, ignore_errors=True)

        run.expect_equal(parallel, serial, f"jobs={self.jobs} results vs jobs=1")
        run.expect_equal(warm, serial, "warm-cache results vs jobs=1")
        if run.tracer is not None:
            # Direct kernel calls: what the sweep costs with no runner around
            # it.  The collector is paused as run_sweep pauses it, so the
            # difference is the runner's own work; the loads the sweep just
            # memoised are reused, so one load generation per repetition
            # counts as runner overhead.
            direct = []
            gc.disable()
            try:
                for point in spec.points:
                    with run.span(point.kernel, "runner.kernels"):
                        start = perf_counter()
                        direct.append(get_kernel(point.kernel)(**point.param_dict()))
                        self.kernel_walls.append(perf_counter() - start)
            finally:
                gc.enable()
            self.walls["kernels"].append(sum(self.kernel_walls[-len(spec):]))
            run.expect(direct == serial, "direct kernel calls disagree with run_sweep")

        self._account(serial)
        if run.recording:
            self.warm_hits += cache.hits - hits_before
            self.warm_lookups += len(spec)
        return len(spec), wall

    def _account(self, serial: list) -> None:
        """Oracle and simulated statistics of one ``jobs=1`` result list."""
        run = self.run
        good = [r for r in serial if not isinstance(r, PointError)]
        errors = len(serial) - len(good)
        run.attempted += len(serial)
        run.failed += errors
        if errors:
            run.failures.append(f"{errors} sweep points raised (PointError)")
        sims = [point_sim_ms(r) / 1e3 for r in good]
        run.record(sum(sims), len(good), sims)
        run.digest(repr(serial))

    def snapshot(self) -> None:
        stats, walls = self.run.stats, self.walls
        per_rep = len(self.spec)
        j1 = statistics.median(walls["j1"])
        stats["runner.executor.cold_j1_points_per_s"] = per_rep / j1
        stats["runner.executor.cold_jn_points_per_s"] = per_rep / statistics.median(walls["jn"])
        stats["runner.cache.warm_points_per_s"] = per_rep / statistics.median(walls["warm"])
        stats["runner.cache.warm_share"] = statistics.median(walls["warm"]) / j1
        stats["runner.cache.hit_ratio"] = self.warm_hits / self.warm_lookups
        if self.jobs > 1:
            stats["runner.executor.parallel_speedup"] = statistics.median(
                a / b for a, b in zip(walls["j1"], walls["jn"])
            )
        else:
            self.run.notes.append("parallel_speedup not measured: fewer than 2 CPUs")
        if walls["kernels"]:
            # Direct kernel passes ran in the full repetitions only.
            stats["runner.executor.overhead_share"] = 1.0 - sum(walls["kernels"]) / sum(
                walls["j1"][: len(walls["kernels"])]
            )
            stats["runner.executor.kernel_wall_p50_s"] = statistics.median(self.kernel_walls)
        self.run.notes.append(f"jobs=N means jobs={self.jobs}")

    def finish(self) -> None:
        shutil.rmtree(self.cache_root, ignore_errors=True)
