"""serve_e19 — open loop: the E19 serving cluster under a fixed rate ladder.

The cluster is the one ``exp_serve_tail.measure_serve`` builds: B-trees,
2 hash shards x 3 replicas, batch 8, the stock ``DEFAULT_PLAN`` of latency
spikes.  Each iteration offers Poisson + Zipf two-tenant traffic at
300/500/700/900 req/s under policy ``hedge`` and once more at 900 req/s
under ``admit+hedge``, ``HORIZON_S`` simulated seconds each, on the same
(warm) cluster.  op = one arrived request.

Arrivals are pre-drawn in simulated time, so the generator is never late
and latency counts from the scheduled arrival.  The engine drains its
queues after the horizon, so every admitted request is served; requests
refused by admission are reported (``serve.engine.dropped``), not failed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from perfbench.harness import Run, derive_seed, ratio
from perfbench.layers import adopt_tree
from repro.experiments.exp_serve_tail import DEFAULT_PLAN, make_tenants, split_policy
from repro.serve import AdmissionController, RequestEngine, ShardConfig, ShardMap, build_shards
from repro.workloads.generators import random_load_pairs

LADDER = (300.0, 500.0, 700.0, 900.0)
POINTS = tuple((rate, "hedge") for rate in LADDER) + ((900.0, "admit+hedge"),)
#: The rung whose latencies are the workload's ``sim_lat_*``.
REPORT_POINT = (500.0, "hedge")
HORIZON_S = 10.0
SLO_P99_S = 0.100
N_ENTRIES, UNIVERSE = 6_000, 1 << 20
N_SHARDS, REPLICAS, BATCH = 2, 3, 8
SPOT_CHECKS = 64


class ServeE19:
    name = "serve_e19"

    def __init__(self, run: Run) -> None:
        self.run = run
        self.io_total = 0.0
        self.latencies: dict[tuple[float, str], list[np.ndarray]] = {p: [] for p in POINTS}
        #: Latencies of the last tenth each tenant was served, per point.
        self.served_last: dict[tuple[float, str], list[np.ndarray]] = {p: [] for p in POINTS}
        self.totals = dict.fromkeys(
            ("rounds", "hedges_issued", "hedges_won", "dropped", "io"), 0.0
        )
        self.max_queue_depth = 0

    def setup(self) -> None:
        run = self.run
        n = run.sized(N_ENTRIES, floor=600)
        with run.span("random_load_pairs", "workloads", n):
            pairs = random_load_pairs(n, UNIVERSE, seed=derive_seed(run.seed, "load"))
        self.model = dict(pairs)
        self.keys = np.fromiter(self.model, dtype=np.int64, count=n)
        self.shard_map = ShardMap(N_SHARDS, UNIVERSE, policy="hash")
        partitions = [
            [(int(k), self.model[int(k)]) for k in part]
            for part in self.shard_map.partition(self.keys)
        ]
        config = ShardConfig(
            tree="btree", node_bytes=4096, cache_bytes=64 << 10,
            replicas=REPLICAS, batch=BATCH, warm_queries=128,
        )
        self.shards = build_shards(
            N_SHARDS, partitions, config, seed=derive_seed(run.seed, "cluster"),
            plan=DEFAULT_PLAN, device_policy=None,
        )
        for shard in self.shards:
            for replica in shard.replicas:
                adopt_tree(run, "btree", replica.tree)
                if run.tracer is not None:
                    run.tracer.wrap(
                        replica, "serve.shard", ("lookup_many",),
                        count={"lookup_many": lambda args, _r: len(args[0])},
                    )
        self.horizon = max(0.5, HORIZON_S * run.scale)
        # Warm-up: a third of an iteration, so set-up time is mostly the
        # same interpreter work the timed region does.
        for rate, policy in POINTS:
            self._serve(rate, policy, self.horizon / 3, "warm")

    def prepare(self, i) -> None:
        pass  # the engine draws its traffic from the seed it is handed

    def _serve(self, rate: float, policy: str, horizon: float, i) -> tuple[int, float]:
        """One engine run on the shared cluster; returns (offered, wall)."""
        run = self.run
        admit, hedge, _device_policy = split_policy(policy)
        tenants = make_tenants(rate)
        for shard in self.shards:
            shard.pool.reset()
        engine = RequestEngine(
            self.shards, self.shard_map, tenants, self.keys, batch=BATCH,
            admission=AdmissionController(tenants, enabled=admit), policy=hedge,
        )
        if run.tracer is not None:
            offered_of = lambda _args, result: sum(t.offered for t in result.tenants.values())
            run.tracer.wrap(engine, "serve.engine", ("run",), count={"run": offered_of})
            run.tracer.wrap(engine, "serve.tenants", ("_draw_traffic",))
        start = perf_counter()
        result = engine.run(horizon, seed=derive_seed(run.seed, "traffic", i, rate, policy))
        wall = perf_counter() - start

        offered = sum(t.offered for t in result.tenants.values())
        per_tenant = [result.latency_array(t.name) for t in tenants]
        lat = np.concatenate(per_tenant)
        conserved = all(
            t.offered == t.admitted + t.dropped and t.admitted == t.served == len(t.latencies)
            for t in result.tenants.values()
        )
        run.expect(
            conserved and bool((lat >= 0).all()) and (admit or result.dropped == 0),
            f"request accounting broken at {rate:g} req/s under {policy}",
            n_ops=offered,
        )
        io = result.io_seconds - self.io_total
        self.io_total = result.io_seconds
        run.record(io, offered, lat if (rate, policy) == REPORT_POINT else ())
        run.digest(rate, policy, offered, result.served, result.dropped, result.rounds,
                   result.hedges_issued, result.hedges_won, result.max_queue_depth, io, lat)
        if run.recording:
            self.latencies[rate, policy].append(lat)
            self.served_last[rate, policy].extend(
                arr[-max(1, arr.size // 10):] for arr in per_tenant
            )
            totals = self.totals
            totals["rounds"] += result.rounds
            totals["hedges_issued"] += result.hedges_issued
            totals["hedges_won"] += result.hedges_won
            totals["dropped"] += result.dropped
            totals["io"] += io
            self.max_queue_depth = max(self.max_queue_depth, result.max_queue_depth)
        return offered, wall

    def iteration(self, i) -> tuple[int, float]:
        ops = 0
        wall = 0.0
        for rate, policy in POINTS:
            n, w = self._serve(rate, policy, self.horizon, i)
            ops += n
            wall += w
        return ops, wall

    def snapshot(self) -> None:
        stats = self.run.stats
        pooled = {point: np.concatenate(parts) for point, parts in self.latencies.items()}
        slo_rate = 0.0
        passing = True
        for rate in LADDER:
            lat = pooled[rate, "hedge"]
            p99 = float(np.percentile(lat, 99))
            # A growing backlog shows in the requests served last.
            backlog = float(np.median(np.concatenate(self.served_last[rate, "hedge"])))
            stats[f"serve_e19.p99_ms_at_{rate:g}"] = p99 * 1e3
            passing = passing and p99 <= SLO_P99_S and backlog <= SLO_P99_S
            if passing:
                slo_rate = rate
        totals = self.totals
        mean_latency = float(np.mean(np.concatenate(list(pooled.values()))))
        stats["sim.slo_rate"] = slo_rate
        stats["serve.engine.rounds"] = totals["rounds"]
        stats["serve.engine.max_queue_depth"] = float(self.max_queue_depth)
        stats["serve.engine.hedges_issued"] = totals["hedges_issued"]
        stats["serve.engine.hedge_win_ratio"] = ratio(
            totals["hedges_won"], totals["hedges_issued"]
        )
        stats["serve.engine.dropped"] = totals["dropped"]
        # Device seconds per round stand in for mean service time.  A hedged
        # duplicate adds device seconds while cutting latency, so with little
        # queueing the estimate would go negative: it is floored at 0.
        stats["serve.engine.sim_queue_wait_share"] = max(
            0.0, 1.0 - ratio(ratio(totals["io"], totals["rounds"]), mean_latency)
        )
        stats["serve.shard.sim_service_s"] = totals["io"]
        self.run.notes.append(
            "open loop: arrivals pre-drawn in simulated time (generator lateness 0), latency "
            f"from scheduled arrival; sim_lat_* at {REPORT_POINT[0]:g} req/s; "
            f"{int(totals['dropped'])} requests refused by admission at the admit+hedge point "
            "and none left unserved (the engine drains after the horizon)"
        )

    def finish(self) -> None:
        # The engine returns latencies, not values: check the replicas' data
        # directly, after the last run so the probes cannot disturb one.
        rng = self.run.rng("spot-check")
        for s, shard in enumerate(self.shards):
            owned = self.keys[self.shard_map.shards_of(self.keys) == s]
            probe = owned[rng.integers(0, owned.size, size=SPOT_CHECKS)].tolist()
            for replica in shard.replicas:
                self.run.expect_equal(
                    [replica.tree.get(k) for k in probe],
                    [self.model[k] for k in probe],
                    f"shard {s} replica spot check",
                )
