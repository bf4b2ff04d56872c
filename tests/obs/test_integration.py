"""End-to-end observability: instrumented layers, identity, CLI exposure.

The load-bearing guarantee is *identity*: enabling metrics/tracing must
not move a single simulated clock tick, because instrumentation only
reads what the simulator already computed.
"""

import pytest

from repro import obs, storage, trees
from repro.errors import DeviceCrashed
from repro.experiments.devices import default_hdd
from repro.faults import CrashPlan, FaultPlan, FaultyDevice, ResiliencePolicy
from repro.models.pdam import PDAMModel
from repro.recovery import DurableConfig, DurableTree
from repro.storage.device import ReadRequest, WriteRequest
from repro.storage.ideal import PDAMDevice
from repro.storage.scheduler import ReadAheadScheduler
from repro.storage.stack import StorageStack
from repro.trees.btree import BTree, BTreeConfig
from tests.serve.test_engine import SPIKY, run_once
from tests.trees.test_lockstep import SMALL

#: The tree-op event each public dictionary op emits, by method.
TREE_OPS = {
    "get": "query",
    "lookup_many": "query_batch",
    "insert": "insert",
    "put_many": "insert_batch",
    "delete": "delete",
    "range": "range",
}

#: Errors and spikes often enough that every kind's run retries and hedges.
NOISY = FaultPlan(seed=5, error_prob=0.05, spike_prob=0.1, spike_seconds=0.02)


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with the registry off and empty."""
    obs.disable(detach_tracer=True)
    obs.reset()
    yield
    obs.disable(detach_tracer=True)
    obs.reset()


def run_btree_workload(n_ops: int = 400) -> float:
    """A small mixed workload; returns the simulated device clock."""
    device = default_hdd(seed=3)
    stack = StorageStack(device, cache_bytes=64 << 10)
    tree = BTree(stack, BTreeConfig(node_bytes=4096))
    for k in range(n_ops):
        tree.insert(k * 7 % 1000, k)
    for k in range(0, n_ops, 3):
        tree.get(k * 7 % 1000)
    stack.flush()
    return device.clock


def run_every_layer() -> None:
    """Drive every instrumented layer once.

    Every tree kind takes every op over an HDD wrapped in a
    ``FaultyDevice``, once under a retry policy and once under a hedge
    policy; then a durable tree crashes and recovers, a two-tenant
    cluster serves, and the read-ahead scheduler steps under stalls.
    """
    pairs = [(k, k) for k in range(0, 600, 2)]
    retries = hedges = 0
    for policy in (ResiliencePolicy.retry(), ResiliencePolicy.hedged(0.01)):
        for kind in trees.KINDS:
            device = FaultyDevice(storage.build("hdd", seed=1), NOISY, policy=policy)
            tree = trees.build(kind, device, **SMALL[kind])
            tree.load(pairs)
            tree.put_many((k, -k) for k in range(1, 300, 3))
            for k in range(301, 600, 3):
                tree.insert(k, k)
            tree.get(17)
            tree.lookup_many(range(0, 600, 37))
            tree.range(100, 400)
            for k in range(0, 300, 4):
                tree.delete(k)
            tree.settle()
            tree.drop_cache()
            retries += device.fault_stats.retries
            hedges += device.fault_stats.hedges_issued
    assert retries and hedges  # both policies did their work

    durable = DurableTree(
        FaultyDevice(storage.build("hdd", seed=2), FaultPlan(seed=0)),
        DurableConfig(group_commit=4, checkpoint_every=16),
    )
    durable.load(pairs)
    durable.device.arm_crash(CrashPlan(seed=3, at_io=40))
    with pytest.raises(DeviceCrashed):
        for k in range(10_000):
            durable.put(k, k)
    durable.recover()
    durable.get(4)

    run_once(plan=SPIKY, policy=ResiliencePolicy.hedged(0.02), admit=True, duration=0.2)

    pdam = PDAMDevice(PDAMModel(8, 4096, step_seconds=1e-3), capacity_bytes=1 << 30)
    stalls = FaultPlan(seed=5, stall_prob=0.2, spike_prob=0.2, spike_seconds=2e-3)
    sched = ReadAheadScheduler(pdam, fault_plan=stalls, policy=ResiliencePolicy.hedged(2e-3))
    for step in range(40):
        for c in range(4):
            sched.submit(c, (step * 4 + c) * 13 % 1000)
        sched.step()


class TestIdentity:
    def test_disabled_run_records_nothing(self):
        # An unguarded record anywhere on these paths shows up here.
        run_every_layer()
        snap = obs.OBS.snapshot()
        assert all(v == 0 for v in snap["counters"].values())
        assert all(h["count"] == 0 for h in snap["histograms"].values())
        assert all(g["n_sets"] == 0 for g in snap["gauges"].values())
        assert obs.OBS.tracer is None

    def test_simulated_clock_identical_on_off(self):
        clock_off = run_btree_workload()
        obs.enable(trace=True)
        clock_on = run_btree_workload()
        assert clock_on == clock_off  # byte-identical, not approx

    def test_enable_disable_round_trip_is_noop_for_results(self):
        obs.enable()
        obs.disable()
        a = run_btree_workload()
        b = run_btree_workload()
        assert a == b


class TestInstrumentedLayers:
    def test_device_and_cache_and_tree_metrics(self):
        obs.enable(trace=True)
        run_btree_workload()
        snap = obs.OBS.snapshot()
        c = snap["counters"]
        assert c["device.read.ios"] > 0
        assert c["device.write.ios"] > 0
        # HDDs report their seek/bandwidth split per IO.
        assert c["device.setup_seconds_x1e9"] > 0
        assert c["device.transfer_seconds_x1e9"] > 0
        assert c["cache.hits"] > 0 and c["cache.misses"] > 0
        assert c["btree.query.count"] > 0
        assert snap["histograms"]["device.read.io_bytes"]["count"] == c["device.read.ios"]

    def test_cache_counters_match_cachestats(self):
        obs.enable()
        device = default_hdd(seed=3)
        stack = StorageStack(device, cache_bytes=64 << 10)
        tree = BTree(stack, BTreeConfig(node_bytes=4096))
        for k in range(300):
            tree.insert(k, k)
        stack.flush()
        c = obs.OBS.snapshot()["counters"]
        assert c["cache.hits"] == stack.cache.stats.hits
        assert c["cache.misses"] == stack.cache.stats.misses
        assert c["cache.evictions"] == stack.cache.stats.evictions

    def test_tree_spans_have_sim_clock(self):
        obs.enable(trace=True)
        run_btree_workload()
        spans = obs.OBS.tracer.spans
        tree_spans = [s for s in spans if s.name.startswith("btree.")]
        assert tree_spans
        assert all(s.clock == "sim" for s in tree_spans)
        io_spans = [s for s in spans if s.name.startswith("device.")]
        assert io_spans
        assert all(s.end >= s.start for s in io_spans)

    def test_structural_op_events_are_pinned(self):
        """A seeded write mix on btree and betree emits exactly these split
        and flush events (a flush into a leaf included), each once with its
        ``kind`` attribute and the same charged IO seconds."""
        import collections

        import numpy as np

        from repro import storage, trees

        obs.enable(trace=True)
        keys = np.random.default_rng(7).integers(0, 1 << 20, size=4000).tolist()
        for kind, fields in (("btree", {}), ("betree", {"fanout": 4})):
            tree = trees.build(
                kind, storage.build("affine"), node_bytes=8192, cache_bytes=32 << 10, **fields
            )
            for i, k in enumerate(keys):
                tree.insert(k, i)
            for k in keys[::3]:
                tree.delete(k)
            tree.settle()
        spans = collections.Counter(
            (s.name, s.attrs.get("kind")) for s in obs.OBS.tracer.spans
            if s.name.endswith((".split", ".flush"))
        )
        assert spans == {
            ("btree.split", None): 70,
            ("betree.flush", None): 1271,
            ("betree.split", "leaf"): 71,
            ("betree.split", "internal"): 12,
        }
        snap = obs.OBS.snapshot()
        assert {
            name: snap["counters"][f"{name}.count"]
            for name in ("btree.split", "betree.flush", "betree.split")
        } == {"btree.split": 70, "betree.flush": 1271, "betree.split": 83}
        assert {
            name: snap["histograms"][f"{name}.io_seconds"]["total"]
            for name in ("btree.split", "betree.flush", "betree.split")
        } == {
            "btree.split": 0.5857343999999594,
            "betree.flush": 62.072827519999414,
            "betree.split": 4.565221759999925,
        }

    @pytest.mark.parametrize("kind", trees.KINDS)
    def test_every_public_op_emits_one_event(self, kind):
        """Each of a kind's six dictionary ops is one ``<kind>.<op>`` event
        priced at the call's device-clock delta: no event of another kind
        (the buffered cob's base is not ``cob``) and no per-key event inside
        a batch."""
        tree_ops = {f"{name}.{op}" for name in trees.KINDS for op in TREE_OPS.values()}
        assert trees.check_kind(kind).tree.kind == kind
        tree = trees.build(kind, storage.build("hdd", seed=1), **SMALL[kind])
        tree.load([(k, k) for k in range(0, 600, 2)])
        obs.enable(trace=True)
        calls = {
            "get": (17,),
            "lookup_many": ((k for k in range(0, 600, 37)),),
            "insert": (301, 1),
            "put_many": (((k, -k) for k in range(1, 300, 3)),),
            "delete": (40,),
            "range": (100, 400),
        }
        for method, args in calls.items():
            obs.reset()
            start = tree.device.clock
            result = getattr(tree, method)(*args)
            name = f"{kind}.{TREE_OPS[method]}"
            spans = [s for s in obs.OBS.tracer.spans if s.name in tree_ops]
            assert [s.name for s in spans] == [name], method
            snap = obs.OBS.snapshot()
            counted = {
                c for c, v in snap["counters"].items()
                if v and c.removesuffix(".count") in tree_ops
            }
            assert counted == {f"{name}.count"}
            assert snap["histograms"][f"{name}.io_seconds"]["total"] == (
                tree.device.clock - start
            )
            assert spans[0].end - spans[0].start == tree.device.clock - start
            if method in ("get", "insert", "delete"):
                assert spans[0].attrs == {"key": args[0]}
            elif method == "put_many":
                assert spans[0].attrs == {}
            else:
                assert spans[0].attrs == {"n": len(result)}

    def test_ssd_closed_loop_is_one_event_per_request(self):
        obs.enable()
        ssd = storage.build("ssd")
        requests = (ReadRequest, ReadRequest, WriteRequest)
        streams = [
            [requests[(c + r) % 3](((c * 7 + r) % 128) << 16, 1 << 16) for r in range(25)]
            for c in range(4)
        ]
        ssd.run_closed_loop(streams)
        snap = obs.OBS.snapshot()
        assert snap["counters"]["device.read.ios"] == ssd.stats.reads > 0
        assert snap["counters"]["device.write.ios"] == ssd.stats.writes > 0
        assert snap["histograms"]["device.read.seconds"]["total"] == ssd.stats.read_seconds

    def test_runner_metrics(self, tmp_path):
        from repro.experiments import exp_btree_nodesize
        from repro.runner import ResultCache, run_sweep

        obs.enable()
        spec = exp_btree_nodesize.sweep_spec(
            node_sizes=(1 << 14, 1 << 15),
            n_entries=2000,
            cache_bytes=64 << 10,
            universe=1 << 20,
            n_queries=50,
            n_inserts=50,
            warmup_queries=10,
            seed=1,
        )
        cache = ResultCache(tmp_path)
        run_sweep(spec, cache=cache)
        c = obs.OBS.snapshot()["counters"]
        assert c["runner.points"] == 2
        assert c["runner.cache_misses"] == 2
        run_sweep(spec, cache=cache)
        c = obs.OBS.snapshot()["counters"]
        assert c["runner.cache_hits"] == 2
        assert obs.OBS.snapshot()["histograms"]["runner.point_seconds"]["count"] == 2


class TestCLI:
    def test_metrics_flag_renders_block_and_trace(self, tmp_path, capsys):
        from repro.experiments.cli import main
        from repro.obs import read_jsonl

        trace_path = tmp_path / "e3.jsonl"
        rc = main(
            ["table2", "--metrics", "--trace-out", str(trace_path), "--no-cache"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "table2 metrics: counters" in out
        assert "device.read.ios" in out
        assert "runner.point_seconds" in out
        spans = read_jsonl(trace_path)  # validates header + every span
        names = {s.name for s in spans}
        assert "device.read" in names
        assert "runner.sweep" in names

    def test_metrics_off_prints_no_block(self, capsys):
        from repro.experiments.cli import main

        rc = main(["table2", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics: counters" not in out
        # And the global registry stayed silent.
        assert all(v == 0 for v in obs.OBS.snapshot()["counters"].values())
