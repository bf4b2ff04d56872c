"""The no-fault identity invariant (ISSUE acceptance criterion).

Wrapping a device in a zero :class:`FaultPlan` — or attaching a no-op
policy, or constructing the scheduler with no plan — must leave every
simulated timing byte-identical to the unwrapped code path.  These
tests pin exact float equality, not approx: the fault layer is only
allowed to *exist* for free.
"""

from repro.experiments.common import build_load, measure_tree_ops
from repro.experiments.devices import default_hdd
from repro.faults import FaultPlan, FaultyDevice, ResiliencePolicy
from repro.models.pdam import PDAMModel
from repro.storage.ideal import PDAMDevice
from repro.storage.scheduler import ReadAheadScheduler
from repro.storage.stack import StorageStack
from repro.trees.btree import BTree, BTreeConfig


def _measure_btree(device):
    pairs, keys = build_load(20_000, 1 << 30, seed=3)
    storage = StorageStack(device, 1 << 20)
    tree = BTree(storage, BTreeConfig())
    tree.bulk_load(pairs)
    return measure_tree_ops(
        tree, keys, 1 << 30, n_queries=60, n_inserts=60, warmup_queries=30, seed=3
    )


class TestTreeByteIdentity:
    def test_zero_plan_wrapper_is_invisible(self):
        bare = _measure_btree(default_hdd(seed=3))
        wrapped = _measure_btree(
            FaultyDevice(default_hdd(seed=3), FaultPlan(seed=99))
        )
        assert wrapped == bare  # exact float equality, every field

    def test_none_policy_via_stack_is_invisible(self):
        bare = _measure_btree(default_hdd(seed=3))
        pairs, keys = build_load(20_000, 1 << 30, seed=3)
        storage = StorageStack(
            default_hdd(seed=3), 1 << 20, resilience=ResiliencePolicy.none()
        )
        tree = BTree(storage, BTreeConfig())
        tree.bulk_load(pairs)
        wrapped = measure_tree_ops(
            tree, keys, 1 << 30, n_queries=60, n_inserts=60, warmup_queries=30, seed=3
        )
        assert wrapped == bare

    def test_intensity_zero_scaling_is_invisible(self):
        plan = FaultPlan(seed=7, spike_prob=0.5, spike_seconds=0.1, error_prob=0.2)
        bare = _measure_btree(default_hdd(seed=3))
        wrapped = _measure_btree(
            FaultyDevice(default_hdd(seed=3), plan.scaled(0.0))
        )
        assert wrapped == bare


class TestSchedulerByteIdentity:
    def _drive(self, fault_plan, policy=None):
        device = PDAMDevice(PDAMModel(8, 4096, step_seconds=1e-3), capacity_bytes=1 << 30)
        sched = ReadAheadScheduler(device, fault_plan=fault_plan, policy=policy)
        fetched = []
        for step in range(40):
            for c in range(4):
                sched.submit(c, (step * 4 + c) * 13 % 1000)
            fetched.append(sched.step())
        return fetched, device.clock, device.steps_elapsed

    def test_no_plan_equals_zero_stall_plan(self):
        assert self._drive(None) == self._drive(FaultPlan(seed=5))

    def test_none_policy_changes_nothing(self):
        assert self._drive(None) == self._drive(None, ResiliencePolicy.none())

