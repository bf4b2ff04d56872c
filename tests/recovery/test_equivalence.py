"""Property test: recovery equals the acked prefix on every tree kind.

One seeded workload, one crash ordinal, one tree kind — after the crash
and :meth:`DurableTree.recover`, the contents must equal the dict model
of exactly the acked ops (``lsn <= committed_lsn`` at crash time), and
the tree's own invariants must hold.  This is the checker's contract
re-stated as a shrinkable hypothesis property.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeviceCrashed
from repro.faults import CrashPlan, FaultPlan, FaultyDevice
from repro.recovery import (
    DurableConfig,
    DurableTree,
    expected_contents,
    generate_workload,
)
from repro.storage.ram import ConstantLatencyDevice
from repro.trees import KINDS

CONFIG = dict(
    node_bytes=4096,
    cache_bytes=16 << 10,
    wal_bytes=1 << 20,
    ckpt_bytes=1 << 20,
)


def _run_to_crash(tree, *, seed, ordinal, group_commit, checkpoint_every):
    load_pairs, ops = generate_workload(
        40, universe=1 << 10, seed=seed, n_load=12
    )
    inner = ConstantLatencyDevice(1e-4, capacity_bytes=1 << 30)
    device = FaultyDevice(inner, FaultPlan())
    durable = DurableTree(
        device,
        DurableConfig(
            tree=tree,
            group_commit=group_commit,
            checkpoint_every=checkpoint_every,
            **CONFIG,
        ),
    )
    durable.load(list(load_pairs))
    device.arm_crash(CrashPlan(seed=seed ^ 0xABCD, at_io=ordinal))
    try:
        for op, key, value in ops:
            if op == "p":
                durable.put(key, value)
            elif op == "d":
                durable.delete(key)
            else:
                durable.get(key)
        durable.sync()
        # The ordinal was past the workload's last IO: disarm so the
        # recovery and probe IOs below cannot trip the stale plan.
        device.arm_crash(None)
    except DeviceCrashed:
        pass
    return durable, load_pairs, ops


@pytest.mark.parametrize("tree", KINDS)
class TestCrashRecoverEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        ordinal=st.integers(0, 40),
        group_commit=st.sampled_from([1, 3, 8]),
        checkpoint_every=st.sampled_from([0, 7]),
    )
    def test_recovered_state_is_the_acked_prefix(
        self, tree, seed, ordinal, group_commit, checkpoint_every
    ):
        durable, load_pairs, ops = _run_to_crash(
            tree,
            seed=seed,
            ordinal=ordinal,
            group_commit=group_commit,
            checkpoint_every=checkpoint_every,
        )
        acked = durable.wal.committed_lsn
        durable.recover()
        durable.check_invariants()
        assert durable.contents() == expected_contents(load_pairs, ops, acked)
        # And the recovered tree still takes durable traffic.
        durable.put(1 << 20, "probe")
        durable.sync()
        assert durable.get(1 << 20) == "probe"
