"""``BlockDevice.read_set``: a set of independent reads as planned runs.

The planned-lookup primitive (docs/architecture.md, "Batched IO"): the
extents are read once each, in disk order, as runs of at most ``limit``
bytes, a run reading through any gap of at most ``bridge_bytes``.  The
oracles below are exact: on the affine device the elapsed time *is*
``sum(s + t * run bytes)``, on the PDAM ``n`` distinct blocks *are*
``ceil(n / P)`` steps.
"""

import math

import pytest

from repro import storage
from repro.errors import DeviceCrashed, InvalidIOError
from repro.faults import CrashPlan, FaultPlan, FaultyDevice
from repro.obs import OBS
from repro.storage.device import BlockDevice
from repro.storage.ideal import PDAMDevice
from tests.storage.test_batch_identity import WRAPPED, _state, make, names

S, ALPHA = 0.01, 1e-6  # bridge_bytes = floor(s / t) = 1 000 000


def affine():
    return storage.build("affine", alpha=ALPHA, setup_seconds=S, trace=True)


def runs_of(dev):
    return [(io.offset, io.nbytes) for io in dev.trace]


def affine_seconds(runs):
    """The clock after ``runs`` from 0, accumulated as the device does."""
    clock = 0.0
    t = ALPHA * S
    for _, nbytes in runs:
        clock = clock + (S + t * nbytes)
    return clock


class TestBridgeBytes:
    def test_affine_is_setup_over_transfer(self):
        assert affine().bridge_bytes == math.floor(S / (ALPHA * S)) == 1_000_000

    def test_hdd_is_the_cheapest_setup_over_transfer(self):
        dev = storage.build("wd-black-1tb-2011-sim")
        g = dev.geometry
        want = (g.track_to_track_seek_seconds + g.rotation_seconds / 2) * g.bandwidth_bytes_per_second
        assert abs(dev.bridge_bytes - want) <= 1
        assert 600_000 < dev.bridge_bytes < 610_000

    @pytest.mark.parametrize("kind", ["null", "constant", "pdam", "ssd"])
    def test_no_setup_model_bridges_nothing(self, kind):
        assert storage.build(kind).bridge_bytes == 0

    def test_fault_wrapper_plans_as_its_inner_device(self):
        inner = affine()
        assert FaultyDevice(inner, FaultPlan(seed=1)).bridge_bytes == inner.bridge_bytes


class TestAffineRuns:
    def test_elapsed_is_setup_plus_transfer_of_each_run(self):
        dev = affine()
        extents = [
            (10_000_000, 4096),  # shuffled: the device reads in disk order
            (0, 4096),
            (4096 + 1_000_000, 4096),  # gap of exactly floor(s/t): read through
            (1_008_192 + 1_000_001, 4096),  # gap of floor(s/t) + 1: a new run
        ]
        elapsed = dev.read_set(extents, limit=1 << 30)
        want = [(0, 1_008_192), (2_008_193, 4096), (10_000_000, 4096)]
        assert runs_of(dev) == want
        assert dev.clock == elapsed == affine_seconds(want)  # exact, no approx
        assert dev.stats.reads == 3
        assert dev.stats.bytes_read == sum(n for _, n in want)

    def test_limit_caps_a_run(self):
        dev = affine()
        extents = [(i * 100_000, 4096) for i in range(5)]  # gaps well inside the bridge
        dev.read_set(extents, limit=204_096)
        want = [(0, 204_096), (300_000, 104_096)]
        assert runs_of(dev) == want
        assert dev.clock == affine_seconds(want)

    def test_an_extent_longer_than_the_limit_is_one_run(self):
        dev = affine()
        dev.read_set([(0, 8192), (9000, 100)], limit=4096)
        assert runs_of(dev) == [(0, 8192), (9000, 100)]

    def test_is_cheaper_than_a_read_loop_exactly_when_it_merges(self):
        extents = [(i * 50_000, 4096) for i in range(8)]
        planned, looped = affine(), affine()
        planned.read_set(extents, limit=1 << 30)
        for offset, nbytes in extents:
            looped.read(offset, nbytes)
        assert planned.stats.reads == 1
        assert planned.clock == affine_seconds([(0, 7 * 50_000 + 4096)])
        assert planned.clock < looped.clock


class TestPDAMSteps:
    @pytest.mark.parametrize("n_blocks, parallelism", [(1, 4), (4, 4), (10, 4), (9, 1), (17, 8)])
    def test_n_distinct_blocks_cost_ceil_n_over_p_steps(self, n_blocks, parallelism):
        B = 4096
        dev = storage.build(
            "pdam", parallelism=parallelism, block_bytes=B, step_seconds=0.5, trace=True
        )
        # Scattered blocks, each named twice (once whole, once by one byte).
        blocks = [3 * i + 1 for i in range(n_blocks)]
        extents = [(b * B, B) for b in blocks] + [(b * B + 7, 1) for b in reversed(blocks)]
        elapsed = dev.read_set(extents, limit=B)
        steps = -(-n_blocks // parallelism)
        assert dev.steps_elapsed == steps
        assert dev.clock == elapsed == steps * 0.5
        assert dev.stats.reads == n_blocks
        assert dev.stats.bytes_read == n_blocks * B
        assert dev.slots_used == n_blocks
        assert dev.slots_wasted == steps * parallelism - n_blocks
        assert [io.offset for io in dev.trace] == [b * B for b in blocks]

    def test_an_extent_spanning_blocks_counts_each_block(self):
        dev = storage.build("pdam", parallelism=2, block_bytes=4096, step_seconds=1.0)
        dev.read_set([(4000, 200), (4096, 8192)], limit=1)  # blocks 0, 1, 2
        assert dev.steps_elapsed == 2
        assert dev.stats.reads == 3


class TestOnce:
    def test_repeated_and_overlapping_extents_are_read_once(self):
        dev = storage.build("null", trace=True)
        dev.read_set([(0, 100), (1000, 10), (0, 100), (50, 100), (1000, 10)], limit=1 << 20)
        assert runs_of(dev) == [(0, 150), (1000, 10)]

    def test_an_extent_inside_a_run_adds_nothing(self):
        dev = storage.build("null", trace=True)
        dev.read_set([(0, 200), (50, 10), (150, 50), (300, 10)], limit=1 << 20)
        assert runs_of(dev) == [(0, 200), (300, 10)]

    def test_an_overlap_past_the_limit_reads_only_its_tail(self):
        dev = storage.build("null", trace=True)
        dev.read_set([(0, 100), (50, 100)], limit=100)
        assert runs_of(dev) == [(0, 100), (100, 50)]

    def test_only_touching_extents_merge_without_a_bridge(self):
        dev = storage.build("null", trace=True)
        dev.read_set([(0, 100), (100, 100), (201, 10)], limit=1 << 20)
        assert runs_of(dev) == [(0, 200), (201, 10)]

    def test_empty_set_is_free(self):
        dev = affine()
        assert dev.read_set([], limit=1) == 0.0
        assert dev.trace == [] and dev.stats.reads == 0


EXTENTS = [(1 << 24, 4096), (512, 4096), (4096, 65536), (2 << 20, 4096), (512, 4096)]


@pytest.mark.parametrize("name", names())
@pytest.mark.parametrize(
    "bad, limit",
    [((-1, 10), 1 << 20), ((0, 0), 1 << 20), ((1 << 30, 1), 1 << 20), ((0, 10), 0)],
    ids=["negative", "empty", "past-capacity", "no-limit"],
)
def test_an_invalid_set_raises_before_any_io(name, bad, limit):
    dev, ref = make(name), make(name)
    with pytest.raises(InvalidIOError):
        dev.read_set(EXTENTS + [bad], limit=limit)
    assert _state(dev) == _state(ref)


@pytest.mark.parametrize("name", names())
def test_identical_with_obs_on_and_off(name, monkeypatch):
    states = []
    for enabled in (False, True):
        monkeypatch.setattr(OBS, "enabled", enabled)
        dev = make(name)
        dev.read(1 << 22, 4096)
        dev.read_set(EXTENTS, limit=1 << 20)
        states.append(_state(dev))
    assert states[0] == states[1]


class TestFaultsLandOnARun:
    """A fault wrapper charges each planned run through its own ``read``."""

    #: Five runs on any disk: gaps of 4 MiB are never bridged.
    SPREAD = [(i << 22, 4096) for i in (4, 0, 3, 1, 2)]

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_a_crash_at_run_k_leaves_the_k_runs_before_it(self, k):
        def armed():
            dev = WRAPPED["faulty-perturbed"]()
            dev.arm_crash(CrashPlan(seed=5, at_io=k))
            return dev

        dev, ref = armed(), armed()
        with pytest.raises(DeviceCrashed):
            dev.read_set(self.SPREAD, limit=1 << 20)
        assert dev.stats.reads == len(dev.trace) == k
        with pytest.raises(DeviceCrashed):
            for offset, nbytes in sorted(self.SPREAD):
                ref.read(offset, nbytes)
        assert _state(dev) == _state(ref)

    def test_bridged_runs_are_one_io_each(self):
        dev = FaultyDevice(affine(), FaultPlan(seed=3), trace=True)
        dev.read_set([(0, 4096), (100_000, 4096), (1 << 30, 4096)], limit=1 << 20)
        assert runs_of(dev) == [(0, 104_096), (1 << 30, 4096)]
        assert dev.inner.stats.reads == 2


def test_only_the_pdam_prices_a_set_its_own_way():
    # Every other device, the fault wrapper included, plans runs and reads
    # them; the PDAM's steps are its native parallel pricing.
    classes = {type(storage.build(kind)) for kind in storage.KINDS} | {FaultyDevice}
    assert {cls for cls in classes if "read_set" in vars(cls)} == {PDAMDevice}
    assert "read_set" in vars(BlockDevice)
