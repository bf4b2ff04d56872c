"""One lockstep state machine over every tree kind, device and crash.

Every kind in :data:`repro.trees.KINDS`, plus a ``betree`` in one of its
other layouts (drawn per run), runs as a *twin pair* against one dict
model: the batch twin takes each batch as ``put_many`` / ``lookup_many``,
the loop twin as the scalar loop (or as the batch too, for a kind whose
batch plans its IO by design), on identical devices (one kind of
:data:`repro.storage.KINDS` drawn per run, inside a seeded ``FaultyDevice``
that errs and spikes under a retry policy).  Beside them, one
``DurableTree`` per kind is held to the acked prefix of its ops across
crashes.  After every step every subject passes
``check_invariants()`` and every twin pair has equal accounting.  Rules,
replay and the mutants it catches: docs/architecture.md, "Correctness
tooling".
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro import storage, trees
from repro.errors import DeviceCrashed, TreeError
from repro.faults import CrashPlan, FaultPlan, FaultyDevice, ResiliencePolicy
from repro.recovery import DurableConfig, DurableTree
from repro.trees import registry
from repro.trees.api import KVTree
from repro.trees.betree.tree import LAYOUTS as BETREE_LAYOUTS
from repro.trees.btree import BTree
from repro.trees.sizing import KEY_MAX, KEY_MIN, EntryFormat

FMT = EntryFormat(value_bytes=8)

#: The ``betree`` layouts besides the registry's default (the naive Lemma 8
#: tree, segments without pivots in the parent): a run draws one of them.
LAYOUTS = tuple(
    layout for layout in BETREE_LAYOUTS if layout != trees.configure("betree").layout
)

#: Small nodes, runs, caches and buckets, so a few hundred operations split,
#: compact, merge, flush and rebalance every kind.  At F = 2 in 384-byte
#: nodes a hundred keys give ``flush_all`` nodes to leave over ``2F``
#: children (it once did).  ``rebuild_factor`` 3.5 lets a cob-buffered
#: bucket overflow before the first weight rebuild, so that flush seeds the
#: splitters.  The COLA's and the cob's budgets leave their pins room for a
#: few blocks (5 of 512 bytes; 2 of 256 under a six-level index top).
SMALL = {
    "btree": dict(node_bytes=1024, cache_bytes=16 << 10, fmt=FMT),
    "betree": dict(node_bytes=384, cache_bytes=16 << 10, fanout=2, fmt=FMT),
    "lsm": dict(memtable_bytes=2048, sstable_bytes=2048, level1_bytes=8192, fmt=FMT),
    "cola": dict(node_bytes=512, cache_bytes=1 << 12, fmt=FMT),
    "cob": dict(node_bytes=256, cache_bytes=3 << 9, initial_slots=64, fmt=FMT),
    "cob-buffered": dict(
        node_bytes=256, cache_bytes=3 << 9, initial_slots=64, fanout=4, buffer_bytes=512,
        rebuild_factor=3.5, fmt=FMT,
    ),
}

#: What a durable subject wraps: the registry's sizing at a WAL-friendly node.
DURABLE = dict(node_bytes=4096, cache_bytes=16 << 10, wal_bytes=1 << 20, ckpt_bytes=1 << 20)

CAPACITY = 1 << 34


def make(kind: str, device, **fields) -> KVTree:
    """An empty subject: a registry kind at its ``SMALL`` sizes, plus ``fields``."""
    return trees.build(kind, device, **SMALL[kind], **fields)


#: The kinds whose ``put_many`` plans its IO: a different IO schedule from
#: an insert loop by design, so both twins take the batch.
PLANS_WRITES = tuple(kind for kind in trees.KINDS if make(kind, storage.build("null")).plans_puts)


def faulty(kind: str, seed: int) -> FaultyDevice:
    """A fresh device of registry ``kind`` that errs and spikes on the seeded schedule."""
    plan = FaultPlan(seed=seed, error_prob=0.02, spike_prob=0.05, spike_seconds=1e-3)
    device = storage.build(kind, seed=1, capacity_bytes=CAPACITY)
    return FaultyDevice(device, plan, policy=ResiliencePolicy.retry())


def accounting(tree: KVTree) -> tuple:
    """Everything an op sequence determines besides contents."""
    device = tree.device
    faults = getattr(device, "fault_stats", None)
    if tree.storage is not None:
        cache = tree.storage.cache.stats
    else:
        cache = tree.block_cache.stats if tree.block_cache is not None else None
    return (
        device.clock,
        vars(device.stats).copy(),
        vars(faults).copy() if faults is not None else None,
        tree.user_bytes_modified,
        tree.allocator.used_bytes,
        (cache.hits, cache.misses) if cache is not None else None,
        getattr(tree, "_next_seq", None),
    )


def apply(model: dict, op: str, key: int, value=None) -> None:
    if op == "p":
        model[key] = value
    else:
        model.pop(key, None)


EXTREMES = (KEY_MIN, -(1 << 62) - 1, (1 << 62) + 5, KEY_MAX)
UNIVERSE = 600
PROBE = UNIVERSE + 1
keys = st.integers(-len(EXTREMES), UNIVERSE).map(lambda i: EXTREMES[i] if i < 0 else i)
values = st.integers(0, 999)


class LockstepMachine(RuleBasedStateMachine):
    @initialize(
        data=st.data(),
        seed=st.integers(0, 255),
        group_commit=st.sampled_from((1, 3, 8)),
        checkpoint_every=st.sampled_from((0, 7)),
    )
    def build(self, data, seed, group_commit, checkpoint_every):
        # Drawn from the registry as it stands when the run starts, so a
        # newly registered device kind is drawn with no edit here.
        kind = data.draw(st.sampled_from(storage.KINDS), label="device")
        layout = data.draw(st.sampled_from(LAYOUTS), label="betree layout")
        self.device = lambda: faulty(kind, seed)
        self.model = {}
        #: name -> (kind, config fields) of every twin pair.
        self.subjects = {name: (name, {}) for name in trees.KINDS}
        self.subjects[f"betree-{layout}"] = ("betree", {"layout": layout})
        self.twins = {name: self._twin(name) for name in self.subjects}
        config = dict(DURABLE, group_commit=group_commit, checkpoint_every=checkpoint_every)
        self.durable = {
            kind: DurableTree(self.device(), DurableConfig(tree=kind, **config))
            for kind in trees.KINDS
        }
        self.acked = {kind: {} for kind in trees.KINDS}
        self.unacked = {kind: [] for kind in trees.KINDS}

    def _twin(self, name: str) -> tuple[KVTree, KVTree]:
        """``(batched, looped)`` on two identical devices."""
        kind, fields = self.subjects[name]
        return make(kind, self.device(), **fields), make(kind, self.device(), **fields)

    def _trees(self):
        return itertools.chain.from_iterable(self.twins.values())

    @staticmethod
    def _pick(key: int, live: bool, model: dict) -> int:
        """``key``, or with ``live`` a key ``model`` holds, chosen by ``key``."""
        if live and model:
            present = sorted(model)
            return present[key % len(present)]
        return key

    # -- the dictionary ------------------------------------------------------

    @rule(key=keys, value=values)
    def insert(self, key, value):
        for tree in self._trees():
            tree.insert(key, value)
        self.model[key] = value

    @rule(key=keys, live=st.booleans())
    def delete(self, key, live):
        key = self._pick(key, live, self.model)
        held = key in self.model
        for tree in self._trees():
            said = tree.delete(key)
            assert said is None or said == held  # the B-tree reports what it held
        self.model.pop(key, None)

    @rule(key=keys, delta=st.integers(-5, 5))
    def upsert(self, key, delta):
        for tree in self._trees():
            if tree.kind == "betree":
                tree.upsert(key, delta)
            else:
                tree.insert(key, (tree.get(key) or 0) + delta)
        self.model[key] = self.model.get(key, 0) + delta

    @rule(key=keys)
    def get(self, key):
        for tree in self._trees():
            assert tree.get(key) == self.model.get(key)
            assert (key in tree) == (key in self.model)
        for kind, durable in self.durable.items():
            assert durable.get(key) == self._live(kind).get(key)

    @rule(batch=st.lists(keys, max_size=40))
    def lookup_many(self, batch):
        want = [self.model.get(key) for key in batch]
        for batched, looped in self.twins.values():
            assert batched.lookup_many(batch) == want
            if type(looped)._lookup_many is not KVTree._lookup_many:
                # A batched descent of its own (the B-tree's) is a different
                # IO schedule by design, so both twins take it.
                assert looped.lookup_many(batch) == want
            else:
                assert [looped.get(key) for key in batch] == want

    @rule(lo=keys, hi=keys)
    def range(self, lo, hi):
        want = sorted((k, v) for k, v in self.model.items() if lo <= k <= hi)
        for tree in self._trees():
            assert tree.range(lo, hi) == want

    @rule(
        n=st.sampled_from((0, 1, 2, 9, 50, 300)),
        span=st.sampled_from((16, 256, 4096)),
        seed=st.integers(0, 255),
        as_iter=st.booleans(),
    )
    def put_many(self, n, span, seed, as_iter):
        rng = random.Random(seed)
        pairs = [(rng.randrange(span), rng.randrange(1000)) for _ in range(n)]
        if n and seed % 4 == 0:  # now and then one key at the domain's edge
            pairs[rng.randrange(n)] = (rng.choice(EXTREMES), -1)
        for batched, looped in self.twins.values():
            batched.put_many(iter(pairs) if as_iter else pairs)
            if looped.plans_puts:
                looped.put_many(pairs)
            else:
                for key, value in pairs:
                    looped.insert(key, value)
        self.model.update(pairs)

    @rule()
    def compare(self):
        want = sorted(self.model.items())
        for tree in self._trees():
            assert list(tree.items()) == want
            assert len(tree) == len(want)
        for kind, durable in self.durable.items():
            assert durable.contents() == self._live(kind)

    # -- the lifecycle -------------------------------------------------------

    @rule()
    def reload(self):
        pairs = sorted(self.model.items())
        for name, twin in self.twins.items():
            for tree in twin if pairs else ():  # a non-empty tree refuses, free
                before = accounting(tree)
                with pytest.raises(TreeError):
                    tree.load(pairs)
                assert accounting(tree) == before
            self.twins[name] = self._twin(name)
            for tree in self.twins[name]:
                tree.load(pairs)

    @rule()
    def settle(self):
        for tree in self._trees():
            tree.settle()

    @rule()
    def drop_cache(self):
        for tree in self._trees():
            tree.drop_cache()

    @rule()
    def flush_all(self):
        for tree in self._trees():
            if hasattr(tree, "flush_all"):
                tree.flush_all()

    # -- the durable subjects ------------------------------------------------

    def _log(self, kind: str, op: str, key: int, value=None) -> None:
        """One durable op, in the model as unacked until its group commits."""
        durable = self.durable[kind]
        self.unacked[kind].append((durable.wal.next_lsn, op, key, value))
        if op == "p":
            durable.put(key, value)
        else:
            durable.delete(key)
        self._ack(kind)

    def _ack(self, kind: str) -> None:
        committed = self.durable[kind].wal.committed_lsn
        pending = self.unacked[kind]
        while pending and pending[0][0] <= committed:
            apply(self.acked[kind], *pending.pop(0)[1:])

    def _live(self, kind: str) -> dict:
        model = dict(self.acked[kind])
        for _, op, key, value in self.unacked[kind]:
            apply(model, op, key, value)
        return model

    @rule(key=keys, value=values, delete=st.booleans(), live=st.booleans())
    def durable_write(self, key, value, delete, live):
        for kind in self.durable:
            if delete:
                self._log(kind, "d", self._pick(key, live, self._live(kind)))
            else:
                self._log(kind, "p", key, value)

    @rule(checkpoint=st.booleans())
    def sync(self, checkpoint):
        for kind, durable in self.durable.items():
            if checkpoint:
                durable.checkpoint()
            else:
                durable.sync()
            self._ack(kind)

    @rule(crashes=st.lists(st.integers(0, 40), min_size=1, max_size=2), seed=st.integers(0, 255))
    def crash_and_recover(self, crashes, seed):
        for kind, durable in self.durable.items():
            rng = random.Random(seed)
            for at_io in crashes:
                durable.device.arm_crash(CrashPlan(seed=seed, at_io=at_io))
                with pytest.raises(DeviceCrashed):
                    for i in itertools.count():
                        self._log(kind, "p", rng.randrange(UNIVERSE), i)
                        if i % 16 == 15:  # a checkpoint always writes
                            durable.checkpoint()
                self._ack(kind)
                self.unacked[kind].clear()  # lost with the crash
                durable.recover()
                assert durable.contents() == self.acked[kind]
                self._log(kind, "p", PROBE, seed)
                durable.sync()
                self._ack(kind)
                assert durable.get(PROBE) == seed

    # -- after every step ----------------------------------------------------

    @invariant()
    def sound_and_in_lockstep(self):
        for batched, looped in self.twins.values():
            batched.check_invariants()
            looped.check_invariants()
            assert accounting(batched) == accounting(looped)
            for tree in (batched, looped):
                if tree.block_cache is not None:  # the whole RAM budget, no more
                    cached = tree.block_cache.resident_bytes
                    assert tree.pinned_bytes + cached <= tree.config.ram_bytes
        for durable in self.durable.values():
            durable.check_invariants()

    def teardown(self):
        if hasattr(self, "model"):
            self.compare()


#: Tier-1 settings: deterministic, and nothing written to an example database.
LockstepMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=50,
    derandomize=True,
    database=None,
    deadline=None,
    print_blob=True,
    report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestLockstep = LockstepMachine.TestCase


def test_a_registered_kind_joins_the_machine(monkeypatch):
    built = []

    class Throwaway(BTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    entry = dataclasses.replace(registry.check_kind("btree"), name="throwaway", tree=Throwaway)
    monkeypatch.setitem(registry._REGISTRY, "throwaway", entry)
    monkeypatch.setattr(trees, "KINDS", (*trees.KINDS, "throwaway"))
    monkeypatch.setitem(SMALL, "throwaway", SMALL["btree"])
    run_state_machine_as_test(
        LockstepMachine,
        settings=settings(TestLockstep.settings, max_examples=1, stateful_step_count=3),
    )
    assert len(built) >= 3  # a twin pair and a durable tree
