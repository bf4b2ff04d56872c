"""The crash-consistency checker: coverage, detection power, determinism."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.recovery import expected_contents, generate_workload, run_check
from repro.recovery.wal import WriteAheadLog
from repro.trees import KINDS

FAST = dict(
    n_ops=24,
    n_load=16,
    universe=1 << 10,
    cache_bytes=16 << 10,
    wal_bytes=1 << 20,
    ckpt_bytes=1 << 20,
)


class TestWorkloadGenerator:
    def test_deterministic_in_the_seed(self):
        a = generate_workload(50, seed=7)
        b = generate_workload(50, seed=7)
        assert a == b
        assert a != generate_workload(50, seed=8)

    def test_deletes_always_target_present_keys(self):
        load, ops = generate_workload(200, seed=3, n_load=8, universe=256)
        model = dict(load)
        for op, key, value in ops:
            if op == "p":
                model[key] = value
            elif op == "d":
                assert key in model
                del model[key]
            else:
                assert key in model

    #: sha256 of ``repr(generate_workload(seed=s, **kwargs))`` over seeds
    #: 0-5, captured on the commit *before* the live keys moved from a
    #: per-op ``sorted(model)`` to one incrementally sorted list (339b559).
    PINNED_STREAMS = {
        "stock E21": (
            dict(n_ops=600, n_load=256, universe=1 << 18, put_weight=0.8, delete_weight=0.1),
            "696185aac4e9c4dcc6204a0a8bf956ee177f92444a348ae1b849faf730ea1370",
        ),
        "nothing loaded": (
            dict(n_ops=400, n_load=0, universe=1 << 16),
            "b899caac6eb907ea00d54c17d17661d3f209af7cf523996f8d361d17d585fd4e",
        ),
        # Empties the running model ~200 times a seed, and re-puts live keys.
        "delete-heavy": (
            dict(n_ops=500, n_load=4, universe=1 << 10, put_weight=0.1, delete_weight=0.8),
            "9e9274167df629625e6146aacc61098e97d413f6230af4133ea2846870fb36b3",
        ),
    }

    @pytest.mark.parametrize("name", PINNED_STREAMS)
    def test_stream_is_pinned_to_the_parent_commits(self, name):
        kwargs, want = self.PINNED_STREAMS[name]
        digest = hashlib.sha256()
        for seed in range(6):
            digest.update(repr(generate_workload(seed=seed, **kwargs)).encode())
        assert digest.hexdigest() == want

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_workload(0)
        with pytest.raises(ConfigurationError):
            generate_workload(10, n_load=-1)
        with pytest.raises(ConfigurationError):
            generate_workload(10, universe=4, n_load=64)


class TestExpectedContents:
    def test_prefix_semantics(self):
        load = [(1, "a")]
        ops = [("p", 2, "b"), ("g", 1, None), ("d", 1, None), ("p", 3, "c")]
        assert expected_contents(load, ops, 0) == {1: "a"}
        assert expected_contents(load, ops, 1) == {1: "a", 2: "b"}
        # The get does not consume an acked-write slot.
        assert expected_contents(load, ops, 2) == {2: "b"}
        assert expected_contents(load, ops, 3) == {2: "b", 3: "c"}


class TestRunCheck:
    def test_btree_exhaustive_passes(self):
        report = run_check("btree", mode="exhaustive", seed=1, **FAST)
        assert report.passed
        assert report.boundaries_tested == report.boundaries_total > 0
        assert report.crashes_fired == report.boundaries_tested
        d = report.describe()
        assert d["passed"] and d["failures"] == []

    @pytest.mark.parametrize("tree", KINDS)
    def test_every_registered_kind_recovers(self, tree):
        report = run_check(tree, mode="exhaustive", seed=1, **FAST)
        assert report.passed, report.describe()
        assert report.crashes_fired == report.boundaries_total > 0

    def test_sample_mode_subsets_the_boundaries(self):
        report = run_check(
            "btree", mode="sample", samples=5, seed=1, group_commit=1, **FAST
        )
        assert report.passed
        assert report.boundaries_tested == 5
        assert report.boundaries_tested < report.boundaries_total

    def test_sample_mode_is_seeded(self):
        a = run_check("btree", mode="sample", samples=4, seed=2, **FAST)
        b = run_check("btree", mode="sample", samples=4, seed=2, **FAST)
        assert a.describe() == b.describe()

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigurationError, match="KINDS"):
            run_check("splay")
        with pytest.raises(ConfigurationError):
            run_check("btree", mode="psychic")
        with pytest.raises(ConfigurationError):
            run_check("btree", mode="sample", samples=0)

    def test_checker_catches_a_lying_wal(self, monkeypatch):
        # A WAL that acks without writing the durable image is exactly the
        # bug class the checker exists for: acked ops vanish on recovery.
        real_commit = WriteAheadLog.commit

        def lying_commit(self):
            if not self._pending:
                return
            self.committed_lsn = self._pending[-1][0]  # ack ...
            self._pending.clear()  # ... but persist nothing
            self.commits += 1

        monkeypatch.setattr(WriteAheadLog, "commit", lying_commit)
        try:
            # A lying commit also writes no device IO, so drive boundaries
            # with checkpoint writes instead of commit writes.
            report = run_check(
                "btree", mode="exhaustive", seed=1, checkpoint_every=6, **FAST
            )
        finally:
            monkeypatch.setattr(WriteAheadLog, "commit", real_commit)
        assert not report.passed
        assert any("lost" in f.reason for f in report.failures)
