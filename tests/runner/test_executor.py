"""Executor semantics: ordering, caching, parallel equality, error paths."""

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    MISS,
    ResultCache,
    SweepPoint,
    SweepSpec,
    SweepReport,
    get_kernel,
    kernel_names,
    register,
    resolve_jobs,
    run_sweep,
)
from repro.runner.cache import fingerprint


# Module-level kernels: fork workers inherit these registrations.
@register("test_square")
def _square(*, x: int) -> int:
    return x * x


@register("test_payload")
def _payload(*, tag: str, n: int) -> dict:
    return {"tag": tag, "values": [n * i for i in range(3)]}


def _spec(xs):
    return SweepSpec.make("squares", [SweepPoint.make("test_square", x=x) for x in xs])


class TestKernelsRegistry:
    def test_get_registered(self):
        assert get_kernel("test_square")(x=3) == 9

    def test_unknown_kernel_raises(self):
        with pytest.raises(ConfigurationError):
            get_kernel("no_such_kernel")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ConfigurationError):
            register("test_square")(lambda: None)

    def test_experiment_kernels_registered(self):
        names = kernel_names()
        assert {"affine_validation_device", "autotune_device"} <= set(names)
        for name in names:
            assert callable(get_kernel(name))


class TestRunSweep:
    def test_results_in_spec_order(self):
        assert run_sweep(_spec([3, 1, 2])) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        spec = _spec(range(8))
        assert run_sweep(spec, jobs=4) == run_sweep(spec, jobs=1)

    def test_report_counts(self):
        report = SweepReport(spec_name="", n_points=0)
        run_sweep(_spec([1, 2, 3]), report=report)
        assert report.n_points == 3
        assert report.n_computed == 3
        assert report.n_cached == 0
        assert len(report.fingerprints) == 3
        assert "3 points" in report.summary()

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec([2, 3])
        first = run_sweep(spec, cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        report = SweepReport(spec_name="", n_points=0)
        second = run_sweep(spec, cache=cache, report=report)
        assert second == first
        assert report.n_cached == 2 and report.n_computed == 0

    def test_cache_shared_between_specs(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_spec([1, 2, 3]), cache=cache)
        report = SweepReport(spec_name="", n_points=0)
        run_sweep(_spec([2, 3, 4]), cache=cache, report=report)
        assert report.n_cached == 2 and report.n_computed == 1

    def test_parallel_with_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(range(6))
        serial = run_sweep(spec, jobs=1)
        assert run_sweep(spec, jobs=3, cache=cache) == serial
        assert run_sweep(spec, jobs=3, cache=cache) == serial
        assert cache.hits == 6

    def test_complex_values_pickle(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = SweepSpec.make(
            "payloads", [SweepPoint.make("test_payload", tag="a", n=2)]
        )
        first = run_sweep(spec, cache=cache)
        assert first == [{"tag": "a", "values": [0, 2, 4]}]
        assert run_sweep(spec, cache=cache) == first

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(_spec([1]), jobs=-1)

    def test_jobs_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1
        assert run_sweep(_spec([2]), jobs=0) == [4]


class TestResultCache:
    def test_miss_sentinel(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = cache.get("0" * 64)
        assert ResultCache.is_miss(value)
        assert value is MISS

    def test_none_is_a_valid_cached_value(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = fingerprint("k", {"x": 1})
        cache.put(fp, None)
        got = cache.get(fp)
        assert got is None
        assert not ResultCache.is_miss(got)

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = fingerprint("k", {"x": 2})
        cache.put(fp, [1, 2, 3])
        path = cache._path(fp)
        path.write_bytes(b"not a pickle")
        assert ResultCache.is_miss(cache.get(fp))

    def test_two_level_fanout(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = fingerprint("k", {"x": 3})
        cache.put(fp, "v")
        assert (tmp_path / fp[:2] / f"{fp}.pkl").exists()


class TestQuarantine:
    """Corrupt cache entries become misses AND leave the lookup path."""

    def _corrupt(self, tmp_path, payload: bytes):
        cache = ResultCache(tmp_path)
        fp = fingerprint("k", {"x": 9})
        cache.put(fp, {"fine": True})
        cache._path(fp).write_bytes(payload)
        return cache, fp

    def test_garbage_bytes_quarantined(self, tmp_path):
        cache, fp = self._corrupt(tmp_path, b"\x00garbage, definitely not pickle")
        assert ResultCache.is_miss(cache.get(fp))
        assert cache.quarantined == 1
        assert not cache._path(fp).exists()
        qfile = tmp_path / ResultCache.QUARANTINE_DIR / f"{fp}.pkl"
        assert qfile.exists()

    def test_truncated_pickle_quarantined(self, tmp_path):
        import pickle

        blob = pickle.dumps({"big": list(range(1000))})
        cache, fp = self._corrupt(tmp_path, blob[: len(blob) // 2])
        assert ResultCache.is_miss(cache.get(fp))
        assert cache.quarantined == 1

    def test_stale_class_layout_quarantined(self, tmp_path):
        # A pickle referencing a module that no longer exists: unpickling
        # raises ModuleNotFoundError, not UnpicklingError.  Still a miss.
        cache, fp = self._corrupt(
            tmp_path, b"cdefinitely_not_a_module\nGoneClass\n."
        )
        assert ResultCache.is_miss(cache.get(fp))
        assert cache.quarantined == 1

    def test_absent_file_is_not_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert ResultCache.is_miss(cache.get("ab" + "0" * 62))
        assert cache.quarantined == 0

    def test_recompute_after_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec([7])
        run_sweep(spec, cache=cache)
        fp = spec.points[0].fingerprint()
        cache._path(fp).write_bytes(b"rot")
        assert run_sweep(spec, cache=cache) == [49]  # recomputed
        assert run_sweep(spec, cache=cache) == [49]  # and re-cached
        assert cache.quarantined == 1

    def test_quarantine_logs_entry_key(self, tmp_path, caplog):
        cache, fp = self._corrupt(tmp_path, b"\x00garbage")
        with caplog.at_level("WARNING", logger="repro.runner.cache"):
            assert ResultCache.is_miss(cache.get(fp))
        assert any(fp in rec.getMessage() for rec in caplog.records), (
            "quarantine must log the entry key so the entry is diagnosable"
        )

    def test_quarantine_records_obs_counter(self, tmp_path):
        from repro import obs

        cache, fp = self._corrupt(tmp_path, b"\x00garbage")
        obs.reset()
        obs.enable()
        try:
            assert ResultCache.is_miss(cache.get(fp))
            snap = obs.OBS.snapshot()
            assert snap["counters"]["runner.cache.quarantined"] == 1
        finally:
            obs.disable()
            obs.reset()


# Raises while ``marker`` exists; succeeds after it is removed.  Models a
# kernel bug fixed between runs (the resume-from-partial-progress story).
@register("test_explodes_while_marker")
def _explodes_while_marker(*, x: int, marker: str) -> int:
    import os

    if x == 2 and os.path.exists(marker):
        raise RuntimeError(f"kaboom on x={x}")
    return x * 10


def _marker_spec(marker, xs=(0, 1, 2, 3)):
    return SweepSpec.make(
        "explosive",
        [
            SweepPoint.make("test_explodes_while_marker", x=x, marker=str(marker))
            for x in xs
        ],
    )


class TestErrorIsolation:
    def test_invalid_on_error_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(_spec([1]), on_error="explode")

    def test_raise_is_the_default(self, tmp_path):
        marker = tmp_path / "broken"
        marker.touch()
        with pytest.raises(RuntimeError, match="kaboom"):
            run_sweep(_marker_spec(marker))

    def test_isolate_yields_point_error_in_slot(self, tmp_path):
        from repro.runner import PointError

        marker = tmp_path / "broken"
        marker.touch()
        results = run_sweep(_marker_spec(marker), on_error="isolate")
        assert results[0] == 0 and results[1] == 10 and results[3] == 30
        err = results[2]
        assert isinstance(err, PointError)
        assert err.kernel == "test_explodes_while_marker"
        assert err.error_type == "RuntimeError"
        assert "kaboom on x=2" in err.message
        assert "RuntimeError" in err.traceback
        assert "kaboom" in str(err)
        # The placeholder message carries the point's cache fingerprint, so
        # an isolated failure is attributable without re-running the sweep.
        assert err.fingerprint == _marker_spec(marker).points[2].fingerprint()
        assert err.fingerprint[:12] in str(err)

    def test_isolate_parallel(self, tmp_path):
        from repro.runner import PointError

        marker = tmp_path / "broken"
        marker.touch()
        results = run_sweep(_marker_spec(marker), jobs=3, on_error="isolate")
        assert [r for r in results if not isinstance(r, PointError)] == [0, 10, 30]
        assert isinstance(results[2], PointError)

    def test_point_errors_never_cached(self, tmp_path):
        marker = tmp_path / "broken"
        marker.touch()
        cache = ResultCache(tmp_path / "cache")
        spec = _marker_spec(marker)
        report = SweepReport(spec_name="", n_points=0)
        run_sweep(spec, cache=cache, on_error="isolate", report=report)
        assert report.n_errors == 1
        assert "1 errors" in report.summary()
        assert ResultCache.is_miss(cache.get(spec.points[2].fingerprint()))
        # Kernel fixed: the failed point recomputes, the rest are hits.
        marker.unlink()
        report2 = SweepReport(spec_name="", n_points=0)
        results = run_sweep(spec, cache=cache, on_error="isolate", report=report2)
        assert results == [0, 10, 20, 30]
        assert report2.n_cached == 3 and report2.n_computed == 1
        assert report2.n_errors == 0


class TestIncrementalCaching:
    def test_interrupted_sweep_resumes_from_completed_points(self, tmp_path):
        """ISSUE satellite: kill after point k; re-run hits cache for 0..k."""
        marker = tmp_path / "broken"
        marker.touch()
        cache = ResultCache(tmp_path / "cache")
        spec = _marker_spec(marker)
        with pytest.raises(RuntimeError):
            run_sweep(spec, cache=cache)  # dies at point index 2
        # Points 0 and 1 completed before the crash and are already cached.
        for i in (0, 1):
            assert not ResultCache.is_miss(cache.get(spec.points[i].fingerprint()))
        marker.unlink()
        report = SweepReport(spec_name="", n_points=0)
        assert run_sweep(spec, cache=cache, report=report) == [0, 10, 20, 30]
        assert report.n_cached == 2 and report.n_computed == 2

    def test_parallel_interrupt_caches_completed_points(self, tmp_path):
        marker = tmp_path / "broken"
        marker.touch()
        cache = ResultCache(tmp_path / "cache")
        spec = _marker_spec(marker, xs=(0, 1, 2, 3, 4, 5))
        with pytest.raises(RuntimeError):
            run_sweep(spec, cache=cache, jobs=2)
        marker.unlink()
        report = SweepReport(spec_name="", n_points=0)
        assert run_sweep(spec, cache=cache, report=report) == [0, 10, 20, 30, 40, 50]
        # At least the points that beat the crash to the pool came back
        # cached; exact count depends on scheduling.
        assert report.n_cached >= 1
