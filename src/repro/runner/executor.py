"""Sweep executor: serial or multiprocess, with optional result caching.

The contract is strict determinism: :func:`run_sweep` returns results in
spec order, and every result is bit-identical whether it was computed in
this process, in a worker, or read back from the cache.  Kernels make
that possible by being pure functions of their parameters; the executor
makes it visible by never letting scheduling order leak into output
order.

Worker processes are forked (Linux), so kernels and their imports are
inherited rather than re-imported; the payload crossing the pipe carries
the spec index, so out-of-order arrivals (:meth:`Pool.imap_unordered`)
land back in their spec slot.

**Crash safety.**  Fresh results are written to the cache *as each point
completes*, not after the whole sweep: an interrupted sweep — a crashed
worker, a ^C, an OOM kill — resumes from its completed points on the
next run.  A kernel that raises aborts the sweep by default
(``on_error="raise"``, previous behaviour); with ``on_error="isolate"``
the failing point yields a :class:`PointError` placeholder in its spec
slot and every other point still completes.  ``PointError`` results are
never cached — a fixed kernel recomputes them.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.runner.cache import ResultCache
from repro.runner.kernels import get_kernel
from repro.runner.spec import SweepSpec

#: Valid values for :func:`run_sweep`'s ``on_error`` parameter.
ON_ERROR_MODES = ("raise", "isolate")


@dataclass(frozen=True)
class PointError:
    """Placeholder result for a sweep point whose kernel raised.

    Returned (in the failing point's spec slot) by
    :func:`run_sweep(..., on_error="isolate")` so one bad point cannot
    sink a thousand good ones.  Carries enough to diagnose without
    re-running: the kernel name, the point's cache fingerprint, and the
    worker-side exception rendered to strings (the original exception
    object may not survive the pool boundary).
    """

    kernel: str
    fingerprint: str
    error_type: str
    message: str
    traceback: str

    def __str__(self) -> str:
        return (
            f"PointError({self.kernel}: {self.error_type}: {self.message} "
            f"[fingerprint {self.fingerprint[:12]}])"
        )


@dataclass
class SweepReport:
    """What a sweep run did, alongside its results."""

    spec_name: str
    n_points: int
    n_cached: int = 0
    n_computed: int = 0
    n_errors: int = 0
    jobs: int = 1
    fingerprints: tuple[str, ...] = field(default=())

    def summary(self) -> str:
        errors = f", {self.n_errors} errors" if self.n_errors else ""
        return (
            f"sweep {self.spec_name}: {self.n_points} points "
            f"({self.n_cached} cached, {self.n_computed} computed{errors}, "
            f"jobs={self.jobs})"
        )


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/0 -> all cores; a negative value raises."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    return jobs


@contextlib.contextmanager
def _gc_paused():
    """Suspend cyclic garbage collection for the duration of a kernel.

    Kernels allocate millions of small objects (load tuples, tree nodes,
    messages); the cyclic collector re-scans that long-lived heap on every
    threshold crossing and was costing more wall time than the simulation
    arithmetic itself.  Reference counting still reclaims everything the
    kernels free (their structures are acyclic apart from the caches' LRU
    sentinel rings, which live exactly as long as the kernel run), so
    pausing the collector changes no observable result — collection
    resumes, and the deferred scan happens, as soon as the kernel returns.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _run_point(
    payload: tuple[int, str, dict[str, Any], bool, bool],
) -> tuple[int, tuple[Any, ...]]:
    """Worker entry point: run one kernel.  Module-level for picklability.

    Returns ``(spec_index, outcome)`` with outcome either
    ``("ok", value, wall_seconds)`` or — only when ``guarded`` —
    ``("err", type_name, message, traceback_str)``.  Unguarded workers
    let the exception propagate so the pool re-raises it in the parent
    (the ``on_error="raise"`` contract).  The kernel call itself is
    identical in every mode, so results stay bit-for-bit the same.
    """
    idx, kernel_name, params, timed, guarded = payload
    start = time.perf_counter() if timed else 0.0
    try:
        with _gc_paused():
            value = get_kernel(kernel_name)(**params)
    except Exception as exc:
        if not guarded:
            raise
        return idx, ("err", type(exc).__name__, str(exc), traceback.format_exc())
    seconds = time.perf_counter() - start if timed else 0.0
    return idx, ("ok", value, seconds)


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    report: SweepReport | None = None,
    on_error: str = "raise",
) -> list[Any]:
    """Execute every point in ``spec``; results in spec order.

    ``jobs=1`` computes in-process; ``jobs>1`` fans uncached points over a
    fork-context :class:`multiprocessing.Pool`.  When ``cache`` is given,
    points whose fingerprint is present are read back instead of computed,
    and each fresh result is stored *the moment it completes*, so an
    interrupted sweep resumes from partial progress.

    ``on_error="raise"`` (default) propagates the first kernel exception
    (points already completed stay cached); ``on_error="isolate"`` puts a
    :class:`PointError` in the failing point's slot and keeps going.
    """
    if on_error not in ON_ERROR_MODES:
        raise ConfigurationError(
            f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
        )
    guarded = on_error == "isolate"
    jobs = resolve_jobs(jobs)
    results: list[Any] = [None] * len(spec.points)
    pending: list[int] = []  # spec indices that must be computed
    fingerprints: list[str] = []

    for i, point in enumerate(spec.points):
        fp = point.fingerprint()
        fingerprints.append(fp)
        if cache is not None:
            value = cache.get(fp)
            if not ResultCache.is_miss(value):
                results[i] = value
                continue
        pending.append(i)

    observe = OBS.enabled
    if observe:
        OBS.counter("runner.points").inc(len(spec.points))
        OBS.counter("runner.cache_hits").inc(len(spec.points) - len(pending))
        OBS.counter("runner.cache_misses").inc(len(pending))

    n_errors = 0

    def settle(i: int, outcome: tuple[Any, ...]) -> None:
        """Land one arrival in its spec slot; cache and observe it now."""
        nonlocal n_errors
        if outcome[0] == "ok":
            _, value, seconds = outcome
            results[i] = value
            if cache is not None:
                cache.put(fingerprints[i], value)
            if observe:
                OBS.histogram("runner.point_seconds").record(seconds)
                if OBS.tracer is not None:
                    OBS.tracer.record(
                        "runner.point",
                        0.0,
                        seconds,
                        clock="wall",
                        sweep=spec.name,
                        kernel=spec.points[i].kernel,
                        fingerprint=fingerprints[i],
                    )
        else:
            _, error_type, message, tb = outcome
            n_errors += 1
            results[i] = PointError(
                kernel=spec.points[i].kernel,
                fingerprint=fingerprints[i],
                error_type=error_type,
                message=message,
                traceback=tb,
            )
            if observe:
                OBS.counter("runner.point_errors").inc()

    payloads = [
        (i, spec.points[i].kernel, spec.points[i].param_dict(), observe, guarded)
        for i in pending
    ]
    if payloads:
        sweep_start = time.perf_counter()
        if jobs > 1 and len(payloads) > 1:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=min(jobs, len(payloads))) as pool:
                # Unordered arrival => each result is cached as soon as it
                # exists, not when its spec-order predecessors finish.
                for i, outcome in pool.imap_unordered(_run_point, payloads):
                    settle(i, outcome)
        else:
            for payload in payloads:
                settle(*_run_point(payload))
        if observe:
            sweep_end = time.perf_counter()
            if OBS.tracer is not None:
                OBS.tracer.record(
                    "runner.sweep",
                    sweep_start,
                    sweep_end,
                    clock="wall",
                    sweep=spec.name,
                    jobs=jobs,
                    n_points=len(spec.points),
                    n_computed=len(pending),
                )

    if report is not None:
        report.spec_name = spec.name
        report.n_points = len(spec.points)
        report.n_cached = len(spec.points) - len(pending)
        report.n_computed = len(pending)
        report.n_errors = n_errors
        report.jobs = jobs
        report.fingerprints = tuple(fingerprints)
    return results
