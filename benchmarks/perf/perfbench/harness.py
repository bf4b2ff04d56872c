"""The measuring loop shared by the six workloads.

One *pass* is: set up (several times, for a steady ``setup_s``), then
timed iterations with a calibration loop before each, then a final
verification.  Simulated statistics are taken from the first
``min_iterations`` iterations only, so they — and the ``sim_digest`` over
them — do not depend on how many iterations the host had time for.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import struct
import zlib
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Iterable, Sequence

import numpy as np

from perfbench.spans import BENCH, Tracer

#: Wall seconds of :func:`calibration` on the reference machine; rates are
#: reported as if the interpreter ran the loop in exactly this time.
REFERENCE_CALIBRATION_S = 0.20

#: Iterations whose simulated statistics are recorded (and the fewest a
#: pass runs, whatever ``--seconds`` says).
MIN_ITERATIONS = 7

#: Fewest set-ups per untraced pass; ``setup_s`` is their median.
SETUP_REPEATS = 3


def derive_seed(base_seed: int, *parts: object) -> int:
    """The one place ``--seed`` turns into a stream seed.

    CRC32 over the repr of ``(base_seed, *parts)``: stable across
    processes and Python versions, and a stream's seed depends only on its
    own name, never on which other streams exist.  The same recipe as
    ``repro.serve.derive_seed``, kept here on purpose: the benchmark's
    inputs must not move when ``src/`` is edited.
    """
    text = repr((int(base_seed),) + tuple(parts)).encode("utf-8")
    return zlib.crc32(text) & 0x7FFFFFFF


def calibration() -> float:
    """A fixed pure-Python workload shaped like the simulator's kernels.

    Copied from ``benchmarks/bench_engine_vector.py`` (``_calibration``):
    dict churn, bisect-maintained sorted lists and small-object float
    arithmetic.  Returns its wall seconds; the amount of work is fixed.
    Runs with the cyclic collector paused: the loop's 20 000 tracked lists
    make collections land at random inside it (17 % run-to-run spread with
    the collector on, 2 % with it off), and it calibrates the interpreter.
    """
    import bisect

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _calibration_loop(bisect)
    finally:
        if was_enabled:
            gc.enable()


def _calibration_loop(bisect: Any) -> float:
    start = perf_counter()
    acc: dict[int, list[int]] = {}
    keys: list[int] = []
    clock = 0.0
    x = 123456789
    for i in range(120_000):
        x = (x * 1103515245 + 12345) % (1 << 31)
        k = x % 50_000
        lst = acc.get(k)
        if lst is None:
            acc[k] = [i]
            bisect.insort(keys, k)
        else:
            lst.append(i)
        clock += 1e-6 * (k % 7 + 1)
        if len(acc) > 20_000:
            acc.clear()
            keys.clear()
    return perf_counter() - start


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 where the denominator is 0 (an idle layer)."""
    return num / den if den else 0.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(samples: np.ndarray) -> tuple[float, float]:
    """``(percentile, value)`` of the highest tail the sample supports.

    p99.9 with at least 10^4 samples; otherwise the highest percentile
    that still has ten samples beyond it (the maximum below 11 samples).
    """
    n = samples.size
    if n >= 10_000:
        pct = 99.9
    elif n > 10:
        pct = 100.0 * (n - 10) / n
    else:
        pct = 100.0
    return pct, float(np.percentile(samples, pct))


class Run:
    """State of one pass: seeds, oracle counts, simulated statistics."""

    def __init__(self, seed: int, scale: float, tracer: Tracer | None = None) -> None:
        self.seed = int(seed)
        self.scale = float(scale)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: True while the current iteration's simulated statistics count
        #: (never during set-up and warm-up).
        self.recording = False
        self.sim_seconds = 0.0
        self.sim_ops = 0
        self.sim_latencies: list[np.ndarray] = []
        self._digest = hashlib.sha256()
        #: Simulated statistics and public counters the workload reports
        #: beyond the common ones (``write_amp``, per-kind costs, ...).
        self.stats: dict[str, float] = {}
        self.notes: list[str] = []
        #: Devices and caches the workload built, for the public-counter
        #: metrics (see :mod:`perfbench.layers`).
        self.devices: list[Any] = []
        self.caches: list[Any] = []
        #: Public counters accumulated over the recorded iterations.
        self.counters: dict[str, float] = {}

    # -- inputs --------------------------------------------------------------

    def rng(self, *parts: object) -> np.random.Generator:
        """A private stream named by ``parts`` (see :func:`derive_seed`)."""
        return np.random.default_rng(derive_seed(self.seed, *parts))

    def sized(self, base: int, floor: int = 1) -> int:
        """``base`` scaled by ``--scale``, never below ``floor``."""
        return max(floor, int(round(base * self.scale)))

    # -- oracle --------------------------------------------------------------

    def expect(self, ok: bool, what: str, n_ops: int = 0) -> None:
        """Count ``n_ops`` attempted ops; one failure if ``ok`` is false."""
        self.attempted += n_ops
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def expect_equal(self, got: Sequence[Any], want: Sequence[Any], what: str) -> None:
        """Element-wise oracle: every disagreeing position is one failed op."""
        self.attempted += len(want)
        if got != want:
            bad = sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
            self.failed += bad
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {bad} of {len(want)} disagree with the model")

    # -- simulated statistics --------------------------------------------------

    def record(self, sim_seconds: float, ops: int, latencies: Iterable[float] = ()) -> None:
        """Add simulated seconds/ops/latency samples (recorded iterations only)."""
        if self.recording:
            self.sim_seconds += sim_seconds
            self.sim_ops += ops
            self.sim_latencies.append(np.asarray(latencies, dtype=np.float64))

    def latency_samples(self) -> np.ndarray:
        """Every recorded per-op simulated latency, in recording order."""
        return np.concatenate(self.sim_latencies)

    def digest(self, *values: Any) -> None:
        """Feed ordered simulated statistics into ``sim_digest``."""
        if not self.recording:
            return
        for value in values:
            if isinstance(value, float):
                self._digest.update(struct.pack("<d", value))
            elif isinstance(value, np.ndarray):
                self._digest.update(np.ascontiguousarray(value).tobytes())
            elif isinstance(value, list) and value and type(value[0]) is float:
                self._digest.update(np.asarray(value, dtype=np.float64).tobytes())
            elif isinstance(value, (list, tuple)):
                self.digest(*value)
            else:
                self._digest.update(repr(value).encode("utf-8"))

    @property
    def sim_digest(self) -> str:
        return self._digest.hexdigest()

    def public_counters(self) -> dict[str, float]:
        """Sums of the adopted devices' and caches' own counters, right now."""
        out = dict.fromkeys(
            ("ios", "bytes_read", "bytes_written", "sim_busy_s",
             "hits", "misses", "evictions", "writebacks"),
            0.0,
        )
        for device in self.devices:
            stats = device.stats
            out["ios"] += stats.ios
            out["bytes_read"] += stats.bytes_read
            out["bytes_written"] += stats.bytes_written
            out["sim_busy_s"] += stats.busy_seconds
        for cache in self.caches:
            stats = cache.stats
            out["hits"] += stats.hits
            out["misses"] += stats.misses
            out["evictions"] += stats.evictions
            out["writebacks"] += stats.dirty_evictions
        return out

    # -- tracing -------------------------------------------------------------

    def span(self, name: str, layer: str = BENCH, n: int = 1):
        """A span around a block of benchmark code (no-op when untraced).

        With the default layer it is a root span of a benchmark phase;
        with another layer it marks a call into a module function that
        cannot be wrapped on an instance (``fit_affine_model``, ...).
        """
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, layer, n)


class Pass:
    """What one pass measured."""

    def __init__(self) -> None:
        self.run: Run
        self.workload: Any
        self.setups: list[float] = []
        #: ``(ops, wall_seconds, calibration_seconds)`` per timed iteration;
        #: the calibration is the mean of the loops run just before and
        #: just after the iteration.
        self.iterations: list[tuple[int, float, float]] = []
        #: ``ru_maxrss`` (MiB) once the recorded iterations are done: like
        #: the simulated statistics, it must not depend on how many more
        #: iterations the host had time for (a write workload keeps growing).
        self.peak_rss_mb = 0.0

    @property
    def n_ops(self) -> int:
        return sum(ops for ops, _, _ in self.iterations)

    @property
    def wall(self) -> float:
        return sum(wall for _, wall, _ in self.iterations)

    def normalised_rates(self) -> list[float]:
        return [
            ops / wall * (calib / REFERENCE_CALIBRATION_S)
            for ops, wall, calib in self.iterations
        ]


def measure(
    workload_cls: type,
    *,
    seed: int,
    scale: float,
    seconds: float,
    tracer: Tracer | None = None,
    fixed: bool = False,
    calibrate: bool = True,
    setups: int = SETUP_REPEATS,
) -> Pass:
    """Run one pass of a workload.

    ``fixed`` stops after exactly the recorded iterations (the traced
    pass and its untraced twin must do identical work); otherwise the loop
    continues until ``seconds`` have gone by.  Each iteration is bracketed
    by calibration loops (one loop between consecutive iterations serves
    both); ``calibrate=False`` reuses the first one for every iteration.
    """
    out = Pass()
    min_iterations = getattr(workload_cls, "min_iterations", MIN_ITERATIONS)
    run = workload = None
    # A cheap set-up is repeated until it has been timed for half a second
    # in all, so that its median is as steady as an expensive one's.
    while len(out.setups) < setups or (
        setups > 1 and sum(out.setups) < 0.5 and len(out.setups) < 7
    ):
        run = workload = None
        gc.collect()
        run = Run(seed, scale, tracer)
        workload = workload_cls(run)
        start = perf_counter()
        with run.span("setup"):
            workload.setup()
        out.setups.append(perf_counter() - start)
    out.run, out.workload = run, workload

    # The loaded structures are long-lived; keep the cyclic collector from
    # re-scanning them on every threshold crossing inside timed regions.
    gc.collect()
    gc.freeze()
    counters_before = run.public_counters()
    try:
        before = calibration()
        begin = perf_counter()
        i = 0
        while i < min_iterations or (not fixed and perf_counter() - begin < seconds):
            run.recording = i < min_iterations
            with run.span("generate"):
                workload.prepare(i)
            with run.span("iteration"):
                ops, wall = workload.iteration(i)
            after = calibration() if calibrate else before
            out.iterations.append((ops, wall, (before + after) / 2))
            before = after
            if i == min_iterations - 1:
                out.peak_rss_mb = peak_rss_mb()
                counted = run.public_counters()
                run.counters = {k: counted[k] - counters_before[k] for k in counted}
                with run.span("verify"):
                    workload.snapshot()
            i += 1
        run.recording = False
        with run.span("verify"):
            workload.finish()
    finally:
        gc.unfreeze()
    return out


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
