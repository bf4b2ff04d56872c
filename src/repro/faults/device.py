"""Deterministic fault injection around any block device.

:class:`FaultyDevice` wraps a :class:`~repro.storage.device.BlockDevice`
and perturbs its timings according to a :class:`~repro.faults.plan.FaultPlan`,
optionally reacting with a :class:`~repro.faults.policy.ResiliencePolicy`:

* **latency spikes** — Pareto-tailed extra latency on a per-IO coin flip;
* **transient errors** — the IO runs, its time is charged to the inner
  device, then :class:`~repro.errors.TransientIOError` is raised (or the
  IO is retried with backoff, under the policy's budget);
* **degraded phases** — timed windows multiplying service time;
* **hedged reads** — when a read (base + spike) would run past the
  policy's deadline, a duplicate is issued at the deadline and the first
  completion wins.  The duplicate is a real IO: it charges the inner
  device again, which on a PDAM device burns one of the otherwise wasted
  parallel slots — the model-driven resilience move.

Determinism: all fault decisions come from the plan's own RNG stream,
touched *only* when the corresponding probability is positive.  A plan
with every probability at zero therefore leaves the wrapper's timings —
and the inner device's RNG position — byte-identical to the unwrapped
device.

Accounting: the wrapper keeps its own clock and
:class:`~repro.storage.device.DeviceStats` (what experiments read, faults
included); the inner device accumulates the raw attempts, so
``inner.stats.reads`` exceeds the wrapper's exactly by the retried and
hedged IOs.  A retry-exhausted IO propagates its error without advancing
the wrapper clock — the op failed; its wasted device time is visible on
the inner stats.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DeviceCrashed, TransientIOError
from repro.faults.crash import CrashPlan, CrashState
from repro.faults.plan import FaultPlan
from repro.faults.policy import FaultStats, ResiliencePolicy
from repro.obs import OBS
from repro.storage.device import BlockDevice


class FaultyDevice(BlockDevice):
    """A block device that misbehaves on schedule.

    Parameters
    ----------
    inner:
        The device whose timings are being perturbed.  Must be freshly
        constructed or reset — the wrapper assumes the clocks start
        together.
    plan:
        What to inject (see :class:`~repro.faults.plan.FaultPlan`).
    policy:
        How to react (default: :meth:`ResiliencePolicy.none`).
    crash:
        Optional :class:`~repro.faults.crash.CrashPlan`: die at a chosen
        IO ordinal or simulated time.  The crashed device raises
        :class:`~repro.errors.DeviceCrashed` on every IO until
        :meth:`recover` is called; a plan fires at most once per arming.
    """

    def __init__(
        self,
        inner: BlockDevice,
        plan: FaultPlan,
        *,
        policy: ResiliencePolicy | None = None,
        crash: CrashPlan | None = None,
        trace: bool = False,
    ) -> None:
        if isinstance(inner, FaultyDevice):
            raise ConfigurationError("nesting FaultyDevice wrappers is not supported")
        super().__init__(inner.capacity_bytes, trace=trace)
        self.inner = inner
        self.plan = plan
        self.policy = policy if policy is not None else ResiliencePolicy.none()
        self.fault_stats = FaultStats()
        self._rng = np.random.default_rng(plan.seed)
        self.recoveries = 0
        self.arm_crash(crash)

    # -- crash lifecycle -----------------------------------------------------

    def arm_crash(self, crash: CrashPlan | None) -> None:
        """(Re-)arm a crash plan; ``None`` disarms.

        Resets the IO ordinal to 0, so ``at_io`` counts IOs issued from
        this moment on — which is how the serve layer arms crashes only
        after load and warm-up.  Clears any existing crashed state.
        """
        self.crash = crash
        self._crash_rng = (
            np.random.default_rng(crash.seed) if crash is not None else None
        )
        self._crashed: CrashState | None = None
        self._crash_spent = False
        self._io_ordinal = 0

    @property
    def crashed(self) -> bool:
        """Whether the device is down (refusing IO until :meth:`recover`)."""
        return self._crashed is not None

    @property
    def crash_state(self) -> CrashState | None:
        """The IO the device died on, if it is (or was last) crashed."""
        return self._crashed

    @property
    def io_ordinal(self) -> int:
        """IOs issued since the crash plan was (dis)armed (crash-point space)."""
        return self._io_ordinal

    def recover(self) -> CrashState:
        """Bring a crashed device back; returns the crash it recovers from.

        The plan is spent: the device will not crash again until
        :meth:`arm_crash` or :meth:`reset` re-arms it.  Recovery itself is
        free at this layer — the *recovery IO* (log scan, replay) is real
        traffic the caller issues afterwards.
        """
        if self._crashed is None:
            raise ConfigurationError("recover() on a device that is not crashed")
        state = self._crashed
        self._crashed = None
        self._crash_spent = True
        self.recoveries += 1
        return state

    def _maybe_crash(self, kind: str, offset: int, nbytes: int, at: float) -> None:
        """Raise :class:`DeviceCrashed` if this IO is (or follows) the crash."""
        if self._crashed is not None:
            raise DeviceCrashed(
                f"device is crashed (since IO {self._crashed.ordinal}); "
                "call recover() before issuing IO",
                self._crashed,
            )
        crash = self.crash
        if crash is None or self._crash_spent:
            return
        if not crash.fires_at(self._io_ordinal, at):
            return
        persisted = 0
        if kind == "write" and crash.torn:
            # The torn fraction comes from the crash plan's own stream, so
            # the fault-plan RNG position stays byte-identical to a
            # crash-free run right up to the crash point.
            persisted = int(float(self._crash_rng.random()) * nbytes)
        state = CrashState(
            ordinal=self._io_ordinal,
            at_seconds=at,
            kind=kind,
            offset=offset,
            nbytes=nbytes,
            persisted_bytes=persisted,
        )
        self._crashed = state
        self.fault_stats.crashes += 1
        if OBS.enabled:
            OBS.counter("faults.injected").inc()
            OBS.counter("faults.crashes").inc()
        raise DeviceCrashed(
            f"device crashed on {kind} #{state.ordinal} at offset {offset} "
            f"({persisted}/{nbytes} bytes persisted)",
            state,
        )

    # -- fault pipeline ------------------------------------------------------

    def _draw_spike(self) -> float:
        """Extra seconds of a latency spike (0.0 when the coin says no).

        Touches the RNG only when spikes are enabled; a spike draws once
        for the coin and once for the Pareto magnitude.
        """
        plan = self.plan
        if plan.spike_prob <= 0.0:
            return 0.0
        if self._rng.random() >= plan.spike_prob:
            return 0.0
        magnitude = plan.spike_seconds * (1.0 + float(self._rng.pareto(plan.spike_alpha)))
        self.fault_stats.spikes_injected += 1
        if OBS.enabled:
            OBS.counter("faults.injected").inc()
            OBS.counter("faults.spikes").inc()
            OBS.histogram("faults.spike_seconds").record(magnitude)
        return magnitude

    def _draw_error(self) -> bool:
        """Whether this attempt fails transiently (RNG touched only if enabled)."""
        plan = self.plan
        if plan.error_prob <= 0.0:
            return False
        if self._rng.random() >= plan.error_prob:
            return False
        self.fault_stats.errors_injected += 1
        if OBS.enabled:
            OBS.counter("faults.injected").inc()
            OBS.counter("faults.errors").inc()
        return True

    def _service(self, kind: str, offset: int, nbytes: int, at: float) -> float:
        """One resilient IO: inject faults, apply the policy, price the result.

        Returns the completion time; raises :class:`TransientIOError` when
        an injected error survives the retry budget.
        """
        # Each fault stage is entered only when its plan can act; the stages
        # keep their own zero checks, so the RNG discipline is theirs alone.
        if self._crashed is not None or (self.crash is not None and not self._crash_spent):
            self._maybe_crash(kind, offset, nbytes, at)
        self._io_ordinal += 1
        plan, policy = self.plan, self.policy
        inner_io = self.inner.read if kind == "read" else self.inner.write
        factor = plan.slowdown_at(at) if plan.degraded else 1.0
        spent = 0.0  # seconds this op has consumed so far (attempts + waits)
        backoff = policy.backoff_seconds
        attempt = 0
        while True:
            base = inner_io(offset, nbytes)
            if not (plan.error_prob > 0 and self._draw_error()):
                break
            # The failed attempt ran to completion before failing: its
            # device time is part of the op, whatever happens next.
            spent += base * factor
            if (
                not policy.retries_enabled
                or attempt >= policy.max_retries
                or spent + backoff > policy.timeout_seconds
            ):
                self.fault_stats.retry_giveups += 1
                if OBS.enabled:
                    OBS.counter("io.retry_giveups").inc()
                raise TransientIOError(
                    f"injected transient {kind} failure at offset {offset} "
                    f"(attempt {attempt + 1}, {spent:.3g}s spent)"
                )
            spent += backoff
            backoff *= policy.backoff_multiplier
            attempt += 1
            self.fault_stats.retries += 1
            if OBS.enabled:
                OBS.counter("io.retries").inc()

        service = base * factor
        if plan.spike_prob > 0:
            service += self._draw_spike()
        if (
            kind == "read"
            and policy.hedge_enabled
            and service > policy.hedge_deadline_seconds
        ):
            # Issue a duplicate at the deadline; first completion wins.
            # The duplicate is a full second IO (charged to the inner
            # device — on a PDAM this is the spare-slot spend) and draws
            # its own spike, so hedging turns the tail into min-of-two.
            self.fault_stats.hedges_issued += 1
            dup = policy.hedge_deadline_seconds + inner_io(offset, nbytes) * factor
            dup += self._draw_spike()
            if OBS.enabled:
                OBS.counter("io.hedges_issued").inc()
            if dup < service:
                service = dup
                self.fault_stats.hedge_wins += 1
                if OBS.enabled:
                    OBS.counter("io.hedge_wins").inc()
        return at + spent + service

    @property
    def bridge_bytes(self) -> int:
        """The inner device's: :meth:`read_set` plans as the wrapped device
        would and charges each run through this wrapper's :meth:`read`, so
        a fault lands on one run."""
        return self.inner.bridge_bytes

    def _obs_io(self, kind: str, offset: int, nbytes: int, start: float, end: float) -> None:
        """Publish no ``device.*`` event: the inner device published one per
        attempt, with its seek/transfer split; the wrapper's own are the
        ``faults.*`` and ``io.*`` counters of :meth:`_service`."""

    # -- lifecycle --------------------------------------------------------------

    def reset(self) -> None:
        """Reset wrapper clock/stats, fault counters, RNGs, and the inner device.

        Re-arms the crash plan (spent or not): a reset device is a fresh
        run, so the plan fires again at the same point.
        """
        super().reset()
        self.inner.reset()
        self.fault_stats.reset()
        self._rng = np.random.default_rng(self.plan.seed)
        self.recoveries = 0
        self.arm_crash(self.crash)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultyDevice({self.inner!r}, plan.seed={self.plan.seed}, "
            f"policy={self.policy.name})"
        )
