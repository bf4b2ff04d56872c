"""device_engine — closed loop, simulated clients, no trees.

Three phases per iteration, op = one device IO:

(a) E3 shape on ``default_hdd``: sizes 4 KiB x 4^k (k = 0..6), random
    512-aligned reads, half through ``read`` and half through one
    ``read_batch``; then the affine fit of per-size mean times.
(b) Figure 1 shape on ``default_ssd``: ``ClosedLoopRunner`` with
    k in {1, 2, 4, 8, 16, 32} clients of 64 KiB reads, once with scalar
    dispatch and once with ``service_batch``; then the segmented PDAM fit.
(c) ``ReadAheadScheduler.submit``/``step`` over a ``PDAMDevice`` (P = 8):
    clients scan runs of consecutive blocks, so read-ahead can be useful.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from perfbench.harness import Run, derive_seed, ratio
from perfbench.layers import adopt_device
from repro.analysis.fitting import fit_affine_model, fit_pdam_model
from repro.experiments.devices import HDD_ZOO, default_hdd, default_ssd
from repro.models.pdam import PDAMModel
from repro.storage.device import ReadRequest
from repro.storage.engine import ClosedLoopRunner
from repro.storage.ideal import PDAMDevice
from repro.storage.scheduler import ReadAheadScheduler

IO_SIZES = tuple(4096 * 4**k for k in range(7))
READS_PER_SIZE = 20_000
CLIENT_COUNTS = (1, 2, 4, 8, 16, 32)
REQUEST_BYTES = 64 << 10
REQUESTS_PER_CLIENT = 400
SCAN_CLIENTS = 3
SCAN_RUN = 16
SCAN_BLOCKS_PER_CLIENT = 6_000
PDAM_P, PDAM_BLOCK = 8, 4096
#: The zoo entry ``default_hdd`` instantiates: planted (s, t per 4 KiB).
_, PLANTED_S, PLANTED_T4K = HDD_ZOO["wd-black-1tb-2011-sim"]
SSD_GEOMETRY = default_ssd().geometry


class DeviceEngine:
    name = "device_engine"

    def __init__(self, run: Run) -> None:
        self.run = run
        self.fits: list[tuple[float, float, float]] = []  # affine err, P err, min r2
        self.makespan = 0.0
        self.utilization: list[float] = []
        self.prefetched = self.prefetch_used = 0

    def setup(self) -> None:
        self.hdd = default_hdd(seed=derive_seed(self.run.seed, "hdd"))
        adopt_device(self.run, self.hdd)
        # Warm-up: a third of an iteration, so set-up time is mostly the
        # same interpreter work the timed region does.
        self.prepare("warm", shrink=3)
        self.iteration("warm")

    def prepare(self, i, shrink: int = 1) -> None:
        run = self.run
        rng = run.rng("device_engine", i)
        n_reads = max(20, run.sized(READS_PER_SIZE) // shrink)
        self.offsets = [
            (rng.integers(0, (self.hdd.capacity_bytes - size) // 512, size=n_reads) * 512).tolist()
            for size in IO_SIZES
        ]
        n_requests = max(8, run.sized(REQUESTS_PER_CLIENT) // shrink)
        stripes = SSD_GEOMETRY.capacity_bytes // REQUEST_BYTES
        self.streams = {
            k: [
                [ReadRequest(o * REQUEST_BYTES, REQUEST_BYTES) for o in row]
                for row in rng.integers(0, stripes, size=(k, n_requests)).tolist()
            ]
            for k in CLIENT_COUNTS
        }
        n_blocks = max(SCAN_RUN, run.sized(SCAN_BLOCKS_PER_CLIENT) // shrink)
        starts = rng.integers(0, 1 << 24, size=(SCAN_CLIENTS, n_blocks // SCAN_RUN))
        self.scans = [
            [int(s) + j for s in row for j in range(SCAN_RUN)] for row in starts.tolist()
        ]

    # -- the three phases ------------------------------------------------------

    def _hdd_reads(self) -> tuple[int, float, np.ndarray]:
        hdd = self.hdd
        busy = hdd.stats.busy_seconds
        times = []
        start = perf_counter()
        for size, offsets in zip(IO_SIZES, self.offsets):
            half = len(offsets) // 2
            read = hdd.read
            scalar = [read(offset, size) for offset in offsets[:half]]
            times.append(scalar + hdd.read_batch(offsets[half:], size))
        wall = perf_counter() - start
        samples = np.asarray(times)
        run = self.run
        run.expect(
            bool((samples > 0).all())
            and abs(samples.sum() - (hdd.stats.busy_seconds - busy)) < 1e-6 * samples.sum(),
            "hdd read times disagree with the device's own busy seconds",
            n_ops=samples.size,
        )
        with run.span("fit_affine_model", "analysis"):
            fit = fit_affine_model(list(IO_SIZES), samples.mean(axis=1).tolist())
        self.affine = fit
        return samples.size, wall, samples

    def _closed_loops(self) -> tuple[int, float, float, list[float]]:
        run = self.run
        wall = sim = 0.0
        n_ios = 0
        makespans = []
        client_means: list[float] = []
        for k, streams in self.streams.items():
            finishes = []
            for batched in (False, True):
                ssd = default_ssd()
                adopt_device(run, ssd)
                runner = ClosedLoopRunner(
                    ssd.service_request,
                    service_batch=ssd.service_request_batch if batched else None,
                )
                if run.tracer is not None:
                    run.tracer.wrap(
                        runner, "storage.engine", ("run",),
                        count={"run": lambda args, _r: sum(len(s) for s in args[0])},
                    )
                start = perf_counter()
                finishes.append(runner.run(streams))
                wall += perf_counter() - start
            scalar, batch = finishes
            per_client = len(streams[0])
            n_ios += 2 * k * per_client
            run.expect(
                scalar == batch, f"service_batch dispatch diverged from scalar at k={k}",
                n_ops=2 * k * per_client,
            )
            makespans.append(max(scalar))
            # Closed-loop service time is only visible per client: a client's
            # finish time is the sum of its requests' service times.
            sim += 2 * sum(scalar)
            client_means.extend(f / per_client for f in scalar)
            run.digest(k, scalar)
            if run.recording:
                self.makespan += 2 * max(scalar)
                self.utilization.append(
                    k * per_client * REQUEST_BYTES / max(scalar)
                    / SSD_GEOMETRY.saturated_read_bytes_per_second
                )
        with run.span("fit_pdam_model", "analysis"):
            self.pdam = fit_pdam_model(
                list(CLIENT_COUNTS), makespans,
                bytes_per_thread=len(self.streams[1][0]) * REQUEST_BYTES,
            )
        return n_ios, wall, sim, client_means

    def _read_ahead(self) -> tuple[int, float, float]:
        run = self.run
        device = PDAMDevice(PDAMModel(parallelism=PDAM_P, block_bytes=PDAM_BLOCK))
        adopt_device(run, device)
        scheduler = ReadAheadScheduler(device)
        if run.tracer is not None:
            run.tracer.wrap(scheduler, "storage.scheduler", ("submit", "step"))
        have = [set() for _ in self.scans]
        cursor = [0] * len(self.scans)
        demanded: dict[int, int] = {}
        prefetched = used = 0
        ok = True
        start = perf_counter()
        while True:
            for c, scan in enumerate(self.scans):
                if c in demanded:
                    continue
                at = cursor[c]
                while at < len(scan) and scan[at] in have[c]:
                    at += 1
                    used += 1
                cursor[c] = at
                if at < len(scan):
                    demanded[c] = scan[at]
                    scheduler.submit(c, scan[at])
            if not demanded:
                break
            for c, blocks in scheduler.step().items():
                ok &= blocks[0] == demanded.pop(c)
                have[c].update(blocks)
                prefetched += len(blocks) - 1
                cursor[c] += 1
        wall = perf_counter() - start
        n_ios = device.stats.reads
        run.expect(ok, "a scheduler step did not serve the demanded block first", n_ops=n_ios)
        run.digest(device.clock, scheduler.steps, n_ios, prefetched, used)
        if run.recording:
            self.prefetched += prefetched
            self.prefetch_used += used
        return n_ios, wall, device.stats.busy_seconds

    def iteration(self, i) -> tuple[int, float]:
        run = self.run
        n_a, wall_a, samples = self._hdd_reads()
        n_b, wall_b, sim_b, client_means = self._closed_loops()
        n_c, wall_c, sim_c = self._read_ahead()
        run.record(float(samples.sum()), n_a, samples.ravel())
        run.record(sim_b, n_b, client_means)
        run.record(sim_c, n_c)
        run.digest(samples)
        if run.recording:
            s_err = abs(self.affine.setup_seconds - PLANTED_S) / PLANTED_S
            t_err = abs(self.affine.seconds_per_byte * 4096 - PLANTED_T4K) / PLANTED_T4K
            planted_p = SSD_GEOMETRY.expected_pdam_parallelism
            p_err = abs(self.pdam.parallelism - planted_p) / planted_p
            self.fits.append((max(s_err, t_err), p_err, min(self.affine.r2, self.pdam.r2)))
        return n_a + n_b + n_c, wall_a + wall_b + wall_c

    def snapshot(self) -> None:
        stats = self.run.stats
        affine, pdam, r2 = (np.asarray(col) for col in zip(*self.fits))
        stats["analysis.affine_rel_err"] = float(affine.max())
        stats["analysis.pdam_p_rel_err"] = float(pdam.max())
        stats["analysis.r2_min"] = float(r2.min())
        stats["sim.model_rel_err"] = float(max(affine.max(), pdam.max()))
        stats["storage.engine.sim_makespan_s"] = self.makespan
        stats["storage.engine.slot_utilization"] = float(np.mean(self.utilization))
        stats["storage.scheduler.prefetch_useful_ratio"] = ratio(
            self.prefetch_used, self.prefetched
        )
        self.run.digest(sorted(stats.items()))

    def finish(self) -> None:
        pass
