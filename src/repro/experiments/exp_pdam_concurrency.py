"""E7 — Section 8 / Lemma 13: PDAM-adaptive B-tree layouts.

Compares three node layouts under ``k`` concurrent query clients on a
PDAM device (Section 8's design dilemma):

* ``flat_b``  — nodes of size ``B``: optimal throughput at ``k >= P``
  (every client advances one level per step) but wastes ``P - 1`` slots
  when ``k = 1``.
* ``flat_pb`` — nodes of size ``PB`` read in full: optimal at ``k = 1``
  (read-ahead fills all slots) but each query still moves ``P`` blocks
  per level, so throughput does not scale with ``k``.
* ``veb_pb``  — nodes of size ``PB`` in a van Emde Boas layout: each
  client consumes any read-ahead prefix usefully, giving Lemma 13's
  ``Omega(k / log_{PB/k} N)`` at *every* ``k <= P`` simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import report
from repro.runner import ResultCache, SweepPoint, SweepSpec, run_sweep

DEFAULT_CLIENTS = (1, 2, 4, 8, 16, 32)
MODES = ("flat_b", "flat_pb", "veb_pb")


@dataclass
class PDAMConcurrencyResult:
    """Throughput (queries per time step) per layout and client count."""

    parallelism: int
    block_bytes: int
    n_keys: int
    clients: tuple[int, ...]
    throughput: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        return report.render_series(
            f"Lemma 13 (simulated): query throughput vs concurrency "
            f"(P={self.parallelism}, B={report.format_bytes(self.block_bytes)}, "
            f"N={self.n_keys})",
            "k clients",
            list(self.clients),
            {mode: self.throughput[mode] for mode in MODES if mode in self.throughput},
            note=(
                "Throughput in queries per PDAM time step.  flat_b wins at "
                "k>=P, flat_pb at k=1; veb_pb matches or beats both at every "
                "k — the Lemma 13 guarantee."
            ),
        )

    def render_plot(self) -> str:
        from repro.experiments.plot import ascii_plot

        return ascii_plot(
            "Lemma 13 (simulated): throughput vs concurrency",
            list(self.clients),
            dict(self.throughput),
            log_x=True,
            x_label="k clients",
            y_label="queries/step",
        )

    def veb_dominates(self, slack: float = 0.85) -> bool:
        """Whether veb_pb is within ``slack`` of the best mode at every k."""
        for i in range(len(self.clients)):
            best = max(self.throughput[m][i] for m in self.throughput)
            if self.throughput["veb_pb"][i] < slack * best:
                return False
        return True


def run(
    *,
    parallelism: int = 8,
    block_bytes: int = 4096,
    n_keys: int = 1 << 16,
    clients: tuple[int, ...] = DEFAULT_CLIENTS,
    queries_per_client: int = 50,
    seed: int = 0,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> PDAMConcurrencyResult:
    """Run the three layouts across the client sweep.

    Each (layout, k) point is E20's ``cob_pdam_threads_point`` kernel —
    one definition of the Lemma 13 measurement for both experiments.
    """
    spec = SweepSpec.make(
        "pdam_concurrency",
        [
            SweepPoint.make(
                "cob_pdam_threads_point",
                mode=mode,
                clients=k,
                parallelism=parallelism,
                block_bytes=block_bytes,
                n_keys=n_keys,
                queries_per_client=queries_per_client,
                seed=seed,
            )
            for mode in MODES
            for k in clients
        ],
    )
    result = PDAMConcurrencyResult(
        parallelism=parallelism,
        block_bytes=block_bytes,
        n_keys=n_keys,
        clients=tuple(clients),
    )
    rows = iter(run_sweep(spec, jobs=jobs, cache=cache))
    for mode in MODES:
        result.throughput[mode] = [next(rows)["throughput"] for _ in clients]
    return result
