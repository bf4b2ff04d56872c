"""Experiment harness: one module per paper table/figure.

Every experiment module exposes ``run(...)`` returning a result object
with a ``render()`` method (ASCII tables/series) and sensible scaled-down
defaults.  ``python -m repro.experiments <name>`` runs one (or ``all``).

``--list`` prints the registered names (``cli.EXPERIMENTS`` is the one
table); EXPERIMENTS.md maps each to its paper artifact and records what
it reproduces.  Pass ``--plot`` to append an ASCII rendering for the
figure experiments.
"""

from repro.experiments import report

__all__ = ["report"]
