"""The node-size experiments' default disk and SSD, from the device zoo in
:mod:`repro.storage.registry`; they and ``HDD_ZOO`` stay importable from
here because the experiments and ``benchmarks/perf`` name them so."""

from __future__ import annotations

from repro import storage
from repro.storage.registry import HDD_ZOO

__all__ = ["DEFAULT_HDD", "HDD_ZOO", "default_hdd", "default_ssd"]

#: The disk the node-size experiments run on (WD Black 2011 stand-in).
DEFAULT_HDD = "wd-black-1tb-2011-sim"


def default_hdd(*, seed: int = 0, trace: bool = False) -> storage.SimulatedHDD:
    """A fresh :data:`DEFAULT_HDD`."""
    return storage.build(DEFAULT_HDD, seed=seed, trace=trace)


def default_ssd() -> storage.SimulatedSSD:
    """The SSD used by PDAM-flavoured tree experiments."""
    return storage.build("samsung-860-pro-sim")
