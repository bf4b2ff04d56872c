"""The device registry: ``build(name)`` is how devices get made.

One :class:`DeviceKind` per device class, with a default for every field,
and :data:`ZOO`, the paper's hardware as presets of those kinds.  Callers
name a preset or loop over :data:`KINDS`, so a new kind needs only its entry.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.models.affine import AffineModel
from repro.models.pdam import PDAMModel
from repro.storage.device import BlockDevice
from repro.storage.hdd import HDDGeometry, SimulatedHDD, hdd_geometry_for
from repro.storage.ideal import AffineDevice, PDAMDevice
from repro.storage.ram import ConstantLatencyDevice, NullDevice
from repro.storage.ssd import SSDGeometry, SimulatedSSD


@dataclass(frozen=True)
class DeviceKind:
    """One registry entry.  ``defaults`` holds every field :func:`build`
    takes for the kind and its value when none is given.  The fields that
    ``model`` (a cost model or geometry) takes build it, the device's first
    argument; the rest are the device's keywords.  Only a ``seeded`` device
    (the HDD's rotation stream) is handed ``build``'s seed."""

    name: str
    device: type[BlockDevice]
    defaults: Mapping[str, Any]
    model: type | None = None
    seeded: bool = False


_TERABYTE = {"capacity_bytes": 2**40}
_REGISTRY: dict[str, DeviceKind] = {
    entry.name: entry
    for entry in (
        DeviceKind("null", NullDevice, _TERABYTE),
        DeviceKind("constant", ConstantLatencyDevice, dict(_TERABYTE, latency_seconds=1e-3)),
        DeviceKind("affine", AffineDevice, dict(
            _TERABYTE, alpha=1e-6, setup_seconds=0.01, write_multiplier=1.0,
        ), AffineModel),
        DeviceKind("pdam", PDAMDevice, dict(
            _TERABYTE, parallelism=4, block_bytes=4096, step_seconds=1e-4
        ), PDAMModel),
        DeviceKind(
            "hdd", SimulatedHDD, dataclasses.asdict(HDDGeometry()), HDDGeometry, seeded=True
        ),
        DeviceKind("ssd", SimulatedSSD, dataclasses.asdict(SSDGeometry()), SSDGeometry),
    )
}

#: Every device kind :func:`build` knows, in registry order.
KINDS: tuple[str, ...] = tuple(_REGISTRY)

#: Table 2 rows: name -> (year, s seconds, t seconds per 4 KiB).
HDD_ZOO: dict[str, tuple[int, float, float]] = {
    "seagate-2tb-2002-sim": (2002, 0.018, 0.000021),
    "seagate-250gb-2006-sim": (2006, 0.015, 0.000033),
    "hitachi-1tb-2009-sim": (2009, 0.013, 0.000041),
    "wd-black-1tb-2011-sim": (2011, 0.012, 0.000035),
    "wd-red-6tb-2018-sim": (2018, 0.016, 0.000026),
}

#: Table 1 rows: name -> (channels, page read s, channel transfer s).
SSD_ZOO_ROWS = {
    "samsung-860-pro-sim": (2, 25.6e-6, 15.5e-6),  # fitted P=3.3, ~530 MB/s (SATA)
    "samsung-970-pro-sim": (4, 9e-6, 6.55e-6),  # P=5.5, ~2500 MB/s (NVMe)
    "silicon-power-s55-sim": (1, 45.7e-6, 15.75e-6),  # P=2.9, ~260 MB/s
    "sandisk-ultra-ii-sim": (2, 36.2e-6, 15.75e-6),  # P=4.6, ~520 MB/s
}

#: The paper's hardware as presets: name -> (kind, fields).  Simulations,
#: not the real devices: the ``-sim`` suffix keeps that visible in every
#: table.  The disks reproduce Table 2's ``(s, t)``, with the seek curve and
#: rotation chosen so the *mean* setup cost is ``s``.  The SSDs target Table
#: 1's saturation throughput, with far more dies than its fitted ``P`` so
#: that the channel buses saturate first and clients rarely collide on a
#: die below the knee.  The affine extremes, given as ``from_hardware``'s
#: ``(s, t per byte)``, span the alpha range the tuner must cover.
ZOO: dict[str, tuple[str, dict[str, Any]]] = {
    **{
        name: ("hdd", dataclasses.asdict(hdd_geometry_for(s, t4k)))
        for name, (_, s, t4k) in HDD_ZOO.items()
    },
    **{
        name: ("ssd", dict(capacity_bytes=64 * 2**30, channels=channels, dies_per_channel=8,
                           page_read_seconds=read, channel_transfer_seconds=transfer))
        for name, (channels, read, transfer) in SSD_ZOO_ROWS.items()
    },
    "affine-lowalpha-sim": ("affine", dict(alpha=9.26e-10 / 0.05, setup_seconds=0.05)),
    "affine-highalpha-sim": ("affine", dict(alpha=9.26e-9 / 2e-5, setup_seconds=2e-5)),
}


def check_name(name: str) -> tuple[DeviceKind, dict[str, Any]]:
    """``name``'s entry and preset fields (none for a bare kind); anything
    else is refused, naming :data:`KINDS` and :data:`ZOO`."""
    if name in _REGISTRY:
        return _REGISTRY[name], {}
    if name in ZOO:
        kind, fields = ZOO[name]
        return _REGISTRY[kind], fields
    raise ConfigurationError(
        f"unknown device {name!r}; expected one of KINDS {KINDS} or ZOO {tuple(ZOO)}"
    )


def build(name: str, *, seed: int = 0, trace: bool = False, **fields: Any) -> BlockDevice:
    """A fresh device: kind ``name`` at its defaults, or preset ``name``.

    ``fields`` override both; one the kind lacks is refused, naming those
    it has.  ``seed`` reaches only a seeded kind; ``trace`` records every IO.
    """
    entry, preset = check_name(name)
    unknown = sorted(set(fields) - set(entry.defaults))
    if unknown:
        raise ConfigurationError(
            f"a {entry.name} device has no field(s) {unknown}; known: {sorted(entry.defaults)}"
        )
    kwargs = {**entry.defaults, **preset, **fields}
    args = []
    if entry.model is not None:
        taken = inspect.signature(entry.model).parameters
        args.append(entry.model(**{key: kwargs.pop(key) for key in taken}))
    if entry.seeded:
        kwargs["seed"] = seed
    return entry.device(*args, **kwargs, trace=trace)
