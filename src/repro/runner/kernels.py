"""The sweep-kernel registry: names to the functions that measure.

A kernel is a pure function of its keyword parameters — it constructs
its own devices, workloads and trees from them, so the same parameters
give bit-identical results in any process, in any order, with or without
the result cache.  Kernels are addressed by name (a plain string) so a
:class:`~repro.runner.spec.SweepPoint` stays picklable and its
fingerprint stays stable across refactors that move code around.

There is no forwarding layer: :func:`register` decorates the measuring
function itself, in the experiment module whose ``sweep_spec()`` names
it, and importing that module registers it.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

from repro.errors import ConfigurationError

_REGISTRY: dict[str, Callable[..., Any]] = {}

#: The ``repro.experiments`` module that defines each experiment kernel.
#: A point only carries its kernel's name, so a process that has not yet
#: imported that experiment (a fresh interpreter calling
#: :func:`get_kernel`, E8 borrowing E20's thread-panel kernel) resolves
#: it by importing this one module — not the whole experiment registry.
#: The node-size kernel E5, E6, E11, E12, E14 and E20 share lives in
#: ``common``.
#: ``tests/runner/test_kernels.py`` proves the table equals what
#: importing every experiment registers.
KERNEL_HOMES: dict[str, str] = {
    "affine_validation_device": "exp_affine_validation",
    "autotune_device": "exp_autotune",
    "cob_adversary_point": "exp_cob_compare",
    "cob_pdam_threads_point": "exp_cob_compare",
    "durability_point": "exp_durability",
    "nodesize_point": "common",
    "serve_tail_point": "exp_serve_tail",
    "tail_resilience_pdam": "exp_tail_resilience",
    "tail_resilience_tree": "exp_tail_resilience",
}


def register(name: str):
    """Class a function as a sweep kernel under ``name``."""

    def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _REGISTRY:
            raise ConfigurationError(f"duplicate kernel name {name!r}")
        _REGISTRY[name] = fn
        return fn

    return deco


def get_kernel(name: str) -> Callable[..., Any]:
    """Resolve a kernel by name, importing its home module if need be."""
    if name not in _REGISTRY and name in KERNEL_HOMES:
        importlib.import_module(f"repro.experiments.{KERNEL_HOMES[name]}")
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel {name!r}; known: {list(kernel_names())}"
        ) from None


def kernel_names() -> tuple[str, ...]:
    """Every name :func:`get_kernel` resolves, sorted."""
    return tuple(sorted(_REGISTRY.keys() | KERNEL_HOMES.keys()))
