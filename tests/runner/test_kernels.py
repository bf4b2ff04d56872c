"""Kernel conformance: every spec point binds, every name resolves alone.

A sweep point carries only its kernel's *name* and keyword parameters;
nothing type-checks the pair until the kernel runs.  These tests close
that gap without running a simulation, and pin the fresh-process
resolution rule of :func:`repro.runner.get_kernel` (docs/runner.md).
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments
from repro.runner import get_kernel, kernel_names
from repro.runner.kernels import KERNEL_HOMES

EXPERIMENT_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(repro.experiments.__path__)
    if m.name.startswith("exp_")
)
SPEC_MODULES = [
    name for name in EXPERIMENT_MODULES
    if hasattr(importlib.import_module(f"repro.experiments.{name}"), "sweep_spec")
]


def test_spec_modules_found():
    # The frozen benchmark drives these three by name; the rest ride along.
    assert {"exp_btree_nodesize", "exp_betree_nodesize", "exp_durability"} <= set(
        SPEC_MODULES
    )


@pytest.mark.parametrize("module", SPEC_MODULES)
def test_stock_spec_points_bind_to_their_kernels(module):
    spec = importlib.import_module(f"repro.experiments.{module}").sweep_spec()
    for point in spec.points:
        inspect.signature(get_kernel(point.kernel)).bind(**point.param_dict())


def test_homes_table_is_what_importing_the_experiments_registers():
    import repro.experiments.cli  # noqa: F401 - imports all 20 experiment modules

    registered = {}
    for name in kernel_names():  # a stale table entry fails in get_kernel
        module = get_kernel(name).__module__
        if module.startswith("repro.experiments."):
            registered[name] = module.removeprefix("repro.experiments.")
    assert registered == KERNEL_HOMES


@pytest.mark.parametrize("name", sorted(KERNEL_HOMES))
def test_fresh_interpreter_resolves_one_kernel_by_importing_one_module(name):
    script = (
        "import sys\n"
        "from repro.runner import get_kernel, kernel_names\n"
        f"assert {name!r} in kernel_names()\n"
        f"fn = get_kernel({name!r})\n"
        "loaded = sorted(m for m in sys.modules if '.exp_' in m)\n"
        "print(fn.__module__, *loaded)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    home, *loaded = result.stdout.split()
    assert home == f"repro.experiments.{KERNEL_HOMES[name]}"
    assert loaded == [home]  # not the other 19 experiment modules
