"""Kernel conformance: every spec point binds, every name resolves alone.

A sweep point carries only its kernel's *name* and keyword parameters;
nothing type-checks the pair until the kernel runs.  These tests close
that gap without running a simulation, and pin the fresh-process
resolution rule of :func:`repro.runner.get_kernel` (docs/runner.md) and
what a process that only sweeps carries: no scipy until something fits.
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


def run_fresh(script: str) -> str:
    """``script``'s stdout from a fresh interpreter that sees only ``src/``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


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
    home, *loaded = run_fresh(script).split()
    assert home == f"repro.experiments.{KERNEL_HOMES[name]}"
    assert loaded == [home]  # not the other 19 experiment modules


def test_a_sweep_process_never_imports_scipy():
    # The serving, recovery, tuning, lint and CLI packages, every kernel's
    # home module, and one E5 and one E21 point actually run: scipy (~45 MiB
    # resident, ~0.5 s to import) must not ride along with any of it.
    script = (
        "import importlib, sys\n"
        "import repro.trees, repro.storage, repro.runner, repro.serve\n"
        "import repro.recovery, repro.tuning, repro.lint, repro.experiments.cli\n"
        "from repro.runner import get_kernel\n"
        "from repro.runner.kernels import KERNEL_HOMES\n"
        "for home in sorted(set(KERNEL_HOMES.values())):\n"
        "    importlib.import_module(f'repro.experiments.{home}')\n"
        "from repro.experiments import exp_btree_nodesize, exp_durability\n"
        "e5 = exp_btree_nodesize.sweep_spec(node_sizes=(4096,), n_entries=3000,\n"
        "    n_queries=20, n_inserts=20, warmup_queries=10)\n"
        "e21 = exp_durability.sweep_spec(devices=('affine',), group_commits=(4,),\n"
        "    checkpoints=(0,), n_ops=60, n_load=32)\n"
        "for spec in (e5, e21):\n"
        "    point, = spec.points\n"
        "    assert get_kernel(point.kernel)(**point.param_dict())\n"
        "print('scipy' in sys.modules)\n"
    )
    assert run_fresh(script).split() == ["False"]


@pytest.mark.parametrize(
    "call",
    [
        "fit_affine_overlay(sizes, [btree_op_cost(B, 1e-5, 1e9, 1e6) for B in sizes])",
        "optimal_btree_node_size(1e-4)",
    ],
)
def test_the_first_fit_is_what_imports_scipy(call):
    script = (
        "import sys\n"
        "from repro.analysis.fitting import fit_affine_overlay\n"
        "from repro.models.analysis import btree_op_cost, optimal_btree_node_size\n"
        "sizes = [2.0 ** k for k in range(12, 20)]\n"
        "before = 'scipy' in sys.modules\n"
        f"{call}\n"
        "print(before, 'scipy' in sys.modules)\n"
    )
    assert run_fresh(script).split() == ["False", "True"]
