"""Kernel conformance: every spec point binds, every name resolves alone,
every kernel is pure, and no result depends on the hash seed.

A sweep point carries only its kernel's *name* and keyword parameters;
nothing type-checks the pair until the kernel runs.  These tests close
that gap without running a simulation, and pin the fresh-process
resolution rule of :func:`repro.runner.get_kernel` (docs/runner.md) and
what a process that only sweeps carries: no scipy until something fits.
Then they run small points: a kernel that keeps state between calls
(module-level caches, reused devices) gives a point a second, different
answer, and an iteration in hash order gives different results under two
``PYTHONHASHSEED`` values.
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
from repro import trees
from repro.experiments.common import nodesize_sweep_point
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


def run_fresh(script: str, **env: str) -> str:
    """``script``'s stdout from a fresh interpreter that sees only ``src/``,
    with ``env`` added to its environment."""
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, **env, "PYTHONPATH": src},
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




def test_a_sweep_process_never_imports_scipy():
    # The serving, recovery, tuning and CLI packages, every kernel's
    # home module, and one E5 and one E21 point actually run: scipy (~45 MiB
    # resident, ~0.5 s to import) must not ride along with any of it.
    script = (
        "import importlib, sys\n"
        "import repro.trees, repro.storage, repro.runner, repro.serve\n"
        "import repro.recovery, repro.tuning, repro.experiments.cli\n"
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


def small_points() -> dict[str, tuple]:
    """Two points ``(a, b)`` of every kernel, from the specs that drive it at
    sizes that run in milliseconds.

    A kernel with its own module gives one pair, keyed by its name.  The
    shared node-size kernel (home ``common``) gives one pair per spec that
    drives it, keyed ``<spec name>_point``: each spec binds it to its own
    windows, query order and device, so each is a case of its own."""
    from repro.experiments import (
        exp_affine_validation,
        exp_asymmetry,
        exp_autotune,
        exp_betree_nodesize,
        exp_btree_nodesize,
        exp_cob_compare,
        exp_durability,
        exp_epsilon_tradeoff,
        exp_lsm_nodesize,
        exp_optimizations,
        exp_serve_tail,
        exp_tail_resilience,
        exp_write_amp,
    )

    specs = (
        exp_affine_validation.sweep_spec(io_sizes=(4096, 65536), reads_per_size=8),
        exp_asymmetry.sweep_spec(
            write_multipliers=(5.0,), fanouts=(2, 8), node_bytes=16 << 10, n_entries=3000,
            cache_bytes=64 << 10, n_queries=20,
        ),
        exp_autotune.sweep_spec(
            node_sizes=(4096,), n_entries=3000, cache_bytes=64 << 10, n_queries=10,
            warmup_queries=5,
        ),
        exp_betree_nodesize.sweep_spec(
            node_sizes=(16 << 10, 64 << 10), n_entries=3000, cache_bytes=64 << 10,
            n_queries=20, max_inserts=200, warmup_queries=10,
        ),
        exp_btree_nodesize.sweep_spec(
            node_sizes=(4096, 16384), n_entries=3000, cache_bytes=64 << 10,
            n_queries=20, n_inserts=20, warmup_queries=10,
        ),
        exp_cob_compare.sweep_spec(
            models=("affine",), node_sizes=(16 << 10,), threads=(1, 2), n_entries=2000,
            n_queries=20, n_inserts=50, warmup_queries=10, thread_keys=1 << 10,
            queries_per_client=5, adversary_keys=1 << 12, adversary_scan=100,
        ),
        exp_durability.sweep_spec(
            devices=("affine",), group_commits=(1, 4), checkpoints=(0,), n_ops=60, n_load=32
        ),
        exp_epsilon_tradeoff.sweep_spec(
            node_bytes=16 << 10, fanouts=(2, 8), n_entries=3000, cache_bytes=64 << 10,
            n_queries=20,
        ),
        exp_lsm_nodesize.sweep_spec(
            sstable_sizes=(16 << 10, 64 << 10), n_loaded=2000, min_inserts=100,
            max_inserts=500, n_queries=20,
        ),
        exp_optimizations.sweep_spec(
            node_bytes=16 << 10, n_entries=3000, cache_bytes=64 << 10, n_queries=20,
            n_inserts=200,
        ),
        exp_serve_tail.sweep_spec(
            rates=(300.0,), policies=("none", "hedge"), trees=("btree",),
            duration_seconds=0.2, n_entries=1000, warm_queries=16,
        ),
        exp_tail_resilience.sweep_spec(
            intensities=(1.0,), policies=("none", "hedge"), trees=("btree",),
            n_entries=2000, cache_bytes=64 << 10, n_queries=20, warmup_queries=10,
            n_rounds=100,
        ),
        exp_write_amp.sweep_spec(node_sizes=(16 << 10,), n_loaded=3000, n_inserts=100),
    )
    points: dict[str, list] = {}
    for spec in specs:
        for point in spec.points:
            shared = not KERNEL_HOMES[point.kernel].startswith("exp_")
            case = f"{spec.name}_point" if shared else point.kernel
            points.setdefault(case, []).append(point)
    return {case: (found[0], found[1]) for case, found in points.items()}


SMALL_POINTS = small_points()


def test_every_kernel_has_small_points():
    # A kernel registered without a row here would escape the purity test.
    assert {a.kernel for a, _ in SMALL_POINTS.values()} == set(KERNEL_HOMES)


@pytest.mark.parametrize("case", sorted(SMALL_POINTS))
def test_fresh_interpreter_resolves_one_kernel_by_importing_one_module(case):
    # What a sweep worker does with a point: resolve its kernel by name and
    # bind its parameters, importing only the kernel's home module.
    point, _ = SMALL_POINTS[case]
    name = point.kernel
    script = (
        "import inspect, sys\n"
        "from repro.runner import get_kernel, kernel_names\n"
        f"assert {name!r} in kernel_names()\n"
        f"fn = get_kernel({name!r})\n"
        f"inspect.signature(fn).bind(**{point.param_dict()!r})\n"
        "loaded = sorted(m for m in sys.modules if '.exp_' in m)\n"
        "print(fn.__module__, *loaded)\n"
    )
    home, *loaded = run_fresh(script).split()
    assert home == f"repro.experiments.{KERNEL_HOMES[name]}"
    assert set(loaded) <= {home}  # not the other experiment modules


@pytest.mark.parametrize("kind", trees.KINDS)
def test_the_nodesize_kernel_measures_every_kind(kind):
    # One kernel, no per-kind code: every registry kind loads, prefills
    # (by its amortization unit, where it has one) and measures through it.
    point = nodesize_sweep_point(
        kind=kind, device="affine", node_bytes=8 << 10, cache_bytes=64 << 10,
        n_entries=2000, universe=1 << 20, n_queries=20, warmup_queries=10,
        prefill_units=0.5, max_prefill=1000, insert_units=1.0, min_inserts=100,
        max_inserts=1000, seed=0,
    )
    row = get_kernel(point.kernel)(**point.param_dict())
    assert set(row) == {"query_ms", "insert_ms", "write_amp"}
    assert row["query_ms"] >= 0
    assert row["insert_ms"] > 0 and row["write_amp"] > 0


@pytest.mark.parametrize("case", sorted(SMALL_POINTS))
def test_a_kernel_result_does_not_depend_on_what_ran_before_it(case):
    # b, then a, then b again in one process: state a kernel keeps between
    # calls (a module-level device, cache or RNG) moves the second b.
    a, b = SMALL_POINTS[case]
    assert a != b
    kernel = get_kernel(a.kernel)
    first = kernel(**b.param_dict())
    kernel(**a.param_dict())
    assert kernel(**b.param_dict()) == first


def test_results_do_not_depend_on_the_hash_seed():
    # One two-tenant serve run and one sweep over string-keyed devices, in
    # two interpreters whose str hashes differ: a set or dict iterated in
    # hash order into a result moves the digest.
    script = (
        "import hashlib\n"
        "from repro.experiments import exp_durability, exp_serve_tail\n"
        "from repro.runner import get_kernel, run_sweep\n"
        "serve, = exp_serve_tail.sweep_spec(rates=(400.0,), policies=('admit+hedge',),\n"
        "    trees=('btree',), duration_seconds=0.5, n_entries=1000, warm_queries=16).points\n"
        "rows = [get_kernel(serve.kernel)(**serve.param_dict())]\n"
        "rows += run_sweep(exp_durability.sweep_spec(group_commits=(4,), checkpoints=(0,),\n"
        "    n_ops=60, n_load=32))\n"
        "print(hashlib.sha256(repr(rows).encode()).hexdigest())\n"
    )
    assert run_fresh(script, PYTHONHASHSEED="0") == run_fresh(script, PYTHONHASHSEED="1")
