"""Goldens: runner-migrated experiments are byte-identical at any job count.

The golden files pin the *rendered report text* of small E3, E5, E6, E11,
E17 and E20 configurations.  Each test runs the experiment twice — serially and with
four workers — and compares both outputs byte-for-byte against the
checked-in golden, so a change that perturbs numbers, ordering, or
formatting (including one smuggled in via the parallel path or the result
cache) fails loudly.  E1 has no sweep: its golden is the default Figure
1/Table 1 report, run once.

Regenerate after an *intentional* semantic change (and bump
``repro.runner.cache.CACHE_EPOCH`` at the same time) with::

    PYTHONPATH=src python tests/runner/test_determinism.py --regen

Last regenerated at ``CACHE_EPOCH`` 8, when the knobless trees' batched
lookups came to issue one planned ``read_set`` per dependent step: only
E20's ``cola q``, ``cob q`` and ``cob-buffered q`` cells moved (E20's
golden was captured at epoch 7 just before).
"""

from pathlib import Path

import pytest

from repro.experiments import exp_affine_validation as e3
from repro.experiments import exp_autotune as e17
from repro.experiments import exp_betree_nodesize as e6
from repro.experiments import exp_btree_nodesize as e5
from repro.experiments import exp_cob_compare as e20
from repro.experiments import exp_lsm_nodesize as e11
from repro.experiments import exp_pdam_validation as e1
from repro.runner import ResultCache

GOLDEN_DIR = Path(__file__).parent / "goldens"

# Two zoo disks, three IO sizes: seconds of runtime, full code path.
E3_KWARGS = dict(
    io_sizes=(4096, 65536, 1 << 20),
    reads_per_size=8,
    devices=("seagate-2tb-2002-sim", "wd-black-1tb-2011-sim"),
    seed=0,
)

# Three node sizes (the overlay fit's minimum) on a small tree bigger than
# its cache.
E5_KWARGS = dict(
    node_sizes=(4096, 65536, 1 << 20),
    n_entries=20_000,
    cache_bytes=1 << 20,
    n_queries=15,
    n_inserts=15,
    warmup_queries=50,
    seed=0,
)

# Three node sizes (the overlay fit's minimum) on a small tree.
E6_KWARGS = dict(
    node_sizes=(65536, 262144, 1 << 20),
    n_entries=5000,
    cache_bytes=1 << 20,
    n_queries=15,
    max_inserts=500,
    warmup_queries=50,
    seed=0,
)

# Three SSTable sizes: the smallest one's insert window counts memtable
# flush cycles, the two larger ones' are clamped to ``max_inserts``.
E11_KWARGS = dict(
    sstable_sizes=(64 << 10, 256 << 10, 1 << 20),
    n_loaded=8000,
    min_inserts=2000,
    max_inserts=10_000,
    n_queries=15,
    seed=0,
)

# One disk and one SSD, three node sizes: the whole autotune loop (probe,
# fit with its R² retries, solve, rebuild) in about a second.
E17_KWARGS = dict(
    node_sizes=(4096, 65536, 1 << 20),
    n_entries=20_000,
    cache_bytes=1 << 20,
    n_queries=30,
    warmup_queries=50,
    devices=("wd-black-1tb-2011-sim", "samsung-970-pro-sim"),
    seed=0,
)

# E20 as ``cob --quick`` prints it: every model, tree and panel, ~2 s.
E20_KWARGS = dict(quick=True)

CASES = {
    "e3_affine_validation.txt": (e3.run, E3_KWARGS),
    "e5_btree_nodesize.txt": (e5.run, E5_KWARGS),
    "e6_betree_nodesize.txt": (e6.run, E6_KWARGS),
    "e11_lsm_nodesize.txt": (e11.run, E11_KWARGS),
    "e17_autotune.txt": (e17.run, E17_KWARGS),
    "e20_cob_compare.txt": (e20.run, E20_KWARGS),
}


@pytest.mark.parametrize("golden_name", sorted(CASES))
def test_serial_and_parallel_match_golden(golden_name):
    run, kwargs = CASES[golden_name]
    golden = (GOLDEN_DIR / golden_name).read_text()
    serial = run(**kwargs, jobs=1).render() + "\n"
    parallel = run(**kwargs, jobs=4).render() + "\n"
    assert serial == golden, f"serial output drifted from {golden_name}"
    assert parallel == golden, f"jobs=4 output differs from {golden_name}"


def test_fig1_default_run_matches_golden():
    """Figure 1 and Table 1 at their defaults, as ``fig1`` prints them.

    E1 has no sweep, so it runs once; the golden is the whole default
    report because Table 1's fitted P moves by up to 0.4 under an
    ulp-level change of the SSD's service times.
    """
    golden = (GOLDEN_DIR / "e1_pdam_validation.txt").read_text()
    assert e1.run().render() + "\n" == golden


def test_cached_rerun_matches_golden(tmp_path):
    """A warm-cache rerun reproduces the golden byte-for-byte too.

    E17's points pickle a fitted device profile, so its case also checks
    that a cached profile renders as a fresh one does.
    """
    for name in ("e3_affine_validation.txt", "e17_autotune.txt"):
        run, kwargs = CASES[name]
        golden = (GOLDEN_DIR / name).read_text()
        cache = ResultCache(tmp_path / name)
        cold = run(**kwargs, cache=cache).render() + "\n"
        warm = run(**kwargs, cache=cache).render() + "\n"
        assert cold == golden
        assert warm == golden
        assert cache.hits == len(kwargs["devices"])


def _regen() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, (run, kwargs) in CASES.items():
        (GOLDEN_DIR / name).write_text(run(**kwargs, jobs=1).render() + "\n")
        print(f"wrote {GOLDEN_DIR / name}")
    (GOLDEN_DIR / "e1_pdam_validation.txt").write_text(e1.run().render() + "\n")
    print(f"wrote {GOLDEN_DIR / 'e1_pdam_validation.txt'}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
