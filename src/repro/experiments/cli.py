"""Command-line entry: ``python -m repro.experiments <experiment|all>``."""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Callable

from repro.experiments import (
    exp_affine_validation,
    exp_aging,
    exp_asymmetry,
    exp_autotune,
    exp_betree_nodesize,
    exp_btree_nodesize,
    exp_cob_compare,
    exp_durability,
    exp_epsilon_tradeoff,
    exp_lsm_nodesize,
    exp_model_error,
    exp_optima,
    exp_optimizations,
    exp_pdam_concurrency,
    exp_pdam_validation,
    exp_sensitivity,
    exp_serve_tail,
    exp_tail_resilience,
    exp_write_amp,
    exp_ycsb,
)

EXPERIMENTS: dict[str, Callable[..., object]] = {
    "fig1": exp_pdam_validation.run,      # also produces table1
    "table2": exp_affine_validation.run,
    "table3": exp_sensitivity.run,
    "fig2": exp_btree_nodesize.run,
    "fig3": exp_betree_nodesize.run,
    "lemma13": exp_pdam_concurrency.run,
    "writeamp": exp_write_amp.run,
    "theorem9": exp_optimizations.run,
    "optima": exp_optima.run,
    "lsm": exp_lsm_nodesize.run,
    "epsilon": exp_epsilon_tradeoff.run,
    "aging": exp_aging.run,
    "asymmetry": exp_asymmetry.run,
    "ycsb": exp_ycsb.run,
    "modelerr": exp_model_error.run,
    "autotune": exp_autotune.run,
    "tailres": exp_tail_resilience.run,
    "serve": exp_serve_tail.run,
    "cob": exp_cob_compare.run,
    "durability": exp_durability.run,
}


def _takes(name: str, keyword: str) -> bool:
    """Whether experiment ``name``'s ``run()`` accepts ``keyword``."""
    return keyword in inspect.signature(EXPERIMENTS[name]).parameters


def _run_one(name: str, offered: dict[str, object]) -> object:
    """Invoke one experiment with the offered keywords its ``run()`` accepts."""
    return EXPERIMENTS[name](
        **{k: v for k, v in offered.items() if _takes(name, k)}
    )


def main(argv: list[str] | None = None) -> int:
    """Run one or all experiments; prints rendered tables to stdout."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures on simulated hardware.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="append an ASCII plot for experiments that have one",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the available experiment names and exit",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for runner-based experiments "
        "(0 = all cores; results are identical at any job count)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every sweep point, ignoring the on-disk result cache",
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN.json",
        default=None,
        help="fault plan for fault-aware experiments (schema: docs/faults.md); "
        "default is the experiment's built-in plan",
    )
    parser.add_argument(
        "--policy",
        choices=["none", "retry", "hedge", "admit", "admit+hedge"],
        default=None,
        help="restrict fault-aware experiments to one resilience policy "
        "(default: sweep the experiment's own set; 'admit' variants are "
        "serve-only, 'retry' is device-level)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink fault-aware and quick-capable experiments to CI-smoke size",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative entries",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable repro.obs and print a per-experiment metrics block "
        "(simulated results are unchanged; see docs/observability.md)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write structured spans as JSONL to PATH (implies --metrics; "
        "with multiple experiments, '.<name>' is appended per experiment)",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.experiment is None:
        parser.error("experiment name required (or --list)")
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    flagged = (  # flag, the run() keyword it sets, its value (None: not given)
        ("--jobs", "jobs", args.jobs if args.jobs != 1 else None),
        ("--quick", "quick", args.quick or None),
        ("--faults", "plan", args.faults),
        ("--policy", "policies", args.policy and (args.policy,)),
    )
    offered: dict[str, object] = {}
    for flag, keyword, value in flagged:
        if value is None:
            continue
        # ``all`` applies a flag wherever it is accepted; one named
        # experiment that cannot honour it must not run as if it had.
        if len(names) == 1 and not _takes(names[0], keyword):
            takers = ", ".join(n for n in sorted(EXPERIMENTS) if _takes(n, keyword))
            parser.error(f"{names[0]} does not take {flag}; these do: {takers}")
        offered[keyword] = value
    if "plan" in offered:  # read the file only once the flag is known to apply
        from repro.faults import FaultPlan

        offered["plan"] = FaultPlan.from_file(args.faults)
    if not args.no_cache:
        from repro.runner import ResultCache, default_cache_dir

        offered["cache"] = ResultCache(default_cache_dir())
    metrics_on = args.metrics or args.trace_out is not None
    if metrics_on:
        from repro import obs
        from repro.experiments.report import render_metrics

        obs.enable(trace=args.trace_out is not None)
    for name in names:
        if metrics_on:
            obs.reset()  # each experiment gets its own metrics block
        t0 = time.perf_counter()
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            result = profiler.runcall(_run_one, name, offered)
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats(pstats.SortKey.CUMULATIVE).print_stats(20)
        else:
            result = _run_one(name, offered)
        wall = time.perf_counter() - t0
        print(result.render())
        if args.plot and hasattr(result, "render_plot"):
            print()
            print(result.render_plot())
        if metrics_on:
            print()
            print(render_metrics(obs.OBS.snapshot(), title=f"{name} metrics"))
            if args.trace_out is not None:
                tracer = obs.OBS.tracer
                assert tracer is not None
                path = (
                    args.trace_out
                    if len(names) == 1
                    else f"{args.trace_out}.{name}"
                )
                tracer.export_jsonl(path)
                print(f"[trace: {len(tracer)} spans -> {path}]")
        print(f"\n[{name}: {wall:.1f}s wall]\n")
    if metrics_on:
        obs.disable(detach_tracer=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
