#!/usr/bin/env python3
"""The repository's benchmark: one command, six workloads.

    python3 benchmarks/perf/run.py                      # all six, untraced + traced
    python3 benchmarks/perf/run.py --workload tree_read --seed 3 --seconds 10 --trace 0

With ``--workload`` it measures that workload in this process and prints,
as the last line of stdout, the JSON object ``BENCHMARK.json``'s driver
reads.  Without it, every workload runs twice (untraced, then traced) in
fresh child processes and the records are gathered into one result file
for ``compare.py``.  Exit status is non-zero on any correctness failure.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Share of ``--scale`` the traced pass (and its untraced twin) runs at.
TRACE_SCALE = 0.25


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure one workload in this process")
    parser.add_argument("--seed", type=int, default=0, help="every input stream derives from it")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long a run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced pass")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink loads and iterations")
    parser.add_argument("--out", type=Path, help="also write the record(s) to this JSON file")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    from perfbench import record
    from perfbench.harness import measure
    from perfbench.spans import Tracer
    from perfbench.catalogue import WORKLOADS
    from perfbench.workloads import workload_class

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workload_class(args.workload)
    env = record.environment(ROOT)
    if args.trace:
        twin = dict(seed=args.seed, scale=args.scale * TRACE_SCALE, seconds=args.seconds,
                    fixed=True, calibrate=False, setups=1)
        untraced = measure(cls, **twin)
        traced = measure(cls, tracer=Tracer(), **twin)
        rec = record.traced_record(
            args.workload, args, untraced, traced, env, OUT / f"spans-{args.workload}.jsonl"
        )
    else:
        # A run of under a second is a smoke run: its rates are compared
        # with nothing, so it calibrates once instead of around every iteration.
        measured = measure(cls, seed=args.seed, scale=args.scale, seconds=args.seconds,
                           calibrate=args.seconds >= 1.0)
        rec = record.end_to_end_record(args.workload, args, measured, env)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"schema": record.SCHEMA, "runs": [rec]}, indent=1))
    print(record.render(rec))
    print(record.result_line(rec))
    return 0 if rec["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    from perfbench import record
    from perfbench.catalogue import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    runs = []
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            part = OUT / f"part-{workload}-{trace}.json"
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--scale", str(args.scale), "--trace", str(trace), "--out", str(part)],
                stdout=subprocess.PIPE, text=True,
            )
            # Everything but the child's machine-readable last line.
            print("\n".join(child.stdout.rstrip("\n").split("\n")[:-1]), flush=True)
            if child.returncode:
                status = 1
                print(f"FAILED: {workload} --trace {trace} exited {child.returncode}")
            if part.exists():
                runs.extend(json.loads(part.read_text())["runs"])
                part.unlink()
    target = args.out or OUT / f"result-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps({"schema": record.SCHEMA, "runs": runs}, indent=1))
    failed = sum(r["failed"] for r in runs)
    print(f"wrote {target}")
    print(json.dumps({
        "correct": status == 0 and failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "runs": len(runs),
    }))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
