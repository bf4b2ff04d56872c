"""Turning measured passes into records, report lines and the result line."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.catalogue import END_TO_END, PER_LAYER
from perfbench.harness import Pass, quartiles, tail_percentile
from perfbench.layers import per_layer_metrics
from perfbench.spans import write_jsonl

SCHEMA = "repro.perfbench/v1"


def environment(root: Path) -> dict[str, Any]:
    """Where the numbers were taken: cpus, interpreter, commit."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "git": sha or "unknown",
    }


def _common(workload: str, args: Any, passes: list[Pass], env: dict[str, Any]) -> dict[str, Any]:
    attempted = sum(p.run.attempted for p in passes)
    failed = sum(p.run.failed for p in passes)
    main = passes[0]
    return {
        "schema": SCHEMA,
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        **env,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in passes for f in p.run.failures],
        "n_ops": main.n_ops,
        "iterations": len(main.iterations),
        "sim_digest": main.run.sim_digest,
        "notes": list(main.run.notes),
    }


def end_to_end_record(workload: str, args: Any, p: Pass, env: dict[str, Any]) -> dict[str, Any]:
    """The untraced run: every end-to-end metric, plus what explains them."""
    run = p.run
    rates = p.normalised_rates()
    q1, median, q3 = quartiles(rates)
    values = {
        "setup_s": statistics.median(p.setups),
        "norm_ops_per_s": median,
        "peak_rss_mb": p.peak_rss_mb,
        "sim_ms_per_op": run.sim_seconds / run.sim_ops * 1e3,
    }
    record = _common(workload, args, [p], env)
    record["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END
    }
    stats, n_samples, pct = _with_latency_stats(run)
    record["detail"] = {
        "norm_ops_per_s_quartiles": [q1, median, q3],
        "raw_ops_per_s": statistics.median(ops / wall for ops, wall, _ in p.iterations),
        "setup_s_all": p.setups,
        "calibration_s": statistics.median(c for _, _, c in p.iterations),
        "n_samples": n_samples,
        "tail_percentile": pct,
        "sim_ops": run.sim_ops,
        "stats": stats,
    }
    return record


def _with_latency_stats(run: Any) -> tuple[dict[str, float], int, float]:
    """``run.stats`` plus the latency percentiles; ``(stats, n_samples, tail pct)``."""
    latencies = run.latency_samples()
    pct, tail = tail_percentile(latencies)
    stats = dict(run.stats)
    stats["sim.lat_p50_ms"] = float(np.percentile(latencies, 50)) * 1e3
    stats["sim.lat_p999_ms"] = tail * 1e3
    return stats, int(latencies.size), pct


def traced_record(
    workload: str, args: Any, untraced: Pass, traced: Pass, env: dict[str, Any],
    spans_path: Path,
) -> dict[str, Any]:
    """The traced run: every per-layer metric; digests must agree."""
    calibration_s = untraced.iterations[0][2]  # the twin calibrates once
    if traced.run.sim_digest != untraced.run.sim_digest:
        traced.run.failed += 1
        traced.run.failures.append(
            "traced pass changed the simulation: sim_digest "
            f"{traced.run.sim_digest[:12]} != untraced {untraced.run.sim_digest[:12]}"
        )
    values = per_layer_metrics(traced, untraced, calibration_s)
    stats, n_samples, pct = _with_latency_stats(untraced.run)
    values.update({name: stats[name] for name in ("sim.lat_p50_ms", "sim.lat_p999_ms")})
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(traced.run.tracer.spans, str(spans_path))
    record = _common(workload, args, [untraced, traced], env)
    record["metrics"] = {
        name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER
    }
    traced_wall = sum(end - start for _, _, start, end, parent, _ in traced.run.tracer.spans
                      if parent < 0)
    host_self = sum(v for name, v in values.items()
                    if name.endswith(("host_self_s", "bench_self_s", "fit_host_s")))
    record["detail"] = {
        "calibration_s": calibration_s,
        "traced_sim_digest": traced.run.sim_digest,
        "spans": len(traced.run.tracer.spans),
        "spans_file": str(spans_path),
        "traced_wall_s": traced_wall,
        "host_self_s_sum": host_self,
        "n_samples": n_samples,
        "tail_percentile": pct,
        "stats": {**stats, **traced.run.stats},
    }
    return record


def render(record: dict[str, Any]) -> str:
    """Every metric by name with its unit, and the context to read it."""
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  scale {record['scale']}  "
        f"trace {record['trace']}  cpus {record['cpus']}  python {record['python']}  "
        f"git {record['git'][:12]}",
        f"  iterations {record['iterations']}  n_ops {record['n_ops']}  "
        f"attempted {record['attempted']}  failed {record['failed']}  "
        f"sim_digest {record['sim_digest'][:16]}",
    ]
    for name, entry in record["metrics"].items():
        if entry["value"] or record["trace"] == 0:
            lines.append(f"  {name:44s} {entry['value']:>16.6g} {entry['unit']}")
    idle = [n for n, e in record["metrics"].items() if not e["value"]]
    if idle and record["trace"]:
        lines.append(f"  ({len(idle)} per-layer metrics are 0: those layers did nothing here)")
    for key, value in record["detail"].items():
        if key == "stats":
            for name, stat in sorted(value.items()):
                if name not in record["metrics"]:
                    lines.append(f"  {name:44s} {stat:>16.6g}")
        else:
            lines.append(f"  {key}: {value}")
    lines.extend(f"  note: {note}" for note in record["notes"])
    lines.extend(f"  FAILED: {failure}" for failure in record["failures"])
    return "\n".join(lines)


def result_line(record: dict[str, Any]) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )
