"""ASCII rendering of experiment tables and series.

Benchmarks print their tables through these helpers so EXPERIMENTS.md and
bench output stay consistent.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ConfigurationError


def format_bytes(nbytes: float) -> str:
    """Human-readable byte size (KiB/MiB/GiB), paper-style."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            if value == int(value):
                return f"{int(value)}{unit}"
            return f"{value:.1f}{unit}"
        value /= 1024
    raise AssertionError("unreachable")


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    note: str | None = None,
) -> str:
    """Render an aligned ASCII table with a title rule."""
    if not columns:
        raise ConfigurationError("need at least one column")
    str_rows = [[_cell(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(columns):
            raise ConfigurationError(
                f"row width {len(row)} does not match {len(columns)} columns"
            )
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(columns[i])
        for i in range(len(columns))
    ]
    sep = "  "
    header = sep.join(c.ljust(widths[i]) for i, c in enumerate(columns))
    rule = "-" * len(header)
    lines = [title, "=" * len(title), header, rule]
    for row in str_rows:
        lines.append(sep.join(row[i].ljust(widths[i]) for i in range(len(columns))))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def render_series(
    title: str,
    x_label: str,
    xs: Sequence[Any],
    series: dict[str, Sequence[float]],
    *,
    note: str | None = None,
    fmt: str = "{:.4g}",
) -> str:
    """Render a figure as a table of x vs one column per series."""
    if not series:
        raise ConfigurationError("need at least one series")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ConfigurationError(f"series {name!r} length does not match x")
    columns = [x_label] + list(series)
    rows = [
        [x] + [fmt.format(series[name][i]) for name in series]
        for i, x in enumerate(xs)
    ]
    return render_table(title, columns, rows, note=note)


def _cell(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def render_metrics(snapshot: dict[str, Any], *, title: str = "metrics") -> str:
    """Render a registry snapshot (see :meth:`repro.obs.MetricsRegistry.snapshot`).

    One block per instrument family — counters, gauges, histograms — plus
    derived ratios (cache hit rate, runner cache hit rate) when their
    inputs are present.  The CLI prints this after each experiment run
    with ``--metrics``.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    sections: list[str] = []
    if counters:
        sections.append(
            render_table(
                f"{title}: counters",
                ["name", "value"],
                [[name, value] for name, value in counters.items()],
            )
        )
    if gauges:
        sections.append(
            render_table(
                f"{title}: gauges",
                ["name", "last", "min", "max", "sets"],
                [
                    [name, g["value"], _opt(g["min"]), _opt(g["max"]), g["n_sets"]]
                    for name, g in gauges.items()
                ],
            )
        )
    if histograms:
        sections.append(
            render_table(
                f"{title}: histograms (log2 buckets)",
                ["name", "count", "mean", "min", "max"],
                [
                    [name, h["count"], h["mean"], _opt(h["min"]), _opt(h["max"])]
                    for name, h in histograms.items()
                ],
            )
        )
    derived: list[str] = []
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)
    if hits + misses:
        derived.append(f"cache hit ratio: {hits / (hits + misses):.3f}")
    rhits = counters.get("runner.cache_hits", 0)
    rmisses = counters.get("runner.cache_misses", 0)
    if rhits + rmisses:
        derived.append(f"runner cache hit ratio: {rhits / (rhits + rmisses):.3f}")
    if derived:
        sections.append("\n".join(derived))
    if not sections:
        sections.append(f"{title}: no events recorded")
    return "\n\n".join(sections)


def _opt(v: Any) -> str:
    return "-" if v is None else _cell(v)
