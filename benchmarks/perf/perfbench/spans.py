"""Spans recorded from the benchmark's side of each layer boundary.

A span is ``[name, layer, start, end, parent, n]``: host ``perf_counter``
seconds, the index of the span that was open when it started (``-1`` for
a root) and the number of work items the call carried (keys of a
``get_many``, offsets of a ``read_batch``; 1 for scalar calls).  Spans
live in one list in start order, so a parent always precedes its
children, and are written as JSONL when the workload ends.

Wrappers are installed as *instance* attributes on objects the benchmark
built; the classes in ``src/`` are never touched, and an unwrapped object
of the same class behaves exactly as before.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable

#: Layer of the benchmark's own root spans (set-up, stream generation,
#: timed iterations, verification).
BENCH = "bench"


class Tracer:
    """Collects spans; hands out instance-level wrappers."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str = BENCH, n: int = 1):
        """Record one span around a block; yields the mutable span record."""
        spans, open_ = self.spans, self._open
        record = [name, layer, 0.0, 0.0, open_[-1] if open_ else -1, n]
        open_.append(len(spans))
        spans.append(record)
        record[2] = perf_counter()
        try:
            yield record
        finally:
            record[3] = perf_counter()
            open_.pop()

    def wrap(
        self,
        obj: Any,
        layer: str,
        methods: Iterable[str],
        *,
        count: dict[str, Callable[[tuple, Any], int]] | None = None,
    ) -> None:
        """Shadow ``obj``'s public ``methods`` with span-recording closures.

        ``count[name](args, result)`` gives the work items of one call
        (default 1).  Methods the object does not have are skipped, so one
        method list serves every tree kind.
        """
        for name in methods:
            inner = getattr(obj, name, None)
            if inner is not None:
                counter = count.get(name) if count else None
                setattr(obj, name, self._traced(inner, name, layer, counter))

    def _traced(self, inner: Callable, name: str, layer: str, counter) -> Callable:
        spans, open_ = self.spans, self._open

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, layer, 0.0, 0.0, open_[-1] if open_ else -1, 1]
            open_.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                open_.pop()
            if counter is not None:
                record[5] = counter(args, result)
            return result

        return traced


class LayerTotals:
    """What the spans say about each layer.

    ``self_s[layer]`` is the layer's spans' duration minus the part its
    child spans cover.  ``calls``/``items``/``seconds`` are keyed by
    ``(layer, name)`` and count only *outermost* calls into a layer (a
    ``put_many`` that loops over its own wrapped ``insert`` is one call
    carrying ``n`` items, not ``n + 1`` calls); ``seconds`` is inclusive.
    ``every[layer, name]`` counts every span, nested or not (a WAL
    ``commit`` is one commit whether ``append`` or ``sync`` caused it).
    """

    def __init__(self, spans: list[list[Any]]) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.items: dict[tuple[str, str], int] = defaultdict(int)
        self.seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.every: dict[tuple[str, str], int] = defaultdict(int)
        for name, layer, start, end, parent, n in spans:
            duration = end - start
            self.self_s[layer] += duration
            self.every[layer, name] += 1
            parent_layer = spans[parent][1] if parent >= 0 else None
            if parent_layer is not None:
                self.self_s[parent_layer] -= duration
            if parent_layer != layer:
                self.calls[layer, name] += 1
                self.items[layer, name] += n
                self.seconds[layer, name] += duration

    def layer_calls(self, layer: str) -> int:
        return sum(c for (lay, _), c in self.calls.items() if lay == layer)

    def layer_items(self, layer: str, names: Iterable[str] | None = None) -> int:
        wanted = None if names is None else set(names)
        return sum(
            n
            for (lay, name), n in self.items.items()
            if lay == layer and (wanted is None or name in wanted)
        )

    def layer_seconds(self, layer: str, names: Iterable[str]) -> float:
        wanted = set(names)
        return sum(
            s for (lay, name), s in self.seconds.items() if lay == layer and name in wanted
        )


def chunk_us_per_op(spans: list[list[Any]], root_name: str, chunk: int = 1000) -> list[float]:
    """Host microseconds per op over consecutive ``chunk``-op windows.

    Walks the direct children of every ``root_name`` root span in order
    and closes a window whenever it has collected ``chunk`` work items.
    """
    out: list[float] = []
    window_start = None
    collected = 0
    for _name, _layer, start, end, parent, n in spans:
        if parent < 0 or spans[parent][0] != root_name or spans[parent][4] >= 0:
            continue
        if window_start is None:
            window_start = start
        collected += n
        if collected >= chunk:
            out.append((end - window_start) * 1e6 / collected)
            window_start, collected = None, 0
    return out


def write_jsonl(spans: list[list[Any]], path: str) -> None:
    """One JSON object per span, in start order.

    ``id`` is the line's index; ``op_id`` is the ``id`` of the span's
    outermost non-root ancestor, so all spans of one operation share it
    (root spans carry their own id).  Times are seconds since the first
    span started, to 0.1 microsecond: half a million spans stay readable
    and the file a third smaller than with raw ``perf_counter`` floats.
    """
    op_ids: list[int] = []
    origin = spans[0][2] if spans else 0.0
    with open(path, "w") as fh:
        for i, (name, layer, start, end, parent, n) in enumerate(spans):
            if parent < 0 or spans[parent][4] < 0:
                op_id = i
            else:
                op_id = op_ids[parent]
            op_ids.append(op_id)
            fh.write(
                json.dumps(
                    {
                        "id": i,
                        "name": name,
                        "layer": layer,
                        "start": round(start - origin, 7),
                        "end": round(end - origin, 7),
                        "parent": parent,
                        "op_id": op_id,
                        "n": n,
                    }
                )
            )
            fh.write("\n")
