"""Where the host's wall time goes: a sampler over the Python stack.

A ``SIGALRM`` every :data:`INTERVAL_S` of wall time books the interrupted
stack to one label.  ``classify(path, qualname, line)`` labels a frame by its
file relative to ``src/repro`` (absolute outside it), ``co_qualname`` and
line: ``None``, a label, or an :class:`Inclusive` one.  A sample goes to the
outermost inclusive label on the stack (:data:`UNTIMED` is one, dropped),
else the innermost label, else :data:`OTHER`.  It reads no clock: a label's
seconds are its share of the counted samples times a wall the caller timed.
CPython runs the handler at its next call, return or loop back-edge; a
sample (~10-15 us) makes the perfbench workloads' wall 4-17 % longer.
Needs Python 3.11; ``import repro.obs`` does not import this module.
"""

from __future__ import annotations

import signal
from collections import Counter
from pathlib import Path
from types import CodeType, FrameType
from typing import Callable

#: Wall seconds between samples.
INTERVAL_S = 0.0005

#: Where a sample goes when no frame on its stack is labelled.
OTHER = "other"

_PACKAGE = f"{Path(__file__).resolve().parents[1]}/"
_UNSEEN = object()


class Inclusive(str):
    """A label that keeps every sample under it, inner labels included."""


#: The label of code outside the measured region: its samples are dropped.
UNTIMED = Inclusive("untimed")


def _line_before(frame: FrameType) -> int | None:
    """The line of the last instruction at or before ``frame``'s that has one."""
    lines = [here for start, _end, here in frame.f_code.co_lines()
             if here is not None and start <= frame.f_lasti]
    return lines[-1] if lines else None


class HostSampler:
    """Counts ``SIGALRM`` samples per label between :meth:`start` and :meth:`stop`."""

    def __init__(self, classify: Callable[[str, str, int | None], str | None]) -> None:
        self.classify = classify
        self.counts: Counter[str] = Counter()
        self._labels: dict[tuple[int, int], str | None] = {}  # (id(code), offset)
        self._codes: dict[int, CodeType] = {}  # alive, so ids stay theirs; hash(code) is slow
        self._previous: tuple | None = None  # (handler, timer) while started

    def _sample(self, _signum: int, frame: FrameType | None) -> None:
        labels = self._labels
        label = None
        while frame is not None:
            key = (id(frame.f_code), frame.f_lasti)
            here = labels.get(key, _UNSEEN)
            if here is _UNSEEN:
                code = self._codes[key[0]] = frame.f_code
                here = labels[key] = self.classify(
                    code.co_filename.removeprefix(_PACKAGE), code.co_qualname,
                    frame.f_lineno or _line_before(frame),
                )
            if here is not None and (label is None or type(here) is Inclusive):
                label = here
            frame = frame.f_back
        if label is not UNTIMED:
            self.counts[label or OTHER] += 1

    def start(self) -> None:
        """Clear the counts and start sampling; raises if already started."""
        if self._previous is not None:
            raise RuntimeError("HostSampler.start() on a running sampler")
        self.counts.clear()
        handler = signal.signal(signal.SIGALRM, self._sample)
        self._previous = (handler, signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S))

    def stop(self) -> Counter[str]:
        """Stop sampling, restore the previous handler and timer; the counts."""
        if self._previous is None:
            raise RuntimeError("HostSampler.stop() on a stopped sampler")
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        (handler, timer), self._previous = self._previous, None
        signal.signal(signal.SIGALRM, signal.SIG_DFL if handler is None else handler)
        signal.setitimer(signal.ITIMER_REAL, *timer)
        return Counter(self.counts)

    def __enter__(self) -> HostSampler:
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
