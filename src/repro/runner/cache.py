"""Content-addressed on-disk result cache for sweep points.

A sweep point's result is a pure function of its parameters: kernels
construct every device, workload and tree from the values inside the
point, so ``(kernel name, params)`` fully determines the outcome.  The
cache exploits that: results are stored under a SHA-256 fingerprint of

* the kernel name,
* the canonical JSON of the parameters (sorted keys — dict order never
  leaks into the key),
* the repo-declared :data:`CACHE_EPOCH`.

Re-running an experiment therefore only recomputes points whose inputs
changed; everything else is a file read.

**Epoch invalidation.**  The fingerprint cannot see *code*.  When a change
alters what a kernel computes for the same parameters — a simulator timing
fix, a different eviction policy, a new measurement protocol — bump
:data:`CACHE_EPOCH` and every previously cached result is invalidated at
once.  Pure refactors (renames, speedups that keep results bit-identical)
must NOT bump it; that is the whole point of the hot-path work in
``repro.storage``.  See docs/runner.md for the rules.

Values are stored with :mod:`pickle` (results carry dataclasses such as
:class:`~repro.tuning.calibrate.DeviceProfile`); the cache directory is
therefore trusted local state, not an interchange format.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.obs import OBS

LOG = logging.getLogger("repro.runner.cache")

#: Bump this (and only this) to invalidate every cached sweep result after
#: a semantic change to simulators, workloads, or measurement protocol.
CACHE_EPOCH = 12

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_MISS = object()


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache`` in cwd."""
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path(".repro-cache")


def _jsonable(value: Any) -> Any:
    """Canonicalize a parameter value for hashing (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    raise ConfigurationError(
        f"unfingerprintable parameter value {value!r} of type {type(value).__name__}"
    )


def fingerprint(kernel: str, params: dict[str, Any], *, epoch: int = CACHE_EPOCH) -> str:
    """SHA-256 content address of one sweep point."""
    payload = {
        "kernel": kernel,
        "params": _jsonable(params),
        "epoch": int(epoch),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle files named by fingerprint, two-level fanned out on disk.

    Writes are atomic (temp file + :func:`os.replace`), so concurrent
    executors racing on the same point at worst compute it twice — they
    never read a torn file.

    **Corrupt entries are quarantined, not left in place.**  Any failure
    to unpickle — truncation, garbage bytes, *and* stale-layout failures
    such as ``AttributeError``/``ModuleNotFoundError`` from a class that
    moved or changed since the entry was written — is treated as a miss,
    and the offending file is moved to a ``quarantine/`` sibling of the
    fingerprint fan-out so the same entry cannot fail again on the next
    run (and stays inspectable for debugging).
    """

    #: Directory (under the cache root) corrupt entries are moved into.
    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _path(self, fp: str) -> Path:
        return self.root / fp[:2] / f"{fp}.pkl"

    def get(self, fp: str) -> Any:
        """The cached value for ``fp``, or :data:`MISS` when absent/corrupt."""
        path = self._path(fp)
        try:
            fh = path.open("rb")
        except OSError:
            self.misses += 1
            return _MISS
        try:
            with fh:
                value = pickle.load(fh)
        except Exception as exc:
            # Unpickling can fail in arbitrary ways (UnpicklingError,
            # EOFError on truncation, AttributeError/ModuleNotFoundError on
            # stale class layouts, ...).  All of them mean the same thing:
            # this entry is unusable — quarantine it and recompute.  The
            # entry key is logged (and counted) so quarantined results are
            # diagnosable without digging through quarantine/ by hand.
            LOG.warning(
                "quarantining corrupt cache entry %s (%s: %s)",
                fp,
                type(exc).__name__,
                exc,
            )
            if OBS.enabled:
                OBS.counter("runner.cache.quarantined").inc()
            self._quarantine(path)
            self.misses += 1
            return _MISS
        self.hits += 1
        return value

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the lookup path (atomic rename)."""
        qdir = self.root / self.QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            # Cross-device or permission trouble: deleting still unblocks
            # the cache, losing only the forensic copy.
            try:
                path.unlink()
            except OSError:
                pass
        self.quarantined += 1

    def put(self, fp: str, value: Any) -> None:
        """Store ``value`` under ``fp`` atomically."""
        path = self._path(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @staticmethod
    def is_miss(value: Any) -> bool:
        """Whether a :meth:`get` return value means "not cached"."""
        return value is _MISS


#: Sentinel returned by :meth:`ResultCache.get` on a miss; compare with
#: :meth:`ResultCache.is_miss` (cached values may legitimately be None).
MISS = _MISS
