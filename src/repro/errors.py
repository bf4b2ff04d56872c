"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed with invalid or inconsistent parameters.

    Also a :class:`ValueError`: bad constructor arguments are value errors,
    and callers outside this package reasonably write ``except ValueError``.
    """


class StorageError(ReproError):
    """Base class for storage-stack errors."""


class OutOfSpaceError(StorageError):
    """The extent allocator could not satisfy an allocation request."""


class InvalidIOError(StorageError, ValueError):
    """An IO request was malformed (bad offset, zero length, out of range).

    Also a :class:`ValueError` for the same reason as
    :class:`ConfigurationError`.
    """


class TransientIOError(StorageError):
    """An injected transient device failure (see :mod:`repro.faults`).

    Retrying the same IO may succeed; resilience policies do exactly that.
    Fault-free devices never raise it.
    """


class DeviceCrashed(StorageError):
    """The device died mid-run (see :mod:`repro.faults.crash`).

    Carries the frozen crash state (``.state``) describing the IO that was
    in flight — including how many of its bytes persisted (torn writes).
    Unlike :class:`TransientIOError`, retrying cannot help: the device
    refuses all IO until its ``recover()`` method is called.
    """

    def __init__(self, message: str, state: object = None) -> None:
        super().__init__(message)
        self.state = state


class WALError(StorageError):
    """The write-ahead log hit an unrecoverable condition (e.g. extent full)."""


class CacheError(StorageError):
    """Buffer-cache invariant violation (e.g. fetching an unknown node id)."""


class TreeError(ReproError):
    """Base class for dictionary (tree) errors."""


class KeyOrderError(TreeError):
    """Keys were supplied out of order where sorted order is required."""


class FitError(ReproError):
    """A regression/fitting routine could not produce a valid fit."""
