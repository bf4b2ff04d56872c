"""The six workloads; each module holds one class with the same protocol.

``setup()`` builds and warms everything, ``prepare(i)`` generates
iteration ``i``'s inputs from the seed (untimed), ``iteration(i)`` runs
them and returns ``(ops, timed wall seconds)``, ``snapshot()`` files the
simulated statistics of the recorded iterations into ``run.stats``, and
``finish()`` runs whatever oracle needs the final state.
"""

from importlib import import_module

#: workload name (= module name) -> class name.  Resolved on demand: a
#: child process measures one workload and should import only what it needs.
_CLASSES = {
    "device_engine": "DeviceEngine",
    "tree_read": "TreeRead",
    "tree_write": "TreeWrite",
    "serve_e19": "ServeE19",
    "durable_e21": "DurableE21",
    "sweep_runner": "SweepRunner",
}


def workload_class(name: str) -> type:
    """The class of the named workload; ``KeyError`` if there is none."""
    return getattr(import_module(f"{__name__}.{name}"), _CLASSES[name])
