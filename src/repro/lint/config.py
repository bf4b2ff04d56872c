"""Lint configuration: rule selection and repo-level exemptions.

The defaults below *are* the repo policy — the CI gate runs with them.
Exemptions are deliberate and narrow: a rule is switched off only for
the files whose job is the thing the rule forbids (the sweep runner and
the tracer measure host wall time; the obs package implements the
registry the guard rule protects).  Everything else must either comply
or carry a visible ``# repro-lint: ignore[RULE]`` at the offending line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

#: Per-rule path fragments (POSIX style) where the rule does not apply.
#: A fragment matches when it is a substring of the linted file's path —
#: end a fragment with ``/`` to exempt a whole directory.
DEFAULT_EXEMPTIONS: Mapping[str, tuple[str, ...]] = {
    # Host wall-clock timing is these modules' purpose: the executor
    # times sweep points, the tracer stamps wall spans, the experiments
    # CLI prints elapsed wall time, and benchmarks measure the host.
    "DET001": (
        "repro/runner/executor.py",
        "repro/obs/tracing.py",
        "repro/experiments/cli.py",
        "benchmarks/",
    ),
    # The obs package implements the registry; its internals are below
    # the enabled-guard, not behind it.
    "OBS001": ("repro/obs/",),
}

#: Decorator spellings that mark a function as a registered sweep kernel
#: (PURE001's subjects).  Matched against the decorator's dotted source
#: text after import-alias resolution.
KERNEL_DECORATORS: tuple[str, ...] = (
    "register",
    "kernels.register",
    "repro.runner.kernels.register",
)

#: Names an obs registry travels under (receiver of recording calls).
OBS_REGISTRY_NAMES: tuple[str, ...] = ("OBS",)

#: Path fragments whose public classes/functions are *simulation entry
#: points* for the whole-program flow pass (FLOW001/FLOW004): the code
#: whose results the determinism contracts cover.  Kernel-decorated
#: functions are entry points everywhere, regardless of this list.
FLOW_ENTRY_FRAGMENTS: tuple[str, ...] = (
    "repro/storage/",
    "repro/trees/",
    "repro/serve/",
    "repro/faults/",
    "repro/recovery/",
    "repro/workloads/",
    "repro/tuning/",
)

#: FLOW003: batch-API method -> the scalar twin it must mirror.  The
#: "batching is semantically invisible" contract (docs/architecture.md)
#: as a checkable shape: the pair must coexist on the class, and the
#: batch body must not touch state the scalar closure never does.
#: Twin names follow the repo's actual API conventions: devices read,
#: trees insert/get, the cache layer fetches with get.
FLOW_BATCH_PAIRS: Mapping[str, str] = {
    "read_batch": "read",
    "read_many": "get",
    "get_many": "get",
    "put_many": "insert",
    "put_bulk": "insert",
}

#: Resolved constructor names that mint a private RNG stream (FLOW002's
#: subjects: attributes assigned from one of these must never escape
#: their component).
FLOW_RNG_CONSTRUCTORS: tuple[str, ...] = (
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "random.Random",
)


@dataclass(frozen=True)
class LintConfig:
    """Immutable (and picklable — ``--jobs`` forks) lint run settings."""

    #: Only run these rule codes; ``None`` means all registered rules.
    select: frozenset[str] | None = None
    #: Never run these rule codes.
    ignore: frozenset[str] = frozenset()
    #: Per-rule path-fragment exemptions (see :data:`DEFAULT_EXEMPTIONS`).
    exempt: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_EXEMPTIONS)
    )
    #: Decorators marking sweep kernels (PURE001).
    kernel_decorators: tuple[str, ...] = KERNEL_DECORATORS
    #: Registry names whose recording calls OBS001 guards.
    obs_registry_names: tuple[str, ...] = OBS_REGISTRY_NAMES
    #: DET002 strict mode: also treat ``.keys()`` into order-sensitive
    #: sinks as unordered.  On by default (repo policy since PR 10):
    #: dicts preserve insertion order, but ``list(d.keys())`` feeding a
    #: result is exactly where a later switch to a set/unordered source
    #: hides — iterate the dict directly or pin with ``sorted()``.
    det002_flag_dict_keys: bool = True
    #: Include suppressed findings in the report (still non-failing).
    show_suppressed: bool = False
    #: Path fragments marking simulation entry points for FLOW001/004.
    flow_entry_fragments: tuple[str, ...] = FLOW_ENTRY_FRAGMENTS
    #: FLOW003 batch-method -> scalar-twin pairs.
    flow_batch_pairs: Mapping[str, str] = field(
        default_factory=lambda: dict(FLOW_BATCH_PAIRS)
    )
    #: FLOW002: resolved constructors that mint private RNG streams.
    flow_rng_constructors: tuple[str, ...] = FLOW_RNG_CONSTRUCTORS

    def rule_enabled(self, code: str) -> bool:
        """Whether ``code`` survives ``--select`` / ``--ignore``."""
        if code in self.ignore:
            return False
        return self.select is None or code in self.select

    def is_exempt(self, code: str, path: str) -> bool:
        """Whether ``path`` is policy-exempt from rule ``code``."""
        posix = str(path).replace("\\", "/")
        return any(frag in posix for frag in self.exempt.get(code, ()))
