"""DET001/DET002 — the bit-identical-results invariants.

Simulation code must draw *all* randomness from explicitly seeded
generators and *all* time from the simulated device clock; any wall
clock or process-global RNG makes results differ run to run, which the
golden tests (and the paper's R² ≈ 1 fits) cannot tolerate.  Order must
come from data, never from hash order or the filesystem.

The detectors (:func:`wall_clock_violation`, :func:`global_rng_violation`,
:func:`unordered_reason`, :func:`order_sensitive_sources`) are module
functions so the whole-program flow layer (FLOW001) can reuse the exact
same definition of "nondeterministic" when seeding its taint analysis.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import call_name, raw_dotted, resolve_dotted
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.lint.engine import ModuleContext
from repro.lint.rules import Rule, register_rule

#: Wall-clock reads.  Simulated time lives on ``device.clock``; host
#: timing belongs only in the runner/tracer/benchmarks (config-exempt).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random.<name>`` attributes that are *not* the legacy global
#: RNG: explicit-seeded constructors and generator machinery.
_NP_RANDOM_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
        "RandomState",  # legacy but explicitly seeded at construction
    }
)

#: ``random.<name>`` that are fine: seeded-instance constructors.
_STDLIB_RANDOM_OK = frozenset({"Random", "SystemRandom"})

#: Set-producing expressions: calls whose very name means "unordered".
_UNORDERED_CALLS = frozenset({"set", "frozenset"})

#: Method names that (on sets) return sets; no other builtin container
#: has them, so matching the attribute name alone is safe.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: Filesystem listings: OS-dependent order, a classic repro breaker.
_FS_LIST_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})
_FS_LIST_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Builtins that materialize their argument *in iteration order*.
_ORDER_SENSITIVE_WRAPPERS = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})


def wall_clock_violation(dotted: str | None) -> str | None:
    """DET001 message for a resolved call name reading the wall clock."""
    if dotted in _WALL_CLOCK:
        return (
            f"wall-clock call `{dotted}` — simulation time must come from "
            "the device clock (host timing is for the runner and the benchmark only)"
        )
    return None


def global_rng_violation(dotted: str | None) -> str | None:
    """DET001 message for a resolved call name using a global RNG."""
    if dotted is None:
        return None
    head, _, tail = dotted.partition(".")
    if head == "random" and tail and "." not in tail:
        if tail not in _STDLIB_RANDOM_OK:
            return (
                f"global-RNG call `{dotted}` — use a seeded "
                "`np.random.default_rng(seed)` (or `random.Random(seed)`)"
            )
        return None
    if dotted.startswith("numpy.random."):
        fn = dotted.rsplit(".", 1)[-1]
        if fn not in _NP_RANDOM_OK:
            return (
                f"module-level numpy RNG call `{dotted}` — draw from a "
                "seeded `np.random.default_rng(seed)` instance instead"
            )
    return None


def order_sensitive_sources(node: ast.AST) -> list[ast.AST]:
    """Iteration sources ``node`` consumes in an order-sensitive way.

    ``for``/comprehension iterators, the argument of a materialising
    wrapper (``list``/``tuple``/``enumerate``/``reversed``/``iter``),
    and the argument of a ``.join(...)`` call.
    """
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, ast.comprehension):
        return [node.iter]
    if isinstance(node, ast.Call):
        dotted = raw_dotted(node.func)
        if dotted in _ORDER_SENSITIVE_WRAPPERS and node.args:
            return [node.args[0]]
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
        ):
            return [node.args[0]]
    return []


def unordered_reason(
    node: ast.AST, imports: dict[str, str], *, flag_dict_keys: bool = False
) -> str | None:
    """Why ``node`` yields elements in nondeterministic order, if so."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension (hash order)"
    if isinstance(node, ast.Call):
        dotted = resolve_dotted(raw_dotted(node.func), imports)
        if dotted in _UNORDERED_CALLS:
            return f"`{dotted}(...)` (hash order)"
        if dotted in _FS_LIST_CALLS:
            return f"`{dotted}(...)` (filesystem order)"
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _SET_METHODS:
                return f"`.{node.func.attr}(...)` (set method, hash order)"
            if node.func.attr in _FS_LIST_METHODS and _is_pathlike(
                node.func.value, imports
            ):
                return f"`.{node.func.attr}(...)` (filesystem order)"
            if flag_dict_keys and node.func.attr == "keys":
                return "`.keys()` (strict mode)"
    return None


def _is_pathlike(node: ast.AST, imports: dict[str, str]) -> bool:
    """Whether the receiver is plausibly a ``pathlib.Path``.

    ``.glob``/``.rglob``/``.iterdir`` also exist on other objects;
    require the receiver to be a ``Path(...)``/``PurePath`` call or
    a name containing "path"/"dir" to keep false positives near zero.
    """
    if isinstance(node, ast.Call):
        dotted = resolve_dotted(raw_dotted(node.func), imports)
        return dotted is not None and dotted.rsplit(".", 1)[-1].endswith("Path")
    dotted = raw_dotted(node)
    if dotted is None:
        return False
    tail = dotted.rsplit(".", 1)[-1].lower()
    return "path" in tail or "dir" in tail or "root" in tail


@register_rule
class WallClockGlobalRNG(Rule):
    """DET001: no wall-clock or global-RNG calls in simulation code."""

    code = "DET001"
    summary = (
        "wall-clock (`time.time`, `datetime.now`, ...) and global-RNG "
        "(`random.*`, module-level `np.random.*`) calls are banned in "
        "simulation code; use the device clock and seeded `default_rng`"
    )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        dotted = call_name(node, ctx.imports)
        if dotted is None:
            return
        message = wall_clock_violation(dotted) or global_rng_violation(dotted)
        if message is not None:
            ctx.report(self.code, node, message)


@register_rule
class UnorderedIteration(Rule):
    """DET002: no hash-order/filesystem-order iteration reaching results."""

    code = "DET002"
    summary = (
        "iterating a set / directory listing in an order-sensitive "
        "position without `sorted()` leaks nondeterministic order into "
        "results"
    )

    def visit_For(self, node: ast.For, ctx: ModuleContext) -> None:
        self._check_sources(node, ctx)

    def visit_comprehension(self, node: ast.comprehension, ctx: ModuleContext) -> None:
        self._check_sources(node, ctx)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        """Order-sensitive wrappers: ``list(set(...))`` and friends."""
        self._check_sources(node, ctx)

    def _check_sources(self, node: ast.AST, ctx: ModuleContext) -> None:
        for source in order_sensitive_sources(node):
            reason = unordered_reason(
                source,
                ctx.imports,
                flag_dict_keys=self.config.det002_flag_dict_keys,
            )
            if reason is not None:
                ctx.report(
                    self.code,
                    source,
                    f"iteration over {reason} feeds an order-sensitive result — "
                    "wrap the source in `sorted(...)` to pin the order",
                )
