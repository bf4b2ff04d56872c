"""OBS001 — every obs recording call sits under an enabled-guard.

The observability layer's contract (docs/observability.md) is that a
disabled run pays **one boolean test per event** — that is what keeps
the measured overhead under the 5% gate of ``tools/obs_overhead.py``
and simulated results byte-identical with obs on or off.  The contract
only holds if *call sites* check ``OBS.enabled`` before touching the
registry: `OBS.counter("x").inc()` on an unguarded path still pays the
dict lookup and object churn even when disabled.

Recognised guards:

* ``if OBS.enabled:`` (the call hangs off the ``body``, not ``orelse``);
* ``if observe:`` where ``observe = OBS.enabled`` anywhere in the file
  (the sweep executor's hoisted-flag pattern);
* ``and``-conjunctions containing either of the above;
* an early return ``if not OBS.enabled: return`` earlier in the same
  function.

Helpers that are *only called* under a guard (e.g. ``_obs_io``) are
invisible to this per-site analysis — mark the call inside them with
``# repro-lint: ignore[OBS001]`` and a comment naming the guard site.
The whole-program layer (FLOW004) then verifies the other half of that
contract: every transitive call path into such a helper is guarded.

The guard detectors take explicit ``enabled_aliases``/``registry_names``
parameters so the flow layer can apply the exact same dominance logic
to arbitrary call sites; the ``ModuleContext``-based wrappers are what
the per-file rule uses.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import ancestors, enclosing_function, node_in_field, raw_dotted
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.lint.engine import ModuleContext
from repro.lint.rules import Rule, register_rule

#: Registry methods that record (everything else — enable/disable/
#: reset/snapshot/render — is control plane, not per-event hot path).
_RECORDING_METHODS = frozenset(
    {"counter", "gauge", "histogram", "io_event", "op_event"}
)

#: Tracer methods that record.
_TRACER_METHODS = frozenset({"record", "record_span", "span"})


def registry_owner(node: ast.AST, registry_names: Iterable[str]) -> bool:
    """Whether ``node`` denotes the process-wide obs registry."""
    dotted = raw_dotted(node)
    if dotted is None:
        return False
    names = tuple(registry_names)
    return dotted in names or dotted.split(".")[-1] in names


def recording_call(node: ast.Call, registry_names: Iterable[str]) -> bool:
    """Whether this call records into the obs registry or its tracer."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in _RECORDING_METHODS and registry_owner(func.value, registry_names):
        return True
    if (
        func.attr in _TRACER_METHODS
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "tracer"
        and registry_owner(func.value.value, registry_names)
    ):
        return True
    return False


def is_recording_call(node: ast.Call, ctx: ModuleContext) -> bool:
    """ModuleContext wrapper around :func:`recording_call`.

    Shared with ERR001, which accepts an obs counter as a legitimate way
    for an ``except`` handler to avoid swallowing silently.
    """
    return recording_call(node, ctx.config.obs_registry_names)


def test_guards(
    test: ast.AST, enabled_aliases: set[str], registry_names: Iterable[str]
) -> bool:
    """Whether an ``if`` test guarantees obs is enabled when true."""
    if isinstance(test, ast.Attribute) and test.attr == "enabled":
        return registry_owner(test.value, registry_names)
    if isinstance(test, ast.Name):
        return test.id in enabled_aliases
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(test_guards(v, enabled_aliases, registry_names) for v in test.values)
    return False


def test_rejects(
    test: ast.AST, enabled_aliases: set[str], registry_names: Iterable[str]
) -> bool:
    """Whether an ``if`` test is ``not <enabled>`` (early-return guard)."""
    return (
        isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and test_guards(test.operand, enabled_aliases, registry_names)
    )


def _terminates(stmts: list[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def guarded_by_ancestor(
    node: ast.AST, enabled_aliases: set[str], registry_names: Iterable[str]
) -> bool:
    """Whether an enclosing ``if <enabled>:`` dominates ``node``."""
    for anc, child in ancestors(node):
        if isinstance(anc, ast.If) and node_in_field(anc, child, "body"):
            if test_guards(anc.test, enabled_aliases, registry_names):
                return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break  # guards outside the enclosing function don't count
    return False


def guarded_by_early_return(
    node: ast.AST, enabled_aliases: set[str], registry_names: Iterable[str]
) -> bool:
    """Whether ``if not <enabled>: return`` earlier in the function guards."""
    fn = enclosing_function(node)
    if fn is None:
        return False
    lineno = getattr(node, "lineno", 0)
    for stmt in ast.walk(fn):
        if (
            isinstance(stmt, ast.If)
            and stmt.lineno < lineno
            and test_rejects(stmt.test, enabled_aliases, registry_names)
            and _terminates(stmt.body)
        ):
            return True
    return False


def site_guarded(
    node: ast.AST, enabled_aliases: set[str], registry_names: Iterable[str]
) -> bool:
    """Whether an enabled-guard dominates ``node`` (either guard form)."""
    return guarded_by_ancestor(
        node, enabled_aliases, registry_names
    ) or guarded_by_early_return(node, enabled_aliases, registry_names)


@register_rule
class UnguardedObsCall(Rule):
    """OBS001: obs recording calls must sit under ``if OBS.enabled:``."""

    code = "OBS001"
    summary = (
        "`OBS.` recording calls (counter/gauge/histogram/io_event/"
        "op_event/tracer.record) must be guarded by `if OBS.enabled:` — "
        "the <5% disabled-overhead gate depends on it"
    )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if not is_recording_call(node, ctx):
            return
        if site_guarded(
            node, ctx.enabled_aliases, ctx.config.obs_registry_names
        ):
            return
        ctx.report(
            self.code,
            node,
            "obs recording call outside an `if OBS.enabled:` guard "
            "(guarded helpers: suppress with `# repro-lint: ignore[OBS001]` "
            "and name the guard site)",
        )
