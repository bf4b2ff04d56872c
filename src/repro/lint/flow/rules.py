"""The project-scoped FLOW rules.

Unlike the per-file rules these run **once per lint invocation**, in the
parent process, against the shared :class:`~repro.lint.flow.engine.FlowProject`.
Each emits ordinary :class:`~repro.lint.report.Finding` objects, with the
``chain`` field carrying the source→sink call frames.

Suppression attaches at either endpoint: ``# repro-lint: ignore[FLOW00x]``
on the entry point's ``def`` line suppresses at the source; on the sink
line it suppresses every chain rooted there.  A *per-file* suppression at
the sink (``ignore[DET001]`` etc.) means the sink is locally justified
and never taints at all — see :mod:`repro.lint.flow.facts`.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import SUPPRESS_ALL, is_suppressed, raw_dotted
from repro.lint.flow.engine import FlowProject
from repro.lint.flow.facts import (
    KIND_ENTROPY,
    KIND_OBS,
    TAINT_KINDS,
)
from repro.lint.flow.index import FunctionInfo
from repro.lint.report import ChainFrame, Finding
from repro.lint.rules import Rule, register_rule

#: Minimum chain depth before FLOW001 reports a kind.  Kinds with a
#: per-file rule (DET001/DET002) are that rule's job at depth 0; the
#: flow pass only adds the cross-function hole.  OS entropy has no
#: per-file rule, so it reports at any depth.
_MIN_TAINT_DEPTH = {kind: (0 if kind == KIND_ENTROPY else 1) for kind in TAINT_KINDS}


def _plural(n: int) -> str:
    return "call" if n == 1 else "calls"


def _line_suppressed(suppressions: dict[int, set[str]], lineno: int, code: str) -> bool:
    codes = suppressions.get(lineno, set())
    return SUPPRESS_ALL in codes or code in codes


class FlowRule(Rule):
    """Base for project-scoped rules: shared emission policy."""

    scope = "project"

    def run(self, project: FlowProject) -> list[Finding]:
        raise NotImplementedError

    def _emit(
        self,
        out: list[Finding],
        project: FlowProject,
        *,
        path: str,
        line: int,
        col: int,
        message: str,
        chain: tuple[ChainFrame, ...] = (),
        suppressed: bool = False,
    ) -> None:
        if project.config.is_exempt(self.code, path):
            return
        if suppressed and not project.config.show_suppressed:
            return
        out.append(
            Finding(
                self.code,
                path,
                line,
                col,
                message,
                suppressed=suppressed,
                chain=chain,
            )
        )


@register_rule
class TransitiveNondeterminismRule(FlowRule):
    """FLOW001: entry points must not reach nondeterminism transitively.

    The per-file DET rules catch a ``time.time()`` *inside* a kernel;
    this rule catches the helper three frames below it.  One finding per
    (entry point, taint kind), anchored at the entry's ``def`` line,
    carrying the shortest source→sink chain.
    """

    code = "FLOW001"
    summary = (
        "simulation entry point transitively reaches wall-clock, global-RNG, "
        "OS-entropy, or unordered-iteration nondeterminism"
    )

    def run(self, project: FlowProject) -> list[Finding]:
        out: list[Finding] = []
        primary = project.taint_facts()
        shadow = (
            project.taint_facts(suppressed=True)
            if project.config.show_suppressed
            else {}
        )
        for fn in project.entry_points():
            mod = project.index.modules[fn.module]
            at_source = is_suppressed(mod.suppressions, fn.node, self.code)
            for kind in TAINT_KINDS:
                fact = primary.get(fn.qname, {}).get(kind)
                facts = primary
                at_sink = False
                if fact is None:
                    fact = shadow.get(fn.qname, {}).get(kind)
                    facts = shadow
                    at_sink = fact is not None
                if fact is None or fact.depth < _MIN_TAINT_DEPTH[kind]:
                    continue
                seed = fact.seed
                self._emit(
                    out,
                    project,
                    path=fn.path,
                    line=fn.lineno,
                    col=fn.col,
                    message=(
                        f"entry point `{fn.name}` transitively reaches "
                        f"{seed.detail} at {seed.path}:{seed.lineno} "
                        f"({fact.depth} {_plural(fact.depth)} deep)"
                    ),
                    chain=project.chain(fn.qname, kind, facts),
                    suppressed=at_source or at_sink,
                )
        return out


@register_rule
class RngStreamEscapeRule(FlowRule):
    """FLOW002: a component's private RNG stream must not escape it.

    An attribute assigned from an RNG constructor (``self._rng =
    default_rng(seed)``) is that component's private stream: sharing it
    couples the consumers' draw sequences, so adding a draw in one
    component silently reorders another's.  Flagged escapes: returning
    the stream, passing it to anything not resolved to the same class,
    and storing it on another object.
    """

    code = "FLOW002"
    summary = "private RNG stream escapes its owning component"

    def run(self, project: FlowProject) -> list[Finding]:
        index = project.index
        ctors = set(project.config.flow_rng_constructors)

        # Pass 1: where does each class mint a private stream?
        mints: dict[str, dict[str, tuple[str, int]]] = {}
        for qname in sorted(index.functions):
            fn = index.functions[qname]
            if fn.owner is None:
                continue
            for node in ast.walk(fn.node):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                value = node.value
                if not isinstance(value, ast.Call):
                    continue
                resolved = index.resolve(fn.module, raw_dotted(value.func))
                if resolved not in ctors:
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for t in targets:
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                    ):
                        mints.setdefault(fn.owner, {}).setdefault(
                            t.attr, (qname, node.lineno)
                        )

        # Pass 2: do any of those streams escape?
        out: list[Finding] = []
        for qname in sorted(index.functions):
            fn = index.functions[qname]
            if fn.owner is None:
                continue
            family = [c.qname for c in index.mro(fn.owner)]
            attrs: dict[str, tuple[str, int]] = {}
            for cls_qname in family:
                for attr, site in mints.get(cls_qname, {}).items():
                    attrs.setdefault(attr, site)
            if not attrs:
                continue
            mod = index.modules[fn.module]

            def is_stream(node: ast.AST) -> str | None:
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in attrs
                ):
                    return node.attr
                return None

            def report(node: ast.AST, attr: str, how: str) -> None:
                mint_fn, mint_line = attrs[attr]
                mint_path = index.functions[mint_fn].path
                suppressed = is_suppressed(
                    mod.suppressions, node, self.code
                ) or _line_suppressed(
                    index.modules[index.functions[mint_fn].module].suppressions,
                    mint_line,
                    self.code,
                )
                self._emit(
                    out,
                    project,
                    path=fn.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    message=(
                        f"private RNG stream `self.{attr}` (minted at "
                        f"{mint_path}:{mint_line}) {how}"
                    ),
                    chain=(
                        (fn.qname, fn.path, node.lineno),
                        (mint_fn, mint_path, mint_line),
                    ),
                    suppressed=suppressed,
                )

            for node in ast.walk(fn.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    attr = is_stream(node.value)
                    if attr:
                        report(node, attr, "is returned to the caller")
                elif isinstance(node, ast.Call):
                    from repro.lint.flow.callgraph import resolve_call

                    for arg in list(node.args) + [k.value for k in node.keywords]:
                        attr = is_stream(arg)
                        if attr is None:
                            continue
                        callee = resolve_call(index, fn, node)
                        callee_owner = (
                            index.functions[callee].owner
                            if callee in index.functions
                            else None
                        )
                        if callee_owner in family and callee_owner is not None:
                            continue  # stays inside the component
                        target = raw_dotted(node.func) or "<dynamic>"
                        report(
                            node, attr, f"is passed out of the component to `{target}`"
                        )
                elif isinstance(node, ast.Assign):
                    attr = is_stream(node.value)
                    if attr is None:
                        continue
                    for t in node.targets:
                        owner = (
                            raw_dotted(t.value)
                            if isinstance(t, ast.Attribute)
                            else None
                        )
                        if owner is not None and owner not in ("self", "cls"):
                            report(node, attr, f"is stored on another object `{owner}`")
        return out


@register_rule
class BatchSerialSymmetryRule(FlowRule):
    """FLOW003: batch APIs must mirror their scalar twin.

    The DAM refinements hinge on batching being *semantically invisible*
    — ``read_batch`` is an IO-schedule optimisation of N ``read`` calls,
    never a different operation.  Checked shape: a class defining a
    batch method must expose the scalar twin (possibly inherited), and
    the batch body's transitive ``self.*`` state footprint must stay
    within the scalar twin's.
    """

    code = "FLOW003"
    summary = "batch API lacks a scalar twin or touches state the twin never does"

    def run(self, project: FlowProject) -> list[Finding]:
        index = project.index
        pairs = project.config.flow_batch_pairs
        cache: dict[tuple[str, str], frozenset[str]] = {}
        out: list[Finding] = []
        for cls_qname in sorted(index.classes):
            cls = index.classes[cls_qname]
            family = {c.qname for c in index.mro(cls_qname)}
            for batch_name in sorted(pairs):
                scalar_name = pairs[batch_name]
                batch = index.resolve_method(cls_qname, batch_name)
                if batch is None:
                    continue
                # An inherited batch method is checked again on this
                # class: the hooks it dispatches to (a device's
                # ``_batch``) resolve to this class's overrides.  Such a
                # finding is anchored on the class statement.
                inherited = batch.owner != cls_qname
                if inherited:
                    path, line, col = cls.path, cls.lineno, 0
                    suppressed = _line_suppressed(
                        index.modules[cls.module].suppressions, cls.lineno, self.code
                    )
                else:
                    path, line, col = batch.path, batch.lineno, batch.col
                    suppressed = is_suppressed(
                        index.modules[batch.module].suppressions, batch.node, self.code
                    )
                scalar = index.resolve_method(cls_qname, scalar_name)
                if scalar is None:
                    if inherited:
                        continue  # reported where the batch method is defined
                    self._emit(
                        out,
                        project,
                        path=path,
                        line=line,
                        col=col,
                        message=(
                            f"`{cls.name}.{batch_name}` has no scalar twin "
                            f"`{scalar_name}` — batch APIs must be an "
                            f"IO-schedule optimisation of the scalar op"
                        ),
                        suppressed=suppressed,
                    )
                    continue
                suppressed = suppressed or _line_suppressed(
                    index.modules[scalar.module].suppressions,
                    scalar.lineno,
                    self.code,
                )
                extra = sorted(
                    self._closure(index, batch, cls_qname, family, cache)
                    - self._closure(index, scalar, cls_qname, family, cache)
                )
                if extra:
                    names = ", ".join(f"self.{a}" for a in extra)
                    self._emit(
                        out,
                        project,
                        path=path,
                        line=line,
                        col=col,
                        message=(
                            f"`{cls.name}.{batch_name}` touches state its scalar "
                            f"twin `{scalar.qname}` never does: {names}"
                        ),
                        chain=(
                            (batch.qname, batch.path, batch.lineno),
                            (scalar.qname, scalar.path, scalar.lineno),
                        ),
                        suppressed=suppressed,
                    )
        return out

    def _closure(
        self,
        index,
        fn: FunctionInfo,
        concrete: str,
        family: set[str],
        cache: dict[tuple[str, str], frozenset[str]],
        _visiting: set[str] | None = None,
    ) -> frozenset[str]:
        """``self.*`` attributes ``fn`` touches on a ``concrete`` instance.

        ``self.method`` dispatches (calls *and* bound references like
        ``get = self.get``) resolve through the concrete class's MRO —
        a base-class ``read`` that delegates to ``self._service`` lands
        on the subclass override actually running — and their
        closures are merged in.  Cycles contribute nothing extra.
        """
        key = (concrete, fn.qname)
        if key in cache:
            return cache[key]
        visiting = _visiting if _visiting is not None else set()
        if key in visiting:
            return frozenset()
        visiting.add(key)
        from repro.lint.astutil import PARENT_ATTR
        from repro.lint.flow.callgraph import resolve_call

        attrs: set[str] = set()
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
            ):
                parent = getattr(node, PARENT_ATTR, None)
                if isinstance(parent, ast.Call) and parent.func is node:
                    continue  # a dispatch — merged via the Call branch
                target = index.resolve_method(concrete, node.attr)
                if target is not None:
                    # Bound-method reference (``get = self.get``): behaves
                    # like a call, not like state.
                    attrs |= self._closure(
                        index, target, concrete, family, cache, visiting
                    )
                    continue
                attrs.add(node.attr)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")
                ):
                    target = index.resolve_method(concrete, func.attr)
                    if target is None:
                        # Not a method: an instance-attribute callable
                        # (``self._access(...)``) — that *is* state.
                        attrs.add(func.attr)
                        continue
                else:
                    callee = resolve_call(index, fn, node)
                    target = index.functions.get(callee) if callee else None
                if target is None or target.owner not in family:
                    continue
                attrs |= self._closure(
                    index, target, concrete, family, cache, visiting
                )
        visiting.discard(key)
        result = frozenset(attrs)
        cache[key] = result
        return result


@register_rule
class GuardPropagationRule(FlowRule):
    """FLOW004: OBS001, but across the call graph.

    A recording helper may carry ``ignore[OBS001]`` because "all callers
    guard" — this rule is what makes that claim checkable.  Guarded call
    sites block propagation; an entry point that still reaches an
    unguarded recording call gets the full chain.
    """

    code = "FLOW004"
    summary = "entry point reaches an obs recording call with no enabled-guard on the path"

    def run(self, project: FlowProject) -> list[Finding]:
        out: list[Finding] = []
        primary = project.obs_facts()
        shadow = (
            project.obs_facts(suppressed=True)
            if project.config.show_suppressed
            else {}
        )
        for fn in project.entry_points():
            mod = project.index.modules[fn.module]
            at_source = is_suppressed(mod.suppressions, fn.node, self.code)
            fact = primary.get(fn.qname, {}).get(KIND_OBS)
            facts = primary
            at_sink = False
            if fact is None:
                fact = shadow.get(fn.qname, {}).get(KIND_OBS)
                facts = shadow
                at_sink = fact is not None
            if fact is None or fact.depth < 1:
                continue  # depth 0 is OBS001's per-file job
            seed = fact.seed
            self._emit(
                out,
                project,
                path=fn.path,
                line=fn.lineno,
                col=fn.col,
                message=(
                    f"entry point `{fn.name}` reaches an obs recording call at "
                    f"{seed.path}:{seed.lineno} with no OBS.enabled guard "
                    f"anywhere on the path ({fact.depth} {_plural(fact.depth)} deep)"
                ),
                chain=project.chain(fn.qname, KIND_OBS, facts),
                suppressed=at_source or at_sink,
            )
        return out
