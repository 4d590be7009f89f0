"""Whole-program rules RPR101–RPR107.

Each rule receives the :class:`~repro.lint.project.ProjectModel` built
from every linted file and reasons across call boundaries.  Violations
are anchored at the concrete offending node (the mutation, the lock
acquisition, the impure call) and, where a call chain is the evidence,
the message spells the chain out so the finding is actionable without
re-running the analysis.

Approximation stance (shared by the call-graph rules): only *resolved* call
edges exist, so a chain through ``getattr`` or duck-typed dispatch is
invisible — these rules under-report rather than guess.  The runtime
:class:`~repro.lint.threadsan.ThreadSanitizer` covers the dynamic side
of the same hazards.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.project import FunctionInfo, ProjectModel, module_name_for
from repro.lint.rules import ProjectRule, Violation, register

__all__ = [
    "LAYERS",
    "LayerRule",
    "LockOrderRule",
    "PoolCaptureRule",
    "RetryBackoffRule",
    "SharedStateRule",
    "SimPurityRule",
    "SpanLeakRule",
    "layer_of",
]


def _fmt_chain(chain: list[str]) -> str:
    return " -> ".join(chain)


def _held_lock_fixpoint(
    project: ProjectModel, reachable: dict[str, str | None]
) -> dict[str, frozenset[str]]:
    """Locks *guaranteed* held on entry to each reachable function.

    Entry points start with nothing held; every other function gets the
    intersection over all in-closure call sites of (caller's guaranteed
    set ∪ locks lexically held at the site).  Standard decreasing
    fixpoint: initialise non-entries to the full lock universe.
    """
    universe = frozenset(
        site.key
        for fn in project.functions.values()
        for site in fn.lock_sites
    )
    held: dict[str, frozenset[str]] = {}
    for qualname, parent in reachable.items():
        held[qualname] = frozenset() if parent is None else universe
    changed = True
    while changed:
        changed = False
        for qualname in reachable:
            fn = project.functions[qualname]
            for call in fn.calls:
                if call.callee not in held:
                    continue
                incoming = held[qualname] | frozenset(call.locks_held)
                narrowed = held[call.callee] & incoming
                if narrowed != held[call.callee]:
                    held[call.callee] = narrowed
                    changed = True
    return held


@register
class SharedStateRule(ProjectRule):
    code = "RPR101"
    name = "unlocked-shared-module-state"
    rationale = (
        "Module-level mutable state mutated on a path reachable from a "
        "thread entry point without any lock held is a data race: "
        "worker interleavings make runs non-reproducible."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        reachable = project.reachable(project.thread_entries())
        if not reachable:
            return
        held = _held_lock_fixpoint(project, reachable)
        for qualname in sorted(reachable):
            fn = project.functions[qualname]
            for mutation in fn.mutations:
                if mutation.locked or held.get(qualname):
                    continue
                chain = _fmt_chain(ProjectModel.chain(reachable, qualname))
                yield self.project_violation(
                    fn.path,
                    mutation.node,
                    f"module state '{mutation.target}' mutated without a "
                    f"lock on a threaded path ({chain})",
                )


@register
class LockOrderRule(ProjectRule):
    code = "RPR102"
    name = "lock-order-inconsistency"
    rationale = (
        "Two locks acquired in opposite orders on different paths can "
        "deadlock; the acquire-order graph must stay acyclic."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        # Locks each function acquires directly or via resolved callees.
        acquired: dict[str, frozenset[str]] = {
            q: frozenset(site.key for site in fn.lock_sites)
            for q, fn in project.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for qualname, fn in project.functions.items():
                union = acquired[qualname]
                for call in fn.calls:
                    union = union | acquired.get(call.callee, frozenset())
                if union != acquired[qualname]:
                    acquired[qualname] = union
                    changed = True

        # edge (a, b): b acquired while a held; keep one witness site.
        edges: dict[tuple[str, str], tuple[FunctionInfo, ast.AST]] = {}

        def add_edge(a: str, b: str, fn: FunctionInfo, node: ast.AST):
            if a != b:  # self-nesting may be a legal RLock re-entry
                edges.setdefault((a, b), (fn, node))

        for fn in project.iter_functions():
            for site in fn.lock_sites:
                for outer in site.held:
                    add_edge(outer, site.key, fn, site.node)
            for call in fn.calls:
                if not call.locks_held:
                    continue
                for inner in sorted(acquired.get(call.callee, ())):
                    for outer in call.locks_held:
                        add_edge(outer, inner, fn, call.node)

        graph: dict[str, set[str]] = {}
        for a, b in edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())

        for cycle in _cycles(graph):
            # Anchor the finding at the witness site of the cycle's
            # lexicographically first edge, so output is stable.
            pairs = [
                (cycle[i], cycle[(i + 1) % len(cycle)])
                for i in range(len(cycle))
            ]
            witness = min(p for p in pairs if p in edges)
            fn, node = edges[witness]
            order = " -> ".join(cycle + [cycle[0]])
            yield self.project_violation(
                fn.path,
                node,
                f"inconsistent lock acquisition order (cycle {order}); "
                f"witnessed in {fn.qualname}",
            )


def _cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Cycles in the acquire-order graph, one per strongly connected
    component with more than one node, canonically rotated."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    out: list[list[str]] = []

    def strongconnect(v: str) -> None:
        # Iterative Tarjan (recursion depth is unbounded on long chains).
        work = [(v, iter(sorted(graph[v])))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    # Rotate so the smallest lock leads; order members
                    # along actual edges where possible for readability.
                    component.sort()
                    out.append(component)

    for vertex in sorted(graph):
        if vertex not in index:
            strongconnect(vertex)
    return out


@register
class SimPurityRule(ProjectRule):
    code = "RPR103"
    name = "sim-impure-reachable"
    rationale = (
        "Functions reachable from simulation event callbacks must be "
        "pure w.r.t. the host: wall-clock reads, unseeded RNG or I/O "
        "there makes simulated results machine-dependent."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        reachable = project.reachable(project.sim_entries())
        for qualname in sorted(reachable):
            fn = project.functions[qualname]
            for impure in fn.impure_calls:
                chain = _fmt_chain(ProjectModel.chain(reachable, qualname))
                yield self.project_violation(
                    fn.path,
                    impure.node,
                    f"{impure.kind} call {impure.dotted}() reachable from "
                    f"sim event callback ({chain})",
                )


@register
class PoolCaptureRule(ProjectRule):
    code = "RPR104"
    name = "non-picklable-pool-capture"
    rationale = (
        "Lambdas and nested functions cannot be pickled; shipping one "
        "to a process pool (ProcessPoolExecutor or SweepPool) or "
        "embedding one in a PointSpec fails only at runtime, on the "
        "worker."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for fn in project.iter_functions():
            for sub in fn.pool_submissions:
                if sub.fn_arg is not None:
                    problem = self._unpicklable(fn, sub.fn_arg)
                    if problem:
                        yield self.project_violation(
                            fn.path,
                            sub.node,
                            f"{problem} submitted to a process pool "
                            f"in {fn.qualname} cannot be pickled",
                        )
                for arg in sub.payload_args:
                    for expr in self._payload_exprs(arg):
                        problem = self._unpicklable(fn, expr)
                        if problem:
                            yield self.project_violation(
                                fn.path,
                                sub.node,
                                f"{problem} in a chunk submitted to a "
                                f"worker pool in {fn.qualname} cannot "
                                f"be pickled",
                            )
            for call in self._pointspec_calls(fn):
                for arg in list(call.args) + [
                    kw.value for kw in call.keywords
                ]:
                    problem = self._unpicklable(fn, arg)
                    if problem:
                        yield self.project_violation(
                            fn.path,
                            call,
                            f"{problem} embedded in a PointSpec in "
                            f"{fn.qualname} cannot be pickled",
                        )

    @staticmethod
    def _payload_exprs(arg: ast.expr) -> Iterator[ast.expr]:
        """The argument itself plus the elements of literal containers
        (a chunk is typically a list of specs built in place; a worker
        payload is a dict literal; capture flags ride as conditionals)."""
        yield arg
        if isinstance(arg, (ast.List, ast.Tuple, ast.Set)):
            yield from arg.elts
        elif isinstance(arg, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            yield arg.elt
        elif isinstance(arg, ast.Dict):
            yield from (key for key in arg.keys if key is not None)
            yield from arg.values
        elif isinstance(arg, ast.DictComp):
            yield arg.key
            yield arg.value
        elif isinstance(arg, ast.IfExp):
            yield from PoolCaptureRule._payload_exprs(arg.body)
            yield from PoolCaptureRule._payload_exprs(arg.orelse)

    @staticmethod
    def _pointspec_calls(fn: FunctionInfo) -> Iterator[ast.Call]:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None
                )
                if name == "PointSpec":
                    yield node

    @staticmethod
    def _unpicklable(fn: FunctionInfo, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Lambda):
            return "lambda"
        if isinstance(expr, ast.Name):
            scope: FunctionInfo | None = fn
            while scope is not None:
                if expr.id in scope.local_defs:
                    return f"nested function '{expr.id}'"
                scope = scope.parent
        return None


@register
class SpanLeakRule(ProjectRule):
    code = "RPR105"
    name = "obs-span-leak"
    rationale = (
        "A tracer span opened outside a with-statement never closes on "
        "an exception path, so the trace silently loses the span and "
        "every duration derived from it."
    )

    #: Receiver terminal names that identify a tracer object.
    _TRACER_NAMES = ("tracer", "_tracer", "obs")

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for fn in project.iter_functions():
            yield from self._check_function(fn)

    def _check_function(self, fn: FunctionInfo) -> Iterator[Violation]:
        with_exprs: set[int] = set()
        with_names: set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_exprs.add(id(item.context_expr))
                    if isinstance(item.context_expr, ast.Name):
                        with_names.add(item.context_expr.id)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "span"):
                continue
            value = func.value
            terminal = (
                value.id
                if isinstance(value, ast.Name)
                else value.attr if isinstance(value, ast.Attribute) else None
            )
            if terminal is None or not any(
                name in terminal.lower() for name in self._TRACER_NAMES
            ):
                continue
            if id(node) in with_exprs:
                continue
            # `handle = tracer.span(...)` then `with handle:` is fine,
            # as is a handle deterministically closed in a finally —
            # the pattern worker-side capture uses when a span must
            # cross a dispatch boundary a with-block cannot straddle.
            assigned = self._assigned_name(fn.node, node)
            if assigned is not None and (
                assigned in with_names
                or assigned in self._finally_closed(fn.node)
            ):
                continue
            yield self.project_violation(
                fn.path,
                node,
                f"span opened in {fn.qualname} outside a with-statement; "
                f"an exception before close loses the span",
            )

    @staticmethod
    def _assigned_name(root: ast.AST, call: ast.Call) -> str | None:
        for node in ast.walk(root):
            if isinstance(node, ast.Assign) and node.value is call:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    return target.id
        return None

    @staticmethod
    def _finally_closed(root: ast.AST) -> set[str]:
        """Names whose ``.close()`` / ``.__exit__()`` runs in a
        ``finally`` block — closed on every path, exception included."""
        closed: set[str] = set()
        for node in ast.walk(root):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            for stmt in node.finalbody:
                for call in ast.walk(stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in ("close", "__exit__")
                        and isinstance(func.value, ast.Name)
                    ):
                        closed.add(func.value.id)
        return closed


@register
class RetryBackoffRule(ProjectRule):
    code = "RPR106"
    name = "retry-without-backoff"
    rationale = (
        "A bare while-True try/except around a queue or storage call "
        "with neither backoff nor an attempt budget hammers the "
        "service in a hot loop: every transient error becomes a retry "
        "storm.  Wrap the call in a RetryPolicy (exponential backoff, "
        "budget-capped) or sleep between attempts."
    )

    #: Client methods whose immediate unbounded retry we flag.
    _CLIENT_METHODS = frozenset(
        ("receive", "send", "send_batch", "delete", "get", "put", "head",
         "list_keys")
    )
    #: Receiver terminal-name fragments that identify a remote client.
    _CLIENT_NAMES = ("queue", "storage", "store", "blob", "bucket", "client")
    #: Calls that pace a retry loop (simulated or real sleeps, or a
    #: policy-computed delay).
    _BACKOFF_NAMES = frozenset(("timeout", "sleep", "backoff_s"))

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for fn in project.iter_functions():
            yield from self._check_function(fn)

    def _check_function(self, fn: FunctionInfo) -> Iterator[Violation]:
        for loop in ast.walk(fn.node):
            if not isinstance(loop, ast.While):
                continue
            test = loop.test
            if not (isinstance(test, ast.Constant) and test.value is True):
                continue
            if self._has_backoff(loop):
                continue
            for handler_try in ast.walk(loop):
                if not isinstance(handler_try, ast.Try):
                    continue
                if self._handlers_escape(handler_try):
                    continue
                call = self._client_call(handler_try)
                if call is None:
                    continue
                yield self.project_violation(
                    fn.path,
                    call,
                    f"unbounded immediate retry of "
                    f"{self._describe(call)} in {fn.qualname}: while-True "
                    f"retry loop with no backoff and no attempt budget",
                )

    def _client_call(self, handler_try: ast.Try) -> ast.Call | None:
        """The first queue/storage client call in the try body."""
        for stmt in handler_try.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._CLIENT_METHODS
                ):
                    continue
                value = func.value
                terminal = (
                    value.id
                    if isinstance(value, ast.Name)
                    else value.attr
                    if isinstance(value, ast.Attribute)
                    else None
                )
                if terminal is not None and any(
                    fragment in terminal.lower()
                    for fragment in self._CLIENT_NAMES
                ):
                    return node
        return None

    def _has_backoff(self, loop: ast.While) -> bool:
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if name in self._BACKOFF_NAMES:
                return True
        return False

    @staticmethod
    def _handlers_escape(handler_try: ast.Try) -> bool:
        """True when some handler raises, returns or breaks — i.e. the
        loop has *an* attempt budget, however it is implemented."""
        for handler in handler_try.handlers:
            for stmt in handler.body:
                for node in ast.walk(stmt):
                    if isinstance(node, (ast.Raise, ast.Return, ast.Break)):
                        return True
        return False

    @staticmethod
    def _describe(call: ast.Call) -> str:
        func = call.func
        value = func.value
        terminal = (
            value.id
            if isinstance(value, ast.Name)
            else value.attr if isinstance(value, ast.Attribute) else "?"
        )
        return f"{terminal}.{func.attr}()"


#: The layers of docs/ARCHITECTURE.md, bottom to top, at module
#: granularity.  A module sits in the layer of its longest listed
#: dotted prefix; ``repro`` itself catches whatever no other prefix
#: names, so an unlisted module counts as a tool.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("kernel", ("repro.sim",)),
    ("observability", ("repro.obs",)),
    ("types and substrate", (
        "repro.core.task", "repro.core.application", "repro.core.attempt",
        "repro.core.metrics", "repro.core.cost", "repro.cloud",
        "repro.cluster", "repro.apps", "repro.workloads",
    )),
    ("mechanisms", ("repro.autoscale", "repro.chaos")),
    ("backends", (
        "repro.classiccloud", "repro.hadoop", "repro.dryad", "repro.twister",
    )),
    ("API and studies", (
        "repro.core", "repro.sweep", "repro.serve", "repro.workloads.store",
        "repro.autoscale.study", "repro.chaos.campaign", "repro.figures",
    )),
    ("tools", ("repro", "repro.cli", "repro.obs.report", "repro.lint")),
)

_LAYER_BY_PREFIX = {
    prefix: index
    for index, (_, prefixes) in enumerate(LAYERS)
    for prefix in prefixes
}


def layer_of(module: str) -> int | None:
    """Index into :data:`LAYERS` of a dotted module (or imported name)
    by its longest listed prefix; ``None`` outside ``repro``."""
    parts = module.split(".")
    while parts:
        index = _LAYER_BY_PREFIX.get(".".join(parts))
        if index is not None:
            return index
        parts.pop()
    return None


@register
class LayerRule(ProjectRule):
    code = "RPR107"
    name = "upward-layer-import"
    rationale = (
        "A module-level import of a higher layer (docs/ARCHITECTURE.md) "
        "makes every run load the tools above it and ties the lower "
        "layer to them; import it inside the function that needs it."
    )

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        for info in project.modules.values():
            path = info.parsed.path
            if path.stem == "__init__":
                continue  # package re-exports are not edges
            importer = module_name_for(path)
            own = layer_of(importer)
            if own is None:
                continue
            # Only the module body's own statements: an import inside a
            # function (a lazy opt-in) or under ``if``/``try`` is not one.
            for stmt in info.parsed.tree.body:
                for target in self._targets(importer, stmt):
                    layer = layer_of(target)
                    if layer is not None and layer > own:
                        yield self.project_violation(
                            path,
                            stmt,
                            f"{importer} ({LAYERS[own][0]}) imports "
                            f"{target} ({LAYERS[layer][0]}) at module "
                            f"level; a layer imports only itself and the "
                            f"layers below it",
                        )

    @staticmethod
    def _targets(importer: str, stmt: ast.stmt) -> list[str]:
        """Dotted names an import statement binds: ``from a import b``
        gives ``a.b``, which resolves a submodule ``b`` to its own layer
        and any other name to ``a``'s."""
        if isinstance(stmt, ast.Import):
            return [alias.name for alias in stmt.names]
        if not isinstance(stmt, ast.ImportFrom):
            return []
        base = stmt.module or ""
        if stmt.level:
            package = importer.rsplit(".", stmt.level)[0]
            base = f"{package}.{base}" if base else package
        return [
            base if alias.name == "*" else f"{base}.{alias.name}"
            for alias in stmt.names
        ]
