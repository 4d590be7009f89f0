"""Whole-program model for the interprocedural lint rules (RPR1xx).

The per-file rules (``repro.lint.checks``) see one AST at a time; the
concurrency and purity hazards that actually bite — shared module state
mutated from a thread three calls away, a lock-order cycle split across
two methods, ``time.sleep`` hiding below a simulation process — only
show up when the linted files are read *together*.  This module builds
that joint view:

* every file is parsed **once** (the same :class:`ParsedModule` objects
  the per-file pass already produced are reused verbatim);
* every function and method gets a :class:`FunctionInfo` carrying the
  facts rules need — resolved call edges, impure call sites, mutations
  of module-level state, lock acquisitions and their nesting;
* a project-wide call graph with forward/reverse adjacency plus
  reachability helpers (:meth:`ProjectModel.reachable`,
  :meth:`ProjectModel.chain`).

Resolution is deliberately best-effort and *conservative*: a call is
linked only when the target is unambiguous — a lexically visible
function, ``self.method`` on the enclosing class, an import-aliased
project function, or a method name defined exactly once in the whole
project.  Anything else stays unresolved rather than guessing (a lint
pass must not hallucinate edges into unrelated code).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.rules import NP_RANDOM_ALLOWED, WALL_CLOCK_CALLS, ParsedModule

__all__ = [
    "CallSite",
    "FunctionInfo",
    "LockSite",
    "ModuleInfo",
    "Mutation",
    "PoolSubmission",
    "ProjectModel",
    "module_name_for",
]

#: Wall-clock reads plus real-time sleeps: host-dependent in sim code.
WALL_CALLS = WALL_CLOCK_CALLS | {"time.sleep"}

#: Dotted-prefix matches that count as I/O for the sim-purity rule.
IO_PREFIXES = (
    "os.remove",
    "os.unlink",
    "os.replace",
    "os.rename",
    "os.mkdir",
    "os.makedirs",
    "os.rmdir",
    "os.listdir",
    "os.fdopen",
    "os.close",
    "subprocess.",
    "shutil.",
    "socket.",
    "tempfile.",
    "urllib.request.",
    "requests.",
)

#: Method names whose call on a container mutates it in place.
MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}

#: Constructors whose module-level result is shared mutable state.
_MUTABLE_CONSTRUCTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "Counter",
    "OrderedDict",
}


def module_name_for(path: Path) -> str:
    """Dotted module name for a file: ``src/repro/sim/engine.py`` →
    ``repro.sim.engine``, from the innermost ``repro`` directory (a
    checkout may itself sit in one); files outside one use the stem."""
    parts = list(path.parts)
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        tail = parts[start:-1]
        if path.stem != "__init__":
            tail.append(path.stem)
        return ".".join(tail)
    return path.stem


def _is_lockish(node: ast.expr) -> str | None:
    """Terminal symbol of a lock-looking Name/Attribute chain, or None.

    ``self._lock``, ``registry_lock``, ``MUTEX`` all qualify; a
    ``lock_for(key)`` call qualifies through its function name.
    """
    if isinstance(node, ast.Call):
        return _is_lockish(node.func)
    if isinstance(node, ast.Attribute):
        symbol = node.attr
    elif isinstance(node, ast.Name):
        symbol = node.id
    else:
        return None
    lowered = symbol.lower()
    if "lock" in lowered or "mutex" in lowered:
        return symbol
    return None


def _attr_chain(node: ast.expr) -> str | None:
    """``self._lock`` → ``"self._lock"``; None for non-trivial exprs."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, with the locks lexically held at it."""

    callee: str  # qualname of the target
    node: ast.AST
    locks_held: tuple[str, ...]


@dataclass(frozen=True)
class LockSite:
    """One lock acquisition (``with lock:`` or ``.acquire()``)."""

    key: str  # project-wide lock identity
    node: ast.AST
    held: tuple[str, ...]  # locks already held when this one is taken


@dataclass(frozen=True)
class Mutation:
    """An in-place mutation of a module-level mutable binding."""

    target: str  # "module.NAME" of the mutated global
    node: ast.AST
    locked: bool  # lexically inside a with-lock block


@dataclass(frozen=True)
class ImpureCall:
    """A wall-clock / RNG / I/O call site (for the sim-purity rule)."""

    kind: str  # "wall-clock" | "rng" | "io"
    dotted: str
    node: ast.AST


@dataclass(frozen=True)
class PoolSubmission:
    """Work shipped to a process pool (submit/map/submit_chunk).

    ``fn_arg`` is the callable expression for submit/map style calls
    and ``None`` for chunked submissions, where only the payload
    crosses the process boundary.  ``payload_args`` are the pickled
    arguments — for a chunked submission that is the chunk itself.
    """

    fn_arg: "ast.expr | None"  # the callable expression being shipped
    node: ast.AST  # the submit/map/submit_chunk call, for location
    payload_args: tuple = ()  # pickled argument expressions


@dataclass
class FunctionInfo:
    """Everything the project rules know about one function or method."""

    qualname: str
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: str | None = None  # enclosing class name, if a method
    parent: "FunctionInfo | None" = None  # lexically enclosing function
    local_defs: dict[str, str] = field(default_factory=dict)
    local_names: set[str] = field(default_factory=set)
    calls: list[CallSite] = field(default_factory=list)
    impure_calls: list[ImpureCall] = field(default_factory=list)
    mutations: list[Mutation] = field(default_factory=list)
    lock_sites: list[LockSite] = field(default_factory=list)
    pool_submissions: list[PoolSubmission] = field(default_factory=list)
    is_thread_entry: bool = False
    is_sim_entry: bool = False

    @property
    def path(self) -> Path:
        return self.module.parsed.path


@dataclass
class ModuleInfo:
    """One parsed file inside the project model."""

    name: str
    parsed: ParsedModule
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    toplevel: dict[str, str] = field(default_factory=dict)  # name -> qualname
    mutable_globals: dict[str, ast.AST] = field(default_factory=dict)


class ProjectModel:
    """The linted files as one program: functions, edges, reachability."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: method/function *simple* name -> qualnames defining it.
        self._by_name: dict[str, list[str]] = {}
        self._forward: dict[str, set[str]] | None = None
        self._reverse: dict[str, set[str]] | None = None

    # -- construction -----------------------------------------------------
    @classmethod
    def build(cls, parsed_modules: Iterable[ParsedModule]) -> "ProjectModel":
        project = cls()
        infos = []
        for parsed in parsed_modules:
            name = module_name_for(parsed.path)
            # Two files mapping to one dotted name (e.g. same-stem
            # fixtures) keep the first; rules only need self-consistency.
            if name in project.modules:
                name = f"{name}@{len(project.modules)}"
            info = ModuleInfo(name=name, parsed=parsed)
            project.modules[name] = info
            infos.append(info)
        for info in infos:
            project._index_module(info)
        for info in infos:
            for fn in info.functions.values():
                _FunctionAnalyzer(project, fn).run()
        return project

    def _index_module(self, info: ModuleInfo) -> None:
        _Indexer(self, info).visit(info.parsed.tree)
        for stmt in info.parsed.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not self._is_mutable_literal(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    info.mutable_globals[target.id] = stmt

    @staticmethod
    def _is_mutable_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            return name in _MUTABLE_CONSTRUCTORS
        return False

    def _register(self, fn: FunctionInfo) -> None:
        self.functions[fn.qualname] = fn
        simple = fn.qualname.rsplit(".", 1)[-1]
        self._by_name.setdefault(simple, []).append(fn.qualname)

    # -- resolution helpers ----------------------------------------------
    def unique_by_name(self, simple: str) -> str | None:
        """The single project function with this simple name, if unique.

        Class-hierarchy-analysis lite: when exactly one function in the
        whole linted set is called ``receive``, an unresolvable
        ``obj.receive()`` can only mean it.  Two candidates → no edge.
        """
        hits = self._by_name.get(simple)
        if hits and len(hits) == 1:
            return hits[0]
        return None

    def resolve_ref(self, fn: FunctionInfo, node: ast.expr) -> str | None:
        """Resolve a function *reference* (not a call) to a qualname."""
        if isinstance(node, ast.Name):
            scope: FunctionInfo | None = fn
            while scope is not None:
                if node.id in scope.local_defs:
                    return scope.local_defs[node.id]
                scope = scope.parent
            hit = fn.module.toplevel.get(node.id)
            if hit is not None:
                return hit
            dotted = fn.module.parsed.aliases.get(node.id)
            if dotted is not None:
                return self._lookup_dotted(dotted)
            return None
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
                and fn.cls is not None
            ):
                candidate = f"{fn.module.name}.{fn.cls}.{node.attr}"
                if candidate in self.functions:
                    return candidate
            dotted = fn.module.parsed.resolve(node)
            if dotted is not None:
                return self._lookup_dotted(dotted)
            return self.unique_by_name(node.attr)
        return None

    def _lookup_dotted(self, dotted: str) -> str | None:
        if dotted in self.functions:
            return dotted
        # "from repro.sweep.points import run_point" gives the dotted
        # path straight away; "from repro.sweep import points" then
        # "points.run_point" resolves through the alias chain above.
        return None

    # -- graph views ------------------------------------------------------
    def _ensure_graph(self) -> None:
        if self._forward is not None:
            return
        forward: dict[str, set[str]] = {q: set() for q in self.functions}
        reverse: dict[str, set[str]] = {q: set() for q in self.functions}
        for fn in self.functions.values():
            for call in fn.calls:
                if call.callee in self.functions:
                    forward[fn.qualname].add(call.callee)
                    reverse[call.callee].add(fn.qualname)
        self._forward = forward
        self._reverse = reverse

    @property
    def call_graph(self) -> dict[str, set[str]]:
        self._ensure_graph()
        assert self._forward is not None
        return self._forward

    def callers_of(self, qualname: str) -> set[str]:
        self._ensure_graph()
        assert self._reverse is not None
        return self._reverse.get(qualname, set())

    def reachable(self, seeds: Iterable[str]) -> dict[str, str | None]:
        """BFS closure over the call graph.

        Returns ``{qualname: parent}`` for every reachable function
        (seeds map to ``None``), so rules can rebuild the witness chain.
        """
        self._ensure_graph()
        assert self._forward is not None
        parents: dict[str, str | None] = {}
        queue: list[str] = []
        for seed in seeds:
            if seed in self.functions and seed not in parents:
                parents[seed] = None
                queue.append(seed)
        while queue:
            current = queue.pop(0)
            for callee in sorted(self._forward.get(current, ())):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return parents

    @staticmethod
    def chain(parents: dict[str, str | None], qualname: str) -> list[str]:
        """Witness path entry → … → ``qualname`` from a BFS parent map."""
        path = [qualname]
        seen = {qualname}
        while True:
            parent = parents.get(path[-1])
            if parent is None or parent in seen:
                break
            path.append(parent)
            seen.add(parent)
        return list(reversed(path))

    def thread_entries(self) -> list[str]:
        return sorted(
            fn.qualname for fn in self.functions.values() if fn.is_thread_entry
        )

    def sim_entries(self) -> list[str]:
        return sorted(
            fn.qualname for fn in self.functions.values() if fn.is_sim_entry
        )

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]


class _Indexer(ast.NodeVisitor):
    """First pass: register every function/method with its qualname."""

    def __init__(self, project: ProjectModel, module: ModuleInfo):
        self.project = project
        self.module = module
        self._class_stack: list[str] = []
        self._fn_stack: list[FunctionInfo] = []

    def _qualname(self, name: str) -> str:
        parts = [self.module.name]
        if self._fn_stack:
            # Nested function: qualify by the enclosing chain.
            parts = [self._fn_stack[-1].qualname]
        elif self._class_stack:
            parts.append(".".join(self._class_stack))
        parts.append(name)
        return ".".join(parts)

    def _handle_function(self, node) -> None:
        qualname = self._qualname(node.name)
        fn = FunctionInfo(
            qualname=qualname,
            module=self.module,
            node=node,
            cls=self._class_stack[-1] if self._class_stack else None,
            parent=self._fn_stack[-1] if self._fn_stack else None,
        )
        if fn.parent is not None:
            fn.parent.local_defs[node.name] = qualname
            fn.cls = fn.parent.cls
        elif not self._class_stack:
            self.module.toplevel[node.name] = qualname
        self.module.functions[qualname] = fn
        self.project._register(fn)
        self._fn_stack.append(fn)
        self.generic_visit(node)
        self._fn_stack.pop()

    visit_FunctionDef = _handle_function
    visit_AsyncFunctionDef = _handle_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._fn_stack:
            # Classes inside functions: skip the extra qualname layer.
            self.generic_visit(node)
            return
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()


class _FunctionAnalyzer:
    """Second pass over one function's *own* statements.

    Nested function definitions are skipped (they are analyzed as their
    own :class:`FunctionInfo`); lambdas are attributed to the enclosing
    function.  The walk threads a lexical lock stack so every recorded
    fact carries the locks held at that point.
    """

    def __init__(self, project: ProjectModel, fn: FunctionInfo):
        self.project = project
        self.fn = fn
        self.module = fn.module
        self.parsed = fn.module.parsed
        self._lock_stack: list[str] = []

    def run(self) -> None:
        fn_node = self.fn.node
        self.fn.local_names.update(self._parameter_names(fn_node))
        self._collect_local_names(fn_node)
        for stmt in fn_node.body:
            self._walk(stmt)

    @staticmethod
    def _parameter_names(fn_node) -> list[str]:
        args = fn_node.args
        all_args = (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
        return [a.arg for a in all_args]

    def _collect_local_names(self, fn_node) -> None:
        """Names assigned in this function without a ``global`` decl."""
        globals_declared: set[str] = set()
        for node in self._own_nodes(fn_node):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        for node in self._own_nodes(fn_node):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.target]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                targets = [
                    item.optional_vars
                    for item in node.items
                    if item.optional_vars is not None
                ]
            for target in targets:
                for bound in self._binding_names(target):
                    if bound not in globals_declared:
                        self.fn.local_names.add(bound)

    @classmethod
    def _binding_names(cls, target: ast.expr) -> Iterator[str]:
        """Names a target expression *binds*.  ``x[0] = ...`` and
        ``x.attr = ...`` mutate ``x`` without binding it, so Subscript
        and Attribute targets contribute nothing."""
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from cls._binding_names(element)
        elif isinstance(target, ast.Starred):
            yield from cls._binding_names(target.value)

    def _own_nodes(self, root) -> Iterator[ast.AST]:
        """ast.walk that does not descend into nested def/class bodies."""
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    # -- lock identity ----------------------------------------------------
    def _lock_key(self, node: ast.expr) -> str:
        if isinstance(node, ast.Call):
            node = node.func
        chain = _attr_chain(node)
        if chain is None:
            return f"{self.fn.qualname}.<lock>"
        root, _, rest = chain.partition(".")
        if root in ("self", "cls") and self.fn.cls is not None:
            return f"{self.module.name}.{self.fn.cls}.{rest or chain}"
        if not rest:
            # Bare name: find the defining scope (closure-captured locks
            # in nested workers must share the outer function's key).
            scope: FunctionInfo | None = self.fn
            while scope is not None:
                if root in scope.local_names:
                    return f"{scope.qualname}.{root}"
                scope = scope.parent
            return f"{self.module.name}.{root}"
        return f"{self.module.name}.{chain}"

    # -- the walk ---------------------------------------------------------
    def _walk(self, node: ast.AST) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._walk_with(node)
            return
        if isinstance(node, ast.Call):
            self._handle_call(node)
        self._check_mutation(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    def _walk_with(self, node) -> None:
        lock_keys: list[str] = []
        for item in node.items:
            if _is_lockish(item.context_expr) is not None:
                key = self._lock_key(item.context_expr)
                self.fn.lock_sites.append(
                    LockSite(
                        key=key,
                        node=item.context_expr,
                        held=tuple(self._lock_stack + lock_keys),
                    )
                )
                lock_keys.append(key)
            # The context expression itself may contain calls.
            self._walk(item.context_expr)
        self._lock_stack.extend(lock_keys)
        for stmt in node.body:
            self._walk(stmt)
        for _ in lock_keys:
            self._lock_stack.pop()

    def _handle_call(self, node: ast.Call) -> None:
        func = node.func
        # .acquire() outside a with-statement is a lock site too.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "acquire"
            and _is_lockish(func.value) is not None
        ):
            self.fn.lock_sites.append(
                LockSite(
                    key=self._lock_key(func.value),
                    node=node,
                    held=tuple(self._lock_stack),
                )
            )
        self._record_call_edge(node)
        self._record_impurity(node)
        self._detect_thread_entry(node)
        self._detect_sim_entry(node)

    def _record_call_edge(self, node: ast.Call) -> None:
        callee = self.project.resolve_ref(self.fn, node.func)
        if callee is not None:
            self.fn.calls.append(
                CallSite(
                    callee=callee,
                    node=node,
                    locks_held=tuple(self._lock_stack),
                )
            )

    def _record_impurity(self, node: ast.Call) -> None:
        func = node.func
        dotted = self.parsed.resolve(func)
        if dotted is None:
            if (
                isinstance(func, ast.Name)
                and func.id == "open"
                and func.id not in self.fn.local_names
                and func.id not in self.module.toplevel
            ):
                self.fn.impure_calls.append(ImpureCall("io", "open", node))
            return
        if dotted in WALL_CALLS:
            self.fn.impure_calls.append(ImpureCall("wall-clock", dotted, node))
        elif dotted == "random" or dotted.startswith("random."):
            self.fn.impure_calls.append(ImpureCall("rng", dotted, node))
        elif dotted == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                self.fn.impure_calls.append(ImpureCall("rng", dotted, node))
        elif dotted.startswith("numpy.random."):
            tail = dotted.split(".", 2)[2].split(".")[0]
            if tail not in NP_RANDOM_ALLOWED:
                self.fn.impure_calls.append(ImpureCall("rng", dotted, node))
        elif any(dotted.startswith(prefix) for prefix in IO_PREFIXES):
            self.fn.impure_calls.append(ImpureCall("io", dotted, node))

    def _mark_entry(self, ref: ast.expr | None, attr: str) -> None:
        if ref is None:
            return
        if isinstance(ref, ast.Call):
            ref = ref.func
        target = self.project.resolve_ref(self.fn, ref)
        if target is not None and target in self.project.functions:
            setattr(self.project.functions[target], attr, True)

    def _detect_thread_entry(self, node: ast.Call) -> None:
        dotted = self.parsed.resolve(node.func)
        if dotted == "threading.Thread" or (
            dotted is not None and dotted.endswith(".Thread")
        ):
            for keyword in node.keywords:
                if keyword.arg == "target":
                    self._mark_entry(keyword.value, "is_thread_entry")
            return
        # Thread pools: pool.submit(fn, ...) / pool.map(fn, items).
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("submit", "map")
            and node.args
        ):
            receiver = func.value
            if isinstance(receiver, ast.Name):
                if self._bound_to_executor(
                    receiver.id, ("ThreadPoolExecutor",)
                ):
                    self._mark_entry(node.args[0], "is_thread_entry")
                elif self._bound_to_executor(
                    receiver.id,
                    ("ProcessPoolExecutor", "SweepPool", "shared_pool"),
                ):
                    self.fn.pool_submissions.append(
                        PoolSubmission(
                            fn_arg=node.args[0],
                            node=node,
                            payload_args=tuple(node.args[1:])
                            + tuple(kw.value for kw in node.keywords),
                        )
                    )
        # Chunked submissions: pool.submit_chunk(specs) ships the whole
        # chunk through pickle, so its elements must be picklable too.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "submit_chunk"
            and node.args
        ):
            receiver = func.value
            if isinstance(receiver, ast.Name) and self._bound_to_executor(
                receiver.id, ("SweepPool", "shared_pool")
            ):
                self.fn.pool_submissions.append(
                    PoolSubmission(
                        fn_arg=None,
                        node=node,
                        payload_args=tuple(node.args)
                        + tuple(kw.value for kw in node.keywords),
                    )
                )

    def _bound_to_executor(self, name: str, kinds: tuple[str, ...]) -> bool:
        """Is ``name`` bound from ``<kind>(...)`` in this function (via
        ``with ... as name`` or plain assignment)?"""
        for node in self._own_nodes(self.fn.node):
            value: ast.expr | None = None
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        isinstance(item.optional_vars, ast.Name)
                        and item.optional_vars.id == name
                    ):
                        value = item.context_expr
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(t, ast.Name) and t.id == name
                    for t in node.targets
                ):
                    value = node.value
            if value is None or not isinstance(value, ast.Call):
                continue
            dotted = self.parsed.resolve(value.func) or ""
            simple = dotted.rsplit(".", 1)[-1] if dotted else (
                value.func.id if isinstance(value.func, ast.Name) else ""
            )
            if simple in kinds:
                return True
        return False

    def _detect_sim_entry(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "process":
            # <...>.env.process(target(...)) — the environment objects
            # in this codebase are uniformly called env/_env.
            value = func.value
            terminal = (
                value.id
                if isinstance(value, ast.Name)
                else value.attr if isinstance(value, ast.Attribute) else None
            )
            if terminal in ("env", "_env") and node.args:
                self._mark_entry(node.args[0], "is_sim_entry")
        elif func.attr == "append":
            # event.callbacks.append(fn): fn runs inside the event loop.
            value = func.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "callbacks"
                and node.args
            ):
                self._mark_entry(node.args[0], "is_sim_entry")

    def _check_mutation(self, node: ast.AST) -> None:
        target_expr: ast.expr | None = None
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    self._record_mutation_if_global(target.value, node)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Subscript):
                self._record_mutation_if_global(node.target.value, node)
            elif isinstance(node.target, ast.Name):
                # `global X; X += ...` rebinds shared state in place.
                if node.target.id not in self.fn.local_names:
                    self._record_mutation_if_global(node.target, node)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
            ):
                self._record_mutation_if_global(func.value, node)
        elif isinstance(node, (ast.Delete,)):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    self._record_mutation_if_global(target.value, node)
        del target_expr

    def _record_mutation_if_global(
        self, expr: ast.expr, node: ast.AST
    ) -> None:
        resolved = self._resolve_global(expr)
        if resolved is None:
            return
        self.fn.mutations.append(
            Mutation(
                target=resolved,
                node=node,
                locked=bool(self._lock_stack),
            )
        )

    def _resolve_global(self, expr: ast.expr) -> str | None:
        """``module.NAME`` if ``expr`` denotes a module-level mutable."""
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.fn.local_names:
                return None
            scope = self.fn.parent
            while scope is not None:
                if name in scope.local_names:
                    return None  # closure over an enclosing local
                scope = scope.parent
            if name in self.module.mutable_globals:
                return f"{self.module.name}.{name}"
            dotted = self.parsed.aliases.get(name)
            if dotted is not None:
                mod_name, _, attr = dotted.rpartition(".")
                other = self.project.modules.get(mod_name)
                if other is not None and attr in other.mutable_globals:
                    return dotted
            return None
        if isinstance(expr, ast.Attribute):
            dotted = self.parsed.resolve(expr)
            if dotted is None:
                return None
            mod_name, _, attr = dotted.rpartition(".")
            other = self.project.modules.get(mod_name)
            if other is not None and attr in other.mutable_globals:
                return dotted
        return None
