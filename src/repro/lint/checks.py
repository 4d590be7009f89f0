"""The determinism rules (RPR001–RPR007).

Each rule enforces one invariant the DES kernel's reproducibility
promise rests on (see ``repro.sim.engine``'s module docstring and
``docs/LINT.md`` for bad/good examples).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules import (
    NP_RANDOM_ALLOWED,
    WALL_CLOCK_CALLS,
    ParsedModule,
    Rule,
    Violation,
    register,
)

__all__ = [
    "FloatTimeEqualityRule",
    "GlobalRngRule",
    "HeapTiebreakRule",
    "MutableDefaultRule",
    "SetIterationRule",
    "SpanWallClockRule",
    "WallClockRule",
]

#: Packages whose code runs *inside* the simulated clock.  Real
#: (threaded) runtimes living alongside them suppress RPR001 with a
#: justified ``# repro: noqa-file[RPR001]`` instead.
SIM_SCOPE = (
    "sim",
    "cloud",
    "hadoop",
    "dryad",
    "twister",
    "classiccloud",
    "serve",
    "chaos",
    "autoscale",
)

@register
class WallClockRule(Rule):
    code = "RPR001"
    name = "no-wall-clock"
    rationale = (
        "Simulation code must read time only from Environment.now; a "
        "wall-clock call makes results depend on host speed and load."
    )
    scope = SIM_SCOPE

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            path = module.resolve(node.func)
            if path in WALL_CLOCK_CALLS:
                yield self.violation(
                    module,
                    node,
                    f"wall-clock call {path}() in simulation code; "
                    "use Environment.now",
                )


@register
class GlobalRngRule(Rule):
    code = "RPR002"
    name = "no-global-rng"
    rationale = (
        "Global RNG state is shared across the whole process, so any new "
        "draw perturbs every other stream; thread a seeded "
        "np.random.default_rng / RngRegistry stream instead (sim/rng.py)."
    )

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            path = module.resolve(node.func)
            if path is None:
                continue
            if path == "random" or path.startswith("random."):
                yield self.violation(
                    module,
                    node,
                    f"stdlib global RNG call {path}(); use a seeded "
                    "numpy Generator from RngRegistry",
                )
            elif path == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield self.violation(
                        module,
                        node,
                        "unseeded np.random.default_rng() draws entropy "
                        "from the OS; pass an explicit seed",
                    )
            elif path.startswith("numpy.random."):
                tail = path.split(".", 2)[2]
                if tail.split(".")[0] not in NP_RANDOM_ALLOWED:
                    yield self.violation(
                        module,
                        node,
                        f"global numpy RNG call {path}(); use a seeded "
                        "Generator instance",
                    )


@register
class SetIterationRule(Rule):
    code = "RPR003"
    name = "no-set-iteration"
    rationale = (
        "Set iteration order depends on insertion history and hash "
        "randomization; feeding it into event scheduling or task "
        "ordering makes runs irreproducible.  Iterate a sorted() view."
    )

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(module, it):
                    yield self.violation(
                        module,
                        it,
                        "iteration over a set has no deterministic order; "
                        "wrap in sorted(...) before scheduling work from it",
                    )

    @staticmethod
    def _is_set_expr(module: ParsedModule, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False


@register
class MutableDefaultRule(Rule):
    code = "RPR004"
    name = "no-mutable-default"
    rationale = (
        "A mutable default is shared across calls, so state from one run "
        "leaks into the next — hidden cross-run coupling the replay "
        "tests cannot see."
    )

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if self._is_mutable(default):
                        yield self.violation(
                            module,
                            default,
                            f"mutable default argument in {node.name}(); "
                            "use None and construct inside the body",
                        )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("list", "dict", "set", "bytearray")
        return False


@register
class FloatTimeEqualityRule(Rule):
    code = "RPR005"
    name = "no-float-time-equality"
    rationale = (
        "Simulated times are accumulated floats; == / != on them flips "
        "with summation order.  Compare with <=, >= or an explicit "
        "tolerance."
    )

    _TIME_SUFFIXES = ("_at", "_time", "_seconds")

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                timey = next(
                    (o for o in (left, right) if self._is_time_like(o)), None
                )
                if timey is None:
                    continue
                other = right if timey is left else left
                if isinstance(other, ast.Constant) and other.value is None:
                    continue
                if self._is_approx(other):
                    # x == pytest.approx(y) is the sanctioned tolerance
                    # comparison, not a raw float equality.
                    continue
                name = self._symbol(timey)
                yield self.violation(
                    module,
                    node,
                    f"float equality on simulated-time value {name!r}; "
                    "use ordering comparisons or a tolerance",
                )

    @staticmethod
    def _is_approx(node: ast.expr) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Attribute):
            return func.attr == "approx"
        if isinstance(func, ast.Name):
            return func.id == "approx"
        return False

    @classmethod
    def _is_time_like(cls, node: ast.expr) -> bool:
        name = cls._symbol(node)
        if name is None:
            return False
        return name == "now" or name.endswith(cls._TIME_SUFFIXES)

    @staticmethod
    def _symbol(node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None


@register
class SpanWallClockRule(Rule):
    code = "RPR007"
    name = "no-wall-clock-in-span"
    rationale = (
        "Tracer.span() stamps wall time, and so does Tracer.instant() "
        "without ts=; inside simulation code either puts host-dependent "
        "numbers on the simulated timeline.  Sim-scoped code must record "
        "spans with Tracer.add() and instants with ts=, both from "
        "Environment.now."
    )
    scope = SIM_SCOPE

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if self._is_unstamped_instant(node):
                yield self.violation(
                    module,
                    node,
                    "tracer instant without ts= in simulation code "
                    "lands on the wall-clock track; pass "
                    "ts=Environment.now",
                )
                continue
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(
                self._is_span_call(item.context_expr) for item in node.items
            ):
                continue
            for stmt in node.body:
                for inner in ast.walk(stmt):
                    if not isinstance(inner, ast.Call):
                        continue
                    path = module.resolve(inner.func)
                    if path in WALL_CLOCK_CALLS:
                        yield self.violation(
                            module,
                            inner,
                            f"wall-clock call {path}() inside a tracer "
                            "span body in simulation code; record the "
                            "span with Tracer.add() and Environment.now "
                            "timestamps instead",
                        )

    @staticmethod
    def _is_unstamped_instant(node: ast.AST) -> bool:
        """True for ``<anything>.instant(...)`` calls with no ``ts=``.

        A ``**mapping`` argument may carry ``ts``, so it counts as
        stamped.
        """
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "instant"
            and not any(kw.arg in ("ts", None) for kw in node.keywords)
        )

    @staticmethod
    def _is_span_call(node: ast.expr) -> bool:
        """True for ``<anything>.span(...)`` context expressions."""
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
        )


@register
class HeapTiebreakRule(Rule):
    code = "RPR006"
    name = "heap-needs-tiebreaker"
    rationale = (
        "A (time, payload) heap entry compares payloads when times tie — "
        "a crash for Events, nondeterminism for anything else.  Push "
        "(time, sequence, payload) like Environment._enqueue does."
    )

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            path = module.resolve(node.func)
            if path != "heapq.heappush" or len(node.args) < 2:
                continue
            entry = node.args[1]
            if isinstance(entry, ast.Tuple) and len(entry.elts) < 3:
                yield self.violation(
                    module,
                    entry,
                    f"heappush of a {len(entry.elts)}-tuple lacks a "
                    "monotonic sequence tiebreaker; push "
                    "(key, sequence, payload)",
                )
