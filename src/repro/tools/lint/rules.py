"""The THR rule set: Thrifty's domain invariants, machine-checked.

Each rule protects an invariant the paper's reproduction relies on but the
Python runtime never verifies — see ``docs/STATIC_ANALYSIS.md`` for the
invariant each rule guards and the paper section it traces back to.
"""

from __future__ import annotations

import ast
import builtins
import re
from pathlib import PurePosixPath
from typing import Iterator

from .registry import FileContext, Rule, Violation, register

__all__ = [
    "ReplayDeterminismRule",
    "ReproErrorRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "BroadExceptRule",
    "NoBarePrintRule",
    "EnumValueComparisonRule",
    "ParallelImportRule",
]

#: ``module.attr`` call chains that leak ambient nondeterminism (THR001).
_FORBIDDEN_CALLS = {
    ("time", "time"): "wall-clock time.time()",
    ("time", "time_ns"): "wall-clock time.time_ns()",
    ("time", "perf_counter"): "wall-clock time.perf_counter()",
    ("time", "perf_counter_ns"): "wall-clock time.perf_counter_ns()",
    ("time", "monotonic"): "wall-clock time.monotonic()",
    ("time", "monotonic_ns"): "wall-clock time.monotonic_ns()",
    ("time", "process_time"): "wall-clock time.process_time()",
    ("time", "process_time_ns"): "wall-clock time.process_time_ns()",
    ("datetime", "now"): "wall-clock datetime.now()",
    ("datetime", "utcnow"): "wall-clock datetime.utcnow()",
    ("date", "today"): "wall-clock date.today()",
    ("random", "seed"): "process-global random.seed()",
    ("np", "random", "seed"): "process-global numpy.random.seed()",
    ("numpy", "random", "seed"): "process-global numpy.random.seed()",
    ("np", "random", "default_rng"): "ad-hoc numpy.random.default_rng()",
    ("numpy", "random", "default_rng"): "ad-hoc numpy.random.default_rng()",
    ("random", "random"): "process-global random.random()",
}

#: Builtin exception classes library code must not raise (THR002): every
#: ``Exception`` subclass in :mod:`builtins`, plus ``BaseException``.
#: ``NotImplementedError`` stays legal: it marks abstract methods, which is a
#: programming-error signal, not a library failure a caller should catch.
_BUILTIN_RAISES = frozenset(
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, Exception) and obj is not NotImplementedError
) | {"BaseException"}

#: Builtins whose bare re-raise THR002 flags.  A bare ``raise`` under
#: ``except Exception:`` is THR005's recommended form, so it stays legal.
_NARROW_BUILTINS = _BUILTIN_RAISES - {"Exception", "BaseException"}

#: Identifier fragments that mark a quantity as SLA/latency/epoch-valued
#: (THR003); matched case-insensitively against names and attributes.
_FLOAT_DOMAIN = re.compile(
    r"(latenc|sla|percentile|fraction_met|deadline_s|p95|p99)", re.IGNORECASE
)


def _attr_chain(node: ast.AST) -> tuple[str, ...]:
    """Flatten ``a.b.c`` into ``("a", "b", "c")``; empty when not a pure chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


@register
class ReplayDeterminismRule(Rule):
    """THR001 — library code draws time and randomness from the framework."""

    code = "THR001"
    summary = (
        "no ambient randomness or wall-clock time in src/repro; "
        "use repro.rng streams and the simulation clock"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro():
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield self.violation(
                            ctx,
                            node,
                            "import of the stdlib `random` module; derive a stream "
                            "from repro.rng.RngFactory instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    yield self.violation(
                        ctx,
                        node,
                        "import from the stdlib `random` module; derive a stream "
                        "from repro.rng.RngFactory instead",
                    )
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                label = _FORBIDDEN_CALLS.get(chain)
                if label is not None:
                    yield self.violation(
                        ctx,
                        node,
                        f"{label} breaks deterministic replay; route randomness "
                        "through repro.rng and time through the simulation clock",
                    )


@register
class ReproErrorRule(Rule):
    """THR002 — library raises must use the :class:`ReproError` hierarchy.

    A bare ``raise`` inside ``except ValueError:`` re-raises the builtin, so
    it counts as raising it.
    """

    code = "THR002"
    summary = "every `raise` in src/repro uses a ReproError subclass"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro():
            return
        yield from self._check_raises(ctx, ctx.tree, caught=None)

    def _check_raises(
        self, ctx: FileContext, node: ast.AST, caught: str | None
    ) -> Iterator[Violation]:
        """Walk ``node``; ``caught`` is the builtin a bare ``raise`` re-raises."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                if child.exc is None:
                    name, verb = caught, "re-raises"
                else:
                    chain = _attr_chain(
                        child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                    )
                    name, verb = (chain[-1] if chain else None), "raises"
                if name in _BUILTIN_RAISES:
                    yield self.violation(
                        ctx,
                        child,
                        f"{verb} builtin {name}; library failures must derive from "
                        "repro.errors.ReproError so callers can catch them selectively",
                    )
            inner = caught
            if isinstance(child, ast.ExceptHandler):
                inner = self._caught_builtin(child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = None
            yield from self._check_raises(ctx, child, inner)

    @staticmethod
    def _caught_builtin(handler: ast.ExceptHandler) -> str | None:
        """The first narrow builtin exception ``handler`` catches, if any."""
        if handler.type is None:
            return None
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        for node in types:
            chain = _attr_chain(node)
            if chain and chain[-1] in _NARROW_BUILTINS:
                return chain[-1]
        return None


@register
class FloatEqualityRule(Rule):
    """THR003 — no exact ``==``/``!=`` on SLA fractions, latencies, or thresholds."""

    code = "THR003"
    summary = (
        "no float ==/!= on SLA percentages, latencies, or float literals; "
        "use math.isclose or an epsilon helper"
    )

    def _is_float_literal(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        # -0.5 parses as UnaryOp(USub, Constant(0.5)).
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self._is_float_literal(node.operand)
        return False

    def _is_domain_name(self, node: ast.expr) -> bool:
        chain = _attr_chain(node)
        return any(_FLOAT_DOMAIN.search(part) for part in chain)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (left, right)
                if any(self._is_float_literal(o) for o in pair) or all(
                    self._is_domain_name(o) for o in pair
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "exact float comparison; use math.isclose() or "
                        "repro.units.approx_eq() (floating-point SLA/latency "
                        "arithmetic is not exact)",
                    )
                    break


@register
class MutableDefaultRule(Rule):
    """THR004 — no mutable default argument values."""

    code = "THR004"
    summary = "no mutable default arguments (list/dict/set literals or constructors)"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            return len(chain) == 1 and chain[0] in self._MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in [*args.defaults, *[d for d in args.kw_defaults if d is not None]]:
                if self._is_mutable(default):
                    yield self.violation(
                        ctx,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and build the object in the body",
                    )


@register
class BroadExceptRule(Rule):
    """THR005 — library code must not swallow ``Exception`` wholesale."""

    code = "THR005"
    summary = "no bare/`except Exception` without re-raise in library code"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or (
                isinstance(node.type, ast.Name) and node.type.id in ("Exception", "BaseException")
            )
            if not broad:
                continue
            reraises = any(isinstance(inner, ast.Raise) for inner in ast.walk(node))
            if not reraises:
                yield self.violation(
                    ctx,
                    node,
                    "broad except without re-raise swallows programming errors; "
                    "catch a specific ReproError subclass or re-raise",
                )


@register
class NoBarePrintRule(Rule):
    """THR007 — library output flows through ``repro.obs``, not ``print()``.

    A ``print()`` buried in the library is output the observability plane
    cannot see, filter, or export; replays instrumented through a sink
    should produce *no* stdout from ``src/repro`` itself.  The CLI
    (``cli.py``) and module entry points (``__main__.py``) are the
    designated presentation layer and stay exempt.
    """

    code = "THR007"
    summary = "no bare print() in src/repro outside cli.py and __main__ entry points"

    _EXEMPT_BASENAMES = frozenset({"cli.py", "__main__.py"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro():
            return
        basename = PurePosixPath(ctx.path.replace("\\", "/")).name
        if basename in self._EXEMPT_BASENAMES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                yield self.violation(
                    ctx,
                    node,
                    "bare print() in library code; emit through a repro.obs "
                    "sink (or return the text to the CLI presentation layer)",
                )


@register
class EnumValueComparisonRule(Rule):
    """THR008 — lifecycle states compare as enums, not via ``.value`` strings.

    ``node.state.value == "failed"`` type-checks, survives renames of the
    *member* while silently breaking on renames of the *string*, and
    defeats both mypy's exhaustiveness analysis and grep-for-member
    refactors.  The fault-tolerance plane grew the instance lifecycle by
    two states (DEGRADED, DOWN); every stringly-typed comparison is a
    latent misroute.  Compare identity instead:
    ``node.state is NodeState.FAILED``.
    """

    code = "THR008"
    summary = 'no enum `.value == "literal"` comparisons in library code; compare members'

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_value_vs_string(left, right) or self._is_value_vs_string(
                    right, left
                ):
                    yield self.violation(
                        ctx,
                        node,
                        'enum `.value` compared against a string literal; compare '
                        "the members themselves (e.g. `state is NodeState.FAILED`)",
                    )
                    break

    @staticmethod
    def _is_value_vs_string(value_side: ast.expr, literal_side: ast.expr) -> bool:
        return (
            isinstance(value_side, ast.Attribute)
            and value_side.attr == "value"
            and isinstance(literal_side, ast.Constant)
            and isinstance(literal_side.value, str)
        )


@register
class ParallelImportRule(Rule):
    """THR009 — process pools live only in ``repro.parallel``.

    A raw ``multiprocessing`` / ``concurrent.futures`` pool elsewhere in
    the library bypasses the one map everything fans out through,
    :func:`repro.parallel.ordered_map`: spawn-started workers, results in
    input order, task errors that keep their type and a single rerun on a
    worker crash.  Code that needs cores calls ``ordered_map`` instead.
    """

    code = "THR009"
    summary = (
        "no direct multiprocessing/concurrent.futures imports outside "
        "repro.parallel; map work with repro.parallel.ordered_map"
    )

    _FORBIDDEN_ROOTS = frozenset({"multiprocessing", "concurrent"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro() or ctx.in_layer("parallel"):
            return
        for node in ast.walk(ctx.tree):
            modules: list[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                if module.split(".")[0] in self._FORBIDDEN_ROOTS:
                    yield self.violation(
                        ctx,
                        node,
                        f"direct import of `{module}`; process-level parallelism "
                        "goes through repro.parallel.ordered_map so results "
                        "stay in input order and failures stay typed",
                    )
                    break
