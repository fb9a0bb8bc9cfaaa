"""Error contract: every ``except SomeReproError`` in src/repro can fire.

A handler for a library error that nothing raises is dead fault-handling
code, usually left behind when a callee's error contract changed.  The
check is global: a handler counts as live when its class, or a subclass
of it, is raised anywhere in the package, not necessarily in its own
``try`` body.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import repro
import repro.errors
from repro.errors import ReproError


def _class_names(node: ast.expr) -> list[str]:
    """Class names an ``except`` type or a ``raise`` expression mentions."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _class_names(elt)]
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def never_raised_handlers(root: Path, classes: dict[str, type]) -> list[str]:
    """``path:line: except Name`` for each handled class nothing under ``root`` raises."""
    handled: list[tuple[Path, int, str]] = []
    raised: set[type] = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                handled += [
                    (path, node.lineno, name) for name in _class_names(node.type) if name in classes
                ]
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(classes[name] for name in _class_names(node.exc) if name in classes)
    return [
        f"{path.relative_to(root)}:{line}: except {name}"
        for path, line, name in handled
        if not any(issubclass(cls, classes[name]) for cls in raised)
    ]


class _AppError(Exception):
    pass


class _PackError(_AppError):
    pass


class _RouteError(_AppError):
    pass


_FIXTURE_CLASSES = {"AppError": _AppError, "PackError": _PackError, "RouteError": _RouteError}


def _write(tmp_path: Path, source: str) -> Path:
    (tmp_path / "work.py").write_text(textwrap.dedent(source))
    return tmp_path


def test_handler_for_never_raised_error_fires(tmp_path):
    root = _write(
        tmp_path,
        """
        from .errors import PackError, RouteError

        def pack():
            raise PackError("x")

        def run():
            try:
                return pack()
            except RouteError:
                return None
        """,
    )
    assert never_raised_handlers(root, _FIXTURE_CLASSES) == ["work.py:10: except RouteError"]


def test_handlers_for_raised_class_or_its_supertype_are_quiet(tmp_path):
    root = _write(
        tmp_path,
        """
        from .errors import AppError, PackError

        def pack():
            raise PackError("x")

        def run():
            try:
                return pack()
            except (PackError, AppError):
                return None
        """,
    )
    assert never_raised_handlers(root, _FIXTURE_CLASSES) == []


def test_every_repro_error_handler_can_fire():
    classes = {
        name: obj
        for name, obj in vars(repro.errors).items()
        if isinstance(obj, type) and issubclass(obj, ReproError)
    }
    dead = never_raised_handlers(Path(repro.__file__).parent, classes)
    assert dead == [], "\n".join(dead)
