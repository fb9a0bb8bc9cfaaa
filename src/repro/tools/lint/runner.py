"""File discovery, rule execution, and the ``thrifty-lint`` CLI."""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Sequence

from ...errors import LintError
from . import rules as _rules  # noqa: F401  (importing registers the THR rules)
from .registry import FileContext, Rule, Violation, all_rules, select_rules
from .report import write_report
from .suppress import filter_suppressed, noqa_comments

__all__ = ["collect_files", "check_file", "check_paths", "find_unused_noqa", "main"]

_SKIP_DIRS = {".git", "__pycache__", ".venv", "build", "dist", ".mypy_cache", ".ruff_cache"}


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` file list."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    found.add(candidate)
        elif path.exists():
            if path.suffix != ".py":
                raise LintError(f"not a Python file: {path}")
            found.add(path)
        else:
            raise LintError(f"no such file or directory: {path}")
    return sorted(found)


def check_file(path: Path, rule_set: Sequence[Rule] | None = None) -> list[Violation]:
    """Run ``rule_set`` (default: all registered rules) over one file."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    ctx = FileContext(path=str(path), source=source, tree=tree)
    violations: list[Violation] = []
    for rule in rule_set if rule_set is not None else all_rules():
        violations.extend(rule.check(ctx))
    violations = filter_suppressed(violations, ctx.source)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations


def check_paths(
    paths: Sequence[str | Path], rule_set: Sequence[Rule] | None = None
) -> tuple[list[Violation], int]:
    """Lint every file under ``paths``; return (violations, files_checked)."""
    files = collect_files(paths)
    violations: list[Violation] = []
    for path in files:
        violations.extend(check_file(path, rule_set))
    return violations, len(files)


def find_unused_noqa(paths: Sequence[str | Path]) -> tuple[list[Violation], int]:
    """``thrifty: noqa`` comments that no longer suppress any violation.

    Runs every registered rule over each file *without* suppression, then
    reports each noqa comment whose line has no violation it could silence
    (for a bracketed noqa, none of its codes fire; for a blanket one,
    nothing fires at all).  Reported with the pseudo-code ``NOQA`` so the
    usual report machinery renders them.
    """
    files = collect_files(paths)
    stale: list[Violation] = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"cannot parse {path}: {exc}") from exc
        ctx = FileContext(path=str(path), source=source, tree=tree)
        raw: list[Violation] = []
        for rule in all_rules():
            raw.extend(rule.check(ctx))
        fired: dict[int, set[str]] = {}
        for violation in raw:
            fired.setdefault(violation.line, set()).add(violation.code)
        for comment in noqa_comments(source):
            codes_here = fired.get(comment.line, set())
            used = bool(codes_here) if comment.is_blanket else bool(
                codes_here & comment.codes
            )
            if used:
                continue
            if comment.is_blanket:
                detail = "no violation fires on this line"
            else:
                detail = f"none of [{', '.join(sorted(comment.codes))}] fire on this line"
            stale.append(
                Violation(
                    code="NOQA",
                    message=f"unused suppression: {detail}",
                    path=str(path),
                    line=comment.line,
                    col=comment.col,
                )
            )
    stale.sort(key=lambda v: (v.path, v.line, v.col))
    return stale, len(files)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thrifty-lint",
        description=(
            "Domain-aware static analysis for the Thrifty reproduction: "
            "checks deterministic-replay, error-hierarchy and float-comparison "
            "invariants (see --list-rules)."
        ),
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories to lint")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--statistics", action="store_true", help="append per-code violation counts"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the registered rules and exit"
    )
    parser.add_argument(
        "--unused-noqa",
        action="store_true",
        help="report 'thrifty: noqa' comments that no longer suppress anything",
    )
    return parser


def _parse_codes(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (0 clean, 1 findings)."""
    parser = _build_parser()
    opts = parser.parse_args(argv)
    if opts.list_rules:
        for rule in all_rules():
            sys.stdout.write(f"{rule.code}  {rule.summary}\n")
        return 0
    try:
        if opts.unused_noqa:
            violations, files_checked = find_unused_noqa(opts.paths)
        else:
            rule_set = select_rules(_parse_codes(opts.select), _parse_codes(opts.ignore))
            violations, files_checked = check_paths(opts.paths, rule_set)
    except LintError as exc:
        sys.stderr.write(f"thrifty-lint: error: {exc}\n")
        return 2
    write_report(
        sys.stdout,
        violations,
        fmt=opts.format,
        files_checked=files_checked,
        statistics=opts.statistics,
    )
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
