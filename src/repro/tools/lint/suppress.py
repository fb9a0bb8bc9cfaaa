"""Inline suppression comments: ``# thrifty: noqa[THR001]``.

A violation is suppressed when the physical line it is reported on carries a
``thrifty: noqa`` comment naming its code (or a blanket ``thrifty: noqa``
with no bracket, which silences every rule on that line).  Codes may be
separated by commas or whitespace: ``# thrifty: noqa[THR001,THR003]``, and
whitespace before the bracket is allowed: ``# thrifty: noqa [THR001]``.

Suppressions are found by *tokenizing* the source: only real ``COMMENT``
tokens count, so the marker appearing inside a string literal (for example
in this very docstring, or in the lint tool's own test fixtures) does not
silence anything.  When a file cannot be tokenized (it is being linted, so
it may be broken), matching falls back to the original per-line regex.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Sequence, Union

from .registry import Violation

__all__ = [
    "ALL_CODES",
    "NoqaComment",
    "suppressed_codes",
    "line_suppressions",
    "noqa_comments",
    "filter_suppressed",
]

_NOQA = re.compile(
    r"#\s*thrifty:\s*noqa(?:\s*\[(?P<codes>[A-Z0-9,\s]+)\])?",
    re.IGNORECASE,
)

#: Sentinel meaning "every code is suppressed on this line".
ALL_CODES = "*"


@dataclass(frozen=True)
class NoqaComment:
    """One ``thrifty: noqa`` comment: where it is and what it suppresses."""

    line: int
    col: int
    codes: frozenset[str]

    @property
    def is_blanket(self) -> bool:
        return ALL_CODES in self.codes


def suppressed_codes(line: str) -> frozenset[str]:
    """Codes suppressed by ``line``'s comment; ``{"*"}`` for a blanket noqa.

    Pure text matching on one line — used as the tokenizer fallback and
    kept for callers that only have a line in hand.  Prefer
    :func:`line_suppressions`, which is string-literal safe.
    """
    match = _NOQA.search(line)
    if match is None:
        return frozenset()
    return _parse_codes(match)


def _parse_codes(match: "re.Match[str]") -> frozenset[str]:
    codes = match.group("codes")
    if codes is None:
        return frozenset({ALL_CODES})
    return frozenset(c.upper() for c in re.split(r"[,\s]+", codes) if c)


def noqa_comments(source: str) -> list[NoqaComment]:
    """Every ``thrifty: noqa`` comment in ``source`` (tokenizer-accurate)."""
    out: list[NoqaComment] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for number, line in enumerate(source.splitlines(), start=1):
            match = _NOQA.search(line)
            if match is not None:
                out.append(
                    NoqaComment(line=number, col=match.start() + 1, codes=_parse_codes(match))
                )
        return out
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA.search(token.string)
        if match is None:
            continue
        row, col = token.start
        out.append(NoqaComment(line=row, col=col + match.start() + 1, codes=_parse_codes(match)))
    return out


def line_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> suppressed codes, from real comments only."""
    out: dict[int, frozenset[str]] = {}
    for comment in noqa_comments(source):
        out[comment.line] = out.get(comment.line, frozenset()) | comment.codes
    return out


def filter_suppressed(
    violations: list[Violation], source: Union[str, Sequence[str]]
) -> list[Violation]:
    """Drop violations whose source line carries a matching ``thrifty: noqa``.

    ``source`` may be the full file text or its line list (joined back for
    tokenization, so both spellings behave identically).
    """
    text = source if isinstance(source, str) else "\n".join(source)
    suppressions = line_suppressions(text)
    kept: list[Violation] = []
    for violation in violations:
        codes = suppressions.get(violation.line, frozenset())
        if ALL_CODES in codes or violation.code in codes:
            continue
        kept.append(violation)
    return kept
