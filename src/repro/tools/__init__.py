"""Developer tooling shipped with the Thrifty reproduction.

:mod:`repro.tools.lint` (``thrifty-lint``) holds fast per-file rules that
machine-check invariants the library's correctness rests on, such as
deterministic replay and the :class:`~repro.errors.ReproError` hierarchy.
``thrifty-lint --list-rules`` prints the registered rules.
"""

from __future__ import annotations

__all__: list[str] = []
