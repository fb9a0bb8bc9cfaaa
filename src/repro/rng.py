"""Deterministic random-number streams.

Every stochastic component of the reproduction (log generation, tenant-size
sampling, failure injection) draws from a named sub-stream derived from a
single master seed, so experiments are reproducible end-to-end and
independent components do not perturb each other's randomness when one of
them changes how many draws it makes.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngFactory", "derive_seed"]


def derive_seed(master_seed: int, *names: object) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a name path.

    The derivation hashes the textual path so that streams are stable across
    runs and insensitive to the order in which other streams are created.
    """
    payload = repr((int(master_seed),) + tuple(str(n) for n in names)).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


class RngFactory:
    """Factory of independent, reproducible :class:`numpy.random.Generator` streams.

    Example::

        rngs = RngFactory(seed=42)
        tenant_rng = rngs.stream("tenant", 17)   # same generator every run
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The master seed this factory derives all streams from."""
        return self._seed

    def stream(self, *names: object) -> np.random.Generator:
        """Return a fresh generator for the sub-stream identified by ``names``."""
        return np.random.default_rng(derive_seed(self._seed, *names))  # thrifty: noqa[THR001] the seeded stream source

    def spawn(self, *names: object) -> "RngFactory":
        """Return a child factory rooted at the given name path."""
        return RngFactory(derive_seed(self._seed, *names))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self._seed})"
