"""``repro.parallel`` — one ordered process map, the library's only pool.

The §7.3 parameter sweeps are the one piece of the evaluation that fans
out: each sweep point is a pure function of its arguments, so mapping it
over processes changes nothing but the wall time.  :func:`ordered_map` is
that map, and lint rule THR009 keeps raw ``multiprocessing`` /
``concurrent.futures`` out of every other module of ``src/repro``.
See ``docs/PARALLELISM.md`` for the contract.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, TypeVar

from .errors import ParallelError

__all__ = ["ordered_map"]

T = TypeVar("T")
R = TypeVar("R")

#: Workers are fresh interpreters that import ``fn`` by reference, so no
#: result depends on forked globals, open sinks or inherited RNG state.
_START_METHOD = "spawn"


def _pool_map(fn: Callable[[T], R], args: Sequence[T], workers: int) -> list[R]:
    context = multiprocessing.get_context(_START_METHOD)
    with ProcessPoolExecutor(max_workers=min(workers, len(args)), mp_context=context) as pool:
        return list(pool.map(fn, args))


def ordered_map(fn: Callable[[T], R], args: Sequence[T], workers: int) -> list[R]:
    """``[fn(a) for a in args]``, on up to ``workers`` spawned processes.

    ``workers == 0`` calls ``fn`` in this process, in order; ``workers > 0``
    uses a pool of ``min(workers, len(args))`` processes and returns the
    results in input order.  ``fn`` must be a picklable module-level
    callable.  An exception raised by ``fn`` propagates with its own type
    and is not retried.  A worker crash reruns the whole map once in a
    fresh pool; a second crash raises :class:`~repro.errors.ParallelError`.
    """
    if workers < 0:
        raise ParallelError(f"workers must be >= 0, got {workers!r}")
    if workers == 0 or not args:
        return [fn(arg) for arg in args]
    try:
        return _pool_map(fn, args, workers)
    except BrokenProcessPool:
        pass  # a worker died (killed, segfault, os._exit): one rerun
    try:
        return _pool_map(fn, args, workers)
    except BrokenProcessPool as exc:
        raise ParallelError(
            f"worker processes crashed twice mapping {fn!r} over {len(args)} argument(s)"
        ) from exc
