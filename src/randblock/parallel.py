"""Order-preserving thread map for embarrassingly parallel ensemble loops.

Thread count never changes numerics: work items are independent and results
are collected in submission order, so reductions see the same sequence for
any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")

THREADS_ENV_VAR = "RANDBLOCK_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Effective worker count: explicit argument, else RANDBLOCK_THREADS, else 1."""
    if threads is None:
        env = os.environ.get(THREADS_ENV_VAR, "").strip() or "1"
        try:
            threads = int(env)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    return threads


def parallel_map(fn: Callable[[T], R], items: Iterable[T], threads: int | None = None) -> list[R]:
    """Map fn over items, preserving input order in the returned list."""
    work: Sequence[T] = list(items)
    nthreads = resolve_threads(threads)
    if nthreads == 1 or len(work) <= 1:
        return [fn(item) for item in work]
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        return list(pool.map(fn, work))
