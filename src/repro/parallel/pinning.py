"""BLAS thread pinning and the CPU budget of a process.

K processes each running multi-threaded BLAS oversubscribe the machine
into a slowdown, and so do threads that call a multi-threaded BLAS at
once (a population's fine-tune lanes).  So workers, and lanes while
they run, pin their BLAS pools to one thread.  A pool is reached
through, in order:

1. ``threadpoolctl``, where it is installed;
2. the thread setter and getter of every OpenBLAS library mapped into
   this process, found by name in ``/proc/self/maps``.  numpy's wheels
   bundle ``libscipy_openblas64_`` (``scipy_openblas_set_num_threads64_``),
   and scipy's add ``libscipy_openblas`` (``scipy_openblas_set_num_threads``)
   once a GP tuner imports it;
3. environment variables, which only reach libraries loaded *after*
   they are set: a spawned worker before it imports numpy.

Correctness never depends on pinning, only throughput does.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator

_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: (setter, getter) symbols an OpenBLAS build may export: scipy-openblas
#: prefixes them (and numpy's 64-bit-integer build adds a suffix), plain
#: OpenBLAS builds do not
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

#: one loaded BLAS pool: its thread-count getter and setter
_Pool = tuple[Callable[[], int], Callable[[int], object]]


def blas_env(threads: int) -> dict[str, str]:
    """Environment variables that cap BLAS pools at ``threads``."""
    value = str(max(1, int(threads)))
    return {var: value for var in _BLAS_ENV_VARS}


def _openblas_pools() -> list[_Pool]:
    """The pool of every OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                line.split(maxsplit=5)[-1].rstrip("\n")
                for line in fh
                if "openblas" in line
            }
    except OSError:  # no procfs: macOS, Windows
        return []
    pools = [_openblas_pool(path) for path in sorted(paths)]
    return [pool for pool in pools if pool is not None]


@cache
def _openblas_pool(path: str) -> _Pool | None:
    """The getter and setter a mapped library exports, if any."""
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:  # unmapped since the scan, or not a library
        return None
    for setter, getter in _OPENBLAS_SYMBOLS:
        set_fn = getattr(lib, setter, None)
        get_fn = getattr(lib, getter, None)
        if set_fn is not None and get_fn is not None:
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            return get_fn, set_fn
    return None


@cache
def _threadpoolctl():
    try:
        import threadpoolctl
    except ImportError:
        return None
    return threadpoolctl


def _blas_pools() -> tuple[str, list[_Pool]]:
    """How the loaded BLAS pools are reached, and their pools."""
    threadpoolctl = _threadpoolctl()
    if threadpoolctl is not None:
        try:
            blas = threadpoolctl.ThreadpoolController().select(
                user_api="blas"
            )
            pools = [
                (lambda c=c: c.num_threads, c.set_num_threads)
                for c in blas.lib_controllers
            ]
        except AttributeError:  # pragma: no cover - threadpoolctl < 3
            pools = []
        if pools:
            return "threadpoolctl", pools
    pools = _openblas_pools()
    return ("openblas" if pools else "env"), pools


def limit_blas_threads(threads: int) -> str:
    """Pin loaded BLAS pools, and the environment that later loads read,
    to ``threads``; returns the mechanism that reached the pools."""
    threads = max(1, int(threads))
    os.environ.update(blas_env(threads))
    how, pools = _blas_pools()
    for _, set_threads in pools:
        set_threads(threads)
    return how


def effective_blas_threads() -> int:
    """The BLAS thread count in effect: the most any loaded pool runs,
    else the environment's cap, else the CPU count."""
    _, pools = _blas_pools()
    if pools:
        return max(get() for get, _ in pools)
    for var in _BLAS_ENV_VARS:
        raw = os.environ.get(var)
        if raw:
            try:
                return max(1, int(raw))
            except ValueError:
                continue
    return os.cpu_count() or 1


def blas_pools() -> list[_Pool]:
    """The pool of every loaded BLAS library.  The set changes only when
    a library loads (scipy's, when a GP tuner first imports it), so a
    caller that pins again and again looks the pools up once."""
    return _blas_pools()[1]


@contextmanager
def one_blas_thread(pools: list[_Pool]) -> Iterator[bool]:
    """Run the block with each of ``pools`` (:func:`blas_pools`) at one
    thread, then give each pool back its count.  Yields whether BLAS
    runs one thread inside: ``False`` when there is no pool, or one
    does not read 1."""
    counts = [get() for get, _ in pools]
    for _, set_threads in pools:
        set_threads(1)
    try:
        yield bool(pools) and all(get() == 1 for get, _ in pools)
    finally:
        for (_, set_threads), count in zip(pools, counts):
            set_threads(count)


def usable_cpus(share: int = 1) -> int:
    """CPUs this process may use: its affinity mask, divided among the
    ``share`` processes that run on it at once (at least 1)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        cpus = os.cpu_count() or 1
    return max(1, cpus // share)


def shard_plan(n: int, shards: int) -> list[tuple[int, int]]:
    """Split ``n`` members into contiguous near-equal ``[lo, hi)`` shards.

    Earlier shards get the remainder, so sizes differ by at most one and
    concatenating the ranges in order reproduces ``range(n)`` — the
    property that keeps sharded fold order identical to the single
    process path.
    """
    if n <= 0:
        raise ValueError(f"population size must be positive, got {n}")
    if shards <= 0:
        raise ValueError(f"shard count must be positive, got {shards}")
    shards = min(shards, n)
    base, extra = divmod(n, shards)
    plan: list[tuple[int, int]] = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        plan.append((lo, hi))
        lo = hi
    return plan
