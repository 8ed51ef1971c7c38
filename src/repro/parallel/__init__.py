"""Multi-core execution plane: BLAS pinning and sharding.

Two building blocks, each usable alone:

* :mod:`repro.parallel.pinning` — BLAS thread limiting
  (``threadpoolctl`` when available, the loaded OpenBLAS libraries' own
  setters, environment variables) and the CPU budget of a process, so
  worker processes and fine-tune lanes never oversubscribe the machine;
* :mod:`repro.parallel.sharding` — :class:`ShardedPopulation`, the
  process-sharded population stepper: K long-lived workers each drive a
  contiguous shard of members held in their own memory, synchronized by
  a per-round barrier, bit-identical to the single-process lockstep.
"""

from repro.parallel.pinning import (
    blas_env,
    effective_blas_threads,
    limit_blas_threads,
    shard_plan,
)

__all__ = [
    "ShardCrash",
    "ShardStats",
    "ShardedPopulation",
    "blas_env",
    "effective_blas_threads",
    "limit_blas_threads",
    "shard_plan",
]


def __getattr__(name: str):
    # Sharding imports multiprocessing (~10 ms); a population that only
    # reads its CPU budget loads it on first access (PEP 562).
    if name in ("ShardCrash", "ShardStats", "ShardedPopulation"):
        from repro.parallel import sharding

        return getattr(sharding, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
