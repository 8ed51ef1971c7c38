"""Multi-core execution plane: BLAS pinning and sharding.

Two building blocks, each usable alone:

* :mod:`repro.parallel.pinning` — best-effort BLAS thread limiting
  (``threadpoolctl`` when available, ctypes OpenBLAS, environment
  variables) so K worker processes x 1 BLAS thread never oversubscribe
  the machine;
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
from repro.parallel.sharding import ShardCrash, ShardedPopulation, ShardStats

__all__ = [
    "ShardCrash",
    "ShardStats",
    "ShardedPopulation",
    "blas_env",
    "effective_blas_threads",
    "limit_blas_threads",
    "shard_plan",
]
