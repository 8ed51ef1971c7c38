"""YARN container allocation arithmetic.

Given the tuned YARN parameters and Spark's executor resource request,
compute how many executor containers the cluster can actually host.  This
reproduces the real ``yarn-site.xml`` / ``spark-defaults.conf`` interplay:

* container memory = executor heap + memoryOverhead, rounded **up** to a
  multiple of ``yarn.scheduler.minimum-allocation-mb``;
* requests above ``yarn.scheduler.maximum-allocation-mb`` (or -vcores) are
  rejected — on a real cluster the application fails to launch;
* per-node capacity is ``yarn.nodemanager.resource.memory-mb`` (clipped to
  physical RAM minus OS/daemon reserve) and the vcore analogue scaled by
  the physical-cpu-limit percentage.

The number of granted executors is the binding constraint that makes many
configurations slow: the Spark default of tiny executors on an
under-provisioned NodeManager leaves most of the cluster idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.cluster.hardware import ClusterSpec

__all__ = [
    "ExecutorPlacement",
    "plan_executors",
    "OS_RESERVED_MB",
]

# Memory kept back for the OS, DataNode and NodeManager daemons.
OS_RESERVED_MB = 1536


@dataclass(frozen=True)
class ExecutorPlacement:
    """Outcome of YARN container allocation for a Spark application."""

    n_executors: int
    executor_cores: int
    executor_heap_mb: int
    container_mb: int  # heap + overhead, rounded to allocation granularity
    feasible: bool
    reason: str = ""
    #: executor threads exceed the vcores YARN nominally offers
    cpu_oversubscribed: bool = False
    effective_vcores_per_node: int = 0
    #: True when the request is valid but unsatisfiable: the application
    #: hangs in ACCEPTED state instead of failing fast
    hangs: bool = False

    @property
    def total_cores(self) -> int:
        return self.n_executors * self.executor_cores

    @property
    def total_heap_mb(self) -> int:
        return self.n_executors * self.executor_heap_mb


def _round_up(value: int, granularity: int) -> int:
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    return ((value + granularity - 1) // granularity) * granularity


def plan_executors(
    config: Mapping[str, Any], cluster: ClusterSpec
) -> ExecutorPlacement:
    """Compute the executor placement for ``config`` on ``cluster``.

    Returns an infeasible placement (``n_executors == 0``) when the request
    cannot be scheduled at all, mirroring a real YARN rejection.
    """
    heap = int(config["spark.executor.memory"])
    overhead = int(config["spark.executor.memoryOverhead"])
    cores = int(config["spark.executor.cores"])
    requested = int(config["spark.executor.instances"])

    min_alloc = int(config["yarn.scheduler.minimum-allocation-mb"])
    max_alloc = int(config["yarn.scheduler.maximum-allocation-mb"])
    max_vcores = int(config["yarn.scheduler.maximum-allocation-vcores"])
    nm_mem = int(config["yarn.nodemanager.resource.memory-mb"])
    nm_vcores = int(config["yarn.nodemanager.resource.cpu-vcores"])
    cpu_pct = float(
        config["yarn.nodemanager.resource.percentage-physical-cpu-limit"]
    )

    container_mb = _round_up(heap + overhead, min_alloc)

    if container_mb > max_alloc:
        return ExecutorPlacement(
            0, cores, heap, container_mb, feasible=False,
            reason=(
                f"container {container_mb}MB exceeds "
                f"yarn.scheduler.maximum-allocation-mb={max_alloc}"
            ),
        )
    if cores > max_vcores:
        return ExecutorPlacement(
            0, cores, heap, container_mb, feasible=False,
            reason=(
                f"executor cores {cores} exceed "
                f"yarn.scheduler.maximum-allocation-vcores={max_vcores}"
            ),
        )

    # NodeManager offers at most the physical node minus the OS reserve.
    node_mem_budget = min(nm_mem, cluster.node.memory_mb - OS_RESERVED_MB)
    effective_vcores = min(
        int(nm_vcores * cpu_pct / 100.0), cluster.node.cores
    )
    if node_mem_budget < container_mb:
        # Valid request, but no NodeManager can ever satisfy it: YARN
        # leaves the application pending rather than rejecting it.
        return ExecutorPlacement(
            0, cores, heap, container_mb, feasible=False,
            reason="no NodeManager can host a single container (memory)",
            hangs=True,
        )

    per_node_mem = node_mem_budget // container_mb
    per_node_cpu = effective_vcores // cores
    if per_node_cpu >= 1:
        per_node = min(per_node_mem, per_node_cpu)
        oversubscribed = False
    else:
        # YARN's DefaultResourceCalculator schedules on memory only: the
        # container is granted and its JVM threads oversubscribe the CPU.
        per_node = min(per_node_mem, 1)
        oversubscribed = True

    capacity = int(per_node) * cluster.n_nodes
    granted = min(requested, capacity)
    return ExecutorPlacement(
        granted, cores, heap, container_mb, feasible=True,
        cpu_oversubscribed=oversubscribed,
        effective_vcores_per_node=effective_vcores,
    )
