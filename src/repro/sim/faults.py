"""Failure semantics: OOM retries, YARN rejections, container kills.

Spark retries a failed task up to ``spark.task.maxFailures`` (4) times
before aborting the stage and the job.  An analytic OOM is deterministic,
so a job that OOMs always burns the retries and fails; the burnt time is
charged to the evaluation, which is exactly the cost a real online tuning
step pays for a bad memory configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TASK_MAX_FAILURES",
    "YARN_REJECT_SECONDS",
    "YARN_HANG_SECONDS",
    "FAILURE_PERF_FACTOR",
    "oom_attempt_charge",
    "vmem_kill_penalty",
]

#: spark.task.maxFailures default
TASK_MAX_FAILURES = 4

#: wall time burnt when YARN rejects the request outright
#: (InvalidResourceRequestException: container above max-allocation)
YARN_REJECT_SECONDS = 25.0

#: wall time burnt when the request is *valid but unsatisfiable* — the
#: application sits in ACCEPTED state until the operator's submit timeout
YARN_HANG_SECONDS = 180.0

#: a failed evaluation is charged this multiple of the *default-config*
#: execution time when converted to a performance value for rewards —
#: modelling the operator falling back to the default after the failure.
FAILURE_PERF_FACTOR = 2.5


def oom_attempt_charge(stage_seconds: float) -> float:
    """Wall time burnt by OOM retries of one stage.

    Each attempt crashes partway through (tasks die when their working set
    peaks, roughly mid-stage), so each of the ``TASK_MAX_FAILURES``
    attempts is charged half a clean stage execution.
    """
    if stage_seconds < 0:
        raise ValueError("stage time cannot be negative")
    return TASK_MAX_FAILURES * 0.5 * stage_seconds


@dataclass(frozen=True)
class VmemVerdict:
    """Outcome of the YARN virtual-memory check."""

    penalty_factor: float  # >= 1 multiplier on stage time (restarted tasks)


def vmem_kill_penalty(vmem_pmem_ratio: float, deser_expansion: float) -> VmemVerdict:
    """Penalty from YARN's vmem monitor killing fat containers.

    JVMs map far more virtual than physical memory; with an aggressive
    ``yarn.nodemanager.vmem-pmem-ratio`` (close to 1) containers are
    killed and their tasks rerun.  The Java serializer's larger object
    graphs make this worse.
    """
    if vmem_pmem_ratio <= 0:
        raise ValueError("ratio must be positive")
    # JVM vmem footprint is ~1.8-2.3x pmem; ratios above ~2.2 are safe.
    threshold = 1.9 + 0.3 * (deser_expansion - 1.0)
    if vmem_pmem_ratio >= threshold:
        return VmemVerdict(1.0)
    deficit = (threshold - vmem_pmem_ratio) / threshold
    return VmemVerdict(1.0 + 0.8 * deficit)
