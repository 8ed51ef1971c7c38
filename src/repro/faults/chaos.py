"""Process-level chaos: seeded worker SIGKILLs for the experiment engine.

:mod:`repro.faults` (PR 3) injects *evaluation-level* chaos — stragglers,
lost executors, metric dropout — inside a running session.  This module
attacks one level down: it kills the **worker process itself** mid-task,
producing the same ``BrokenProcessPool`` an OOM-kill or an operator's
stray ``kill -9`` causes in production.  The engine's task supervisor
must absorb it: rebuild the pool, re-dispatch the incomplete tasks, and
(because every task carries an explicit seed) recover results that are
bit-identical to a clean run.

The schedule is a pure function of ``(seed, task key, attempt)`` — no
global state, no clock — so a chaos soak is exactly reproducible and the
harness pickles cleanly into worker processes:

* :meth:`WorkerChaos.kills_for` hashes the task's canonical key with the
  chaos seed into a uniform draw; tasks under ``kill_rate`` get
  ``max_kills_per_task`` scheduled kills, the rest get none.
* :meth:`WorkerChaos.should_kill` answers "die now?" for a given attempt
  number: attempt 1 of a doomed task dies, attempt
  ``max_kills_per_task + 1`` survives — so a supervisor with enough
  retries always finishes the grid.

Used by ``tests/test_engine_chaos.py`` (the ``-m faults`` soak) and the
CI ``chaos-engine-smoke`` job (``tools/chaos_engine_smoke.py``).
"""

from __future__ import annotations

import hashlib
import os
import signal
from dataclasses import dataclass

__all__ = ["WorkerChaos"]


@dataclass(frozen=True)
class WorkerChaos:
    """Deterministic SIGKILL schedule for engine worker processes.

    Parameters
    ----------
    seed:
        Chaos stream identity.  Different seeds doom different subsets
        of a grid; the same seed always dooms the same tasks.
    kill_rate:
        Fraction of tasks (by hash measure, in ``[0, 1]``) whose workers
        are killed.  ``1.0`` kills every task's first attempt.
    max_kills_per_task:
        How many consecutive attempts of a doomed task die before the
        harness lets one through.  Keep it ``<= task_retries`` or the
        task is guaranteed to exhaust its budget and be quarantined.
    """

    seed: int = 0
    kill_rate: float = 0.0
    max_kills_per_task: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.kill_rate <= 1.0:
            raise ValueError(
                f"kill_rate must be in [0, 1], got {self.kill_rate}"
            )
        if self.max_kills_per_task < 0:
            raise ValueError("max_kills_per_task must be >= 0")

    def kills_for(self, task_key: str) -> int:
        """Scheduled kill count for the task with this canonical key."""
        digest = hashlib.sha256(
            f"{self.seed}\n{task_key}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return self.max_kills_per_task if draw < self.kill_rate else 0

    def should_kill(self, task_key: str, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) dies at task
        start.  Pure: re-asking for the same ``(key, attempt)`` always
        answers the same, so a resumed supervisor sees the same chaos."""
        return attempt <= self.kills_for(task_key)

    @staticmethod
    def kill_now() -> None:  # pragma: no cover - the caller dies
        """SIGKILL the calling process — no cleanup, no atexit, exactly
        what the OOM killer does."""
        os.kill(os.getpid(), signal.SIGKILL)
