"""Continuous tuning under workload drift, with structured logging.

Uses the time-varying environment (`repro.envs.dynamic`) to model a
cluster whose workload shifts TeraSort -> PageRank -> KMeans, and a
single DeepCAT instance running one *continuous* online session across
the shift (the tuner never learns the phase boundaries — it just keeps
tuning).  Every step is logged as JSON lines — the artifact an operator
would ship to their observability stack.

Run:  python examples/drift_monitoring.py
"""

import json
import tempfile
from pathlib import Path

from repro import DeepCAT, make_env
from repro.cluster.hardware import CLUSTER_A
from repro.config import build_pipeline_space
from repro.core.online import OnlineTuner
from repro.envs.dynamic import DynamicTuningEnv, Phase
from repro.telemetry import RunContext
from repro.utils.logging import JsonlLogger

PHASES = [Phase("TS", "D1", 5), Phase("PR", "D1", 5), Phase("KM", "D1", 5)]


def main() -> None:
    space = build_pipeline_space()

    # Offline: train on the first phase's workload only.
    train_env = make_env("TS", "D1", seed=4)
    tuner = DeepCAT.from_env(train_env, seed=4)
    print("offline training on TeraSort (the phase-0 workload)...")
    tuner.train_offline(train_env, iterations=900)

    # Online: one continuous 15-step session across the drift.
    dyn = DynamicTuningEnv(PHASES, CLUSTER_A, space, seed=21)
    log_path = Path(tempfile.gettempdir()) / "deepcat_drift_events.jsonl"
    log_path.write_text("")  # fresh file
    logger = JsonlLogger(log_path)
    online = OnlineTuner(
        tuner.agent,
        tuner.buffer,
        name="DeepCAT",
        use_twin_q=True,
        q_threshold=tuner.q_threshold,
        telemetry=RunContext(logger=logger),
    )
    total_steps = sum(p.steps for p in PHASES)
    print(f"serving one continuous {total_steps}-step session (TS->PR->KM):")
    session = online.tune(dyn, steps=total_steps)
    logger.close()

    # Slice the session at the phase switches the environment recorded.
    boundaries = [s for s, _ in dyn.switch_log] + [total_steps]
    for (start, phase_idx), end in zip(dyn.switch_log, boundaries[1:]):
        phase = PHASES[phase_idx]
        chunk = session.steps[start:end]
        ok = [s.duration_s for s in chunk if s.success]
        best = min(ok) if ok else float("nan")
        print(
            f"  {phase.workload}-{phase.dataset}: best {best:7.1f}s over "
            f"steps {start + 1}-{end}, "
            f"{sum(1 for s in chunk if not s.success)} failures"
        )

    events = [json.loads(l) for l in log_path.read_text().splitlines()]
    print(
        f"\nlogged {len(events)} step events to {log_path}; "
        f"total tuning cost {session.total_tuning_seconds:.1f}s"
    )


if __name__ == "__main__":
    main()
