"""Online tuning stage (right half of the paper's Figure 1).

When a tuning request arrives, the offline model is fine-tuned with a
small number of sequential online steps.  Each step: the actor recommends
an action for the current state; DeepCAT passes it through the Twin-Q
Optimizer (baselines skip this); the — possibly optimized — configuration
is evaluated on the target cluster; the transition feeds fine-tuning
updates.  The session ends at the step constraint or when the time budget
is exhausted, and the best configuration ever found is reported.

The step is split into methods — ``_open`` (session + start state),
``_plan`` (guard fallback or exploration sigma), ``_recommend``,
``_evaluate`` (retries, watchdog), and ``_absorb``'s three phases:
``_push`` (state repair, guard, replay push), ``_fine_tune`` (agent
updates) and ``_record`` (session record, ledger, counters, events,
budget verdict) — so that
:class:`~repro.core.population.PopulationTuner` runs the same code per
member and batches the actor pass, the Twin-Q scoring, the first
simulator pass and the fine-tune updates.  The data work of a push and
of an update publishes no telemetry itself (``_note_push``,
``_note_fine_tune``), so a population can run it for every member first
and still publish each member's telemetry in the sequential order.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.core.resilience import (
    ResiliencePolicy,
    burnt_attempt_seconds,
    sanitize_state,
)
from repro.core.result import OnlineSession, TuningStepRecord
from repro.core.twinq import screening_saving, twin_q_optimize
from repro.envs.tuning_env import StepOutcome, TuningEnv
from repro.replay.base import Transition
from repro.replay.per import PrioritizedReplayBuffer

__all__ = ["OnlineTuner", "record_online_stage"]


class OnlineTuner:
    """Runs the online tuning phase for any actor-critic tuner."""

    def __init__(
        self,
        agent,
        buffer,
        name: str,
        use_twin_q: bool = False,
        q_threshold: float = 0.3,
        twinq_noise_sigma: float = 0.1,
        fine_tune_updates: int = 2,
        exploration_sigma: float = 0.3,
        rng: np.random.Generator | None = None,
        telemetry=None,
    ):
        if fine_tune_updates < 0:
            raise ValueError("fine_tune_updates cannot be negative")
        from repro.telemetry.context import ensure_context

        self.telemetry = ensure_context(telemetry)
        self.agent = agent
        self.buffer = buffer
        self.name = name
        self.use_twin_q = use_twin_q
        self.q_threshold = q_threshold
        self.twinq_noise_sigma = twinq_noise_sigma
        self.fine_tune_updates = fine_tune_updates
        self.exploration_sigma = exploration_sigma
        self._rng = rng if rng is not None else np.random.default_rng()

    def _note_intervention(self, kind: str, step: int | None = None) -> None:
        """Record one resilience intervention: an ``intervention`` event
        on the stream (heartbeats count these) plus the diagnostics
        rate detector."""
        t = self.telemetry
        t.diagnostics.observe_intervention(kind)
        t.event("intervention", intervention=kind, tuner=self.name,
                step=step)

    def _open(
        self,
        env: TuningEnv,
        resilience: ResiliencePolicy | None,
        session: OnlineSession | None,
    ) -> tuple[OnlineSession, np.ndarray]:
        """Attach telemetry to the session's collaborators, create the
        session if needed, and return it with the start state."""
        t = self.telemetry
        if hasattr(env, "attach_telemetry"):
            env.attach_telemetry(t)
        if self.buffer is not None and hasattr(self.buffer, "set_telemetry"):
            self.buffer.set_telemetry(t)
        if hasattr(self.agent, "telemetry"):
            self.agent.telemetry = t
        if session is None:
            session = OnlineSession(
                tuner=self.name,
                workload=env.simulator.workload.code,
                dataset=env.simulator.dataset.label,
                default_duration_s=env.default_duration,
            )
        # Resume from what the metric collector last reported (identical
        # to the clean state on a fresh env), so a restored session sees
        # exactly the observation the killed one would have acted on.
        state = env.observation if hasattr(env, "observation") else env.state
        if resilience is not None:
            state, _ = sanitize_state(state)
        return session, state

    def _plan(
        self, resilience: ResiliencePolicy | None, step: int
    ) -> tuple[np.ndarray | None, float | None]:
        """Decide how this step recommends.

        Returns ``(fallback action, None)`` when the safety guard sees a
        bad streak — stop exploring, revert to the best-known-good
        configuration — and otherwise ``(None, exploration sigma)``.
        """
        guard = resilience.guard if resilience is not None else None
        if guard is not None and guard.should_fallback:
            action = guard.trigger_fallback()
            self.telemetry.count(
                "resilience.fallbacks_total",
                help="safety-guard fallbacks to best-known-good configuration",
                tuner=self.name,
            )
            self._note_intervention("fallback", step)
            return action, None
        if guard is not None:
            return None, guard.effective_sigma(self.exploration_sigma)
        return None, self.exploration_sigma

    def _recommend(
        self, state: np.ndarray, sigma: float
    ) -> tuple[np.ndarray, dict]:
        """Produce the action for this step; returns (action, twinq diag)."""
        action = self.agent.act(state, explore=False)
        if sigma > 0:
            action = np.clip(
                action + self._rng.normal(0.0, sigma, action.shape),
                0.0,
                1.0,
            )
        if not self.use_twin_q:
            return action, {}
        outcome = twin_q_optimize(
            self.agent,
            state,
            action,
            q_threshold=self.q_threshold,
            noise_sigma=self.twinq_noise_sigma,
            rng=self._rng,
            telemetry=self.telemetry,
        )
        return outcome.action, outcome.diag()

    def _evaluate(
        self,
        env: TuningEnv,
        action: np.ndarray,
        resilience: ResiliencePolicy | None,
        step: int,
        first: StepOutcome | None = None,
        member: int | None = None,
    ) -> tuple[StepOutcome, int, float]:
        """Evaluate ``action``, under the resilience policy if one is set.

        ``first`` is an already-computed first attempt (a population's
        shared simulator pass); retries always call ``env.step``.

        Failed (or watchdog-aborted) evaluations are retried up to the
        policy's ``max_attempts``; every burnt attempt and its backoff
        delay are charged into the step's tuning cost (no real sleep —
        the delay is simulated wall-clock, like every other duration
        here).  Returns ``(final outcome, attempts used, extra cost)``
        where the extra cost is the burnt seconds *preceding* the final
        attempt.
        """
        if resilience is None:
            return (first if first is not None else env.step(action)), 1, 0.0
        t = self.telemetry
        watchdog = resilience.watchdog
        schedule = (
            resilience.retry.schedule() if resilience.retry is not None else ()
        )
        max_attempts = resilience.max_attempts
        extra_cost = 0.0
        for attempt in range(max_attempts):
            if attempt > 0 or first is None:
                outcome = env.step(action)
            else:
                outcome = first
            if watchdog is not None:
                verdict = watchdog.inspect(
                    outcome.duration_s, env.default_duration
                )
                if verdict.aborted:
                    # The evaluation is killed at the budget: the step
                    # pays the burnt budget and the reward sees a failure
                    # (Eq. (1) failure semantics, like sim.faults).
                    outcome = replace(
                        outcome,
                        duration_s=verdict.charged_s,
                        success=False,
                        reward=float(
                            env.reward_fn(verdict.charged_s, success=False)
                        ),
                        faults=(*outcome.faults, "watchdog-abort"),
                    )
                    t.count(
                        "resilience.watchdog_aborts_total",
                        help="evaluations aborted by the watchdog",
                        tuner=self.name,
                    )
                    self._note_intervention("watchdog-abort", step)
            if outcome.success or attempt == max_attempts - 1:
                return outcome, attempt + 1, extra_cost
            # The burnt attempt + backoff delay, charged as one float so
            # the ledger's retry account mirrors extra_cost bit-for-bit.
            burnt = burnt_attempt_seconds(
                outcome.duration_s, schedule[attempt]
            )
            extra_cost += burnt
            if t.ledger.enabled:
                t.ledger.charge(
                    "retry",
                    burnt,
                    step=step,
                    member=member,
                    attempt=attempt + 1,
                    faults=list(outcome.faults),
                )
            t.count(
                "resilience.retries_total",
                help="failed evaluations retried with backoff",
                tuner=self.name,
            )
            self._note_intervention("retry", step)
        raise AssertionError("unreachable")  # pragma: no cover

    def _charge_step(
        self,
        env: TuningEnv,
        step: int,
        outcome,
        diag: dict,
        fallback: bool,
        recommendation_s: float,
        attempts: int,
        member: int | None = None,
    ) -> None:
        """Ledger charges for one completed online step.

        The final attempt's duration goes to ``evaluation`` (or
        ``watchdog_abort``/``fallback`` when that is how the step ended);
        burnt retries were already charged inside the retry loop, so the
        per-step charges reproduce the session's ``duration_s`` exactly.
        Twin-Q screening adds a *counterfactual* entry: the estimated
        evaluation seconds the optimizer avoided per Eq.(1).
        """
        led = self.telemetry.ledger
        if "watchdog-abort" in outcome.faults:
            account = "watchdog_abort"
        elif fallback:
            account = "fallback"
        else:
            account = "evaluation"
        led.charge(
            account,
            float(outcome.duration_s),
            step=step,
            member=member,
            tuner=self.name,
            success=bool(outcome.success),
            attempts=attempts,
            config=outcome.config,
        )
        led.charge(
            "recommendation",
            float(recommendation_s),
            step=step,
            member=member,
            tuner=self.name,
        )
        if diag.get("twinq_accepted") and diag.get("twinq_iterations", 0) > 0:
            saving = screening_saving(
                env.reward_fn, diag["original_q"], diag["final_q"]
            )
            led.counterfactual(
                "screening",
                saving,
                step=step,
                member=member,
                tuner=self.name,
                original_q=diag["original_q"],
                final_q=diag["final_q"],
                iterations=diag["twinq_iterations"],
            )

    def tune(
        self,
        env: TuningEnv,
        steps: int = 5,
        time_budget_s: float | None = None,
        *,
        session: OnlineSession | None = None,
        resilience: ResiliencePolicy | None = None,
        checkpoint=None,
    ) -> OnlineSession:
        """Run up to ``steps`` online tuning steps (5 in the paper).

        ``time_budget_s`` optionally bounds the *total tuning cost*
        (evaluation + recommendation time); the session stops once it is
        exceeded (§5.2.3's tuning-cost constraint).

        ``resilience`` enables retry/backoff, the evaluation watchdog,
        and the safety guard (see :mod:`repro.core.resilience`); with
        ``None`` the loop behaves bit-identically to earlier builds.

        ``session`` resumes a checkpointed run: pass the restored
        session, and the loop continues from its next step,
        ``len(session.steps)``, as if it had never stopped.
        ``checkpoint`` is a
        :class:`~repro.core.persistence.PopulationCheckpointManager` over
        this one member (``[tuner]``, ``[env]``), snapshotting the session
        as a population of one at its cadence; on ``KeyboardInterrupt`` a
        final checkpoint is written before the interrupt propagates.
        """
        if steps <= 0:
            raise ValueError("steps must be positive")
        session = self._run_steps(
            env, steps, time_budget_s, session, resilience, checkpoint
        )
        record_online_stage(self.telemetry, self.name, session)
        return session

    def _run_steps(
        self,
        env: TuningEnv,
        steps: int,
        time_budget_s: float | None,
        session: OnlineSession | None,
        resilience: ResiliencePolicy | None,
        checkpoint=None,
    ) -> OnlineSession:
        """The body of :meth:`tune` without the manifest stage, which a
        population records once per member itself."""
        t = self.telemetry
        session, state = self._open(env, resilience, session)
        try:
            with t.span(
                "online.tune", tuner=self.name, workload=session.workload,
                dataset=session.dataset,
            ):
                for step in range(len(session.steps), steps):
                    with t.span("online.step", step=step):
                        t0 = time.perf_counter()
                        action, sigma = self._plan(resilience, step)
                        diag: dict = {}
                        if action is None:
                            with t.span("online.recommend"):
                                action, diag = self._recommend(state, sigma)
                        recommendation_s = time.perf_counter() - t0
                        with t.span("online.evaluate"):
                            evaluated = self._evaluate(
                                env, action, resilience, step
                            )
                        state, over_budget = self._absorb(
                            env, session, resilience, step, evaluated,
                            diag=diag, sigma=sigma,
                            recommendation_s=recommendation_s,
                            time_budget_s=time_budget_s,
                        )
                        if checkpoint is not None:
                            checkpoint.on_step([session], step + 1)
                        if over_budget:
                            break
        except KeyboardInterrupt:
            # Killed mid-session: persist everything completed so far so
            # --resume can continue bit-identically, then propagate.  The
            # save is skipped when the cadence already snapshotted this
            # progress at a clean step boundary — the interrupt lands
            # mid-step with RNG streams advanced for the in-flight
            # recommendation, and those must not overwrite clean state.
            if checkpoint is not None:
                checkpoint.save_if_stale([session])
            raise
        return session

    def _absorb(
        self,
        env: TuningEnv,
        session: OnlineSession,
        resilience: ResiliencePolicy | None,
        step: int,
        evaluated: tuple[StepOutcome, int, float],
        *,
        diag: dict,
        sigma: float | None,
        recommendation_s: float,
        time_budget_s: float | None,
        member: int | None = None,
    ) -> tuple[np.ndarray, bool]:
        """Learn from and record one evaluated step: :meth:`_push`,
        :meth:`_fine_tune`, :meth:`_record`.

        ``evaluated`` is what :meth:`_evaluate` returned; ``sigma`` is
        :meth:`_plan`'s (``None`` on a guard fallback).  Returns the next
        state and whether the session's time budget is now spent.
        """
        next_state, repaired = self._push(evaluated[0], resilience)
        self._note_push(step, repaired)
        self._fine_tune()
        over_budget = self._record(
            env, session, step, evaluated, diag=diag, sigma=sigma,
            recommendation_s=recommendation_s, time_budget_s=time_budget_s,
            member=member,
        )
        return next_state, over_budget

    def _push(
        self, outcome: StepOutcome, resilience: ResiliencePolicy | None
    ) -> tuple[np.ndarray, int]:
        """The data half of taking in a step: repair the next state,
        update the safety guard and push the transition.  Publishes
        nothing; :meth:`_note_push` does.  Returns the next state and
        the number of repaired entries."""
        next_state, repaired = outcome.next_state, 0
        if resilience is not None:
            next_state, repaired = sanitize_state(next_state)
            if resilience.guard is not None:
                resilience.guard.record(
                    outcome.success, outcome.reward, outcome.action
                )
        if self.buffer is not None:
            self.buffer.push(
                Transition(
                    state=outcome.state,
                    action=outcome.action,
                    reward=outcome.reward,
                    next_state=next_state,
                ),
                record=False,
            )
        return next_state, repaired

    def _note_push(self, step: int, repaired: int) -> None:
        """The telemetry of :meth:`_push`: state repairs, then the
        buffer's push telemetry."""
        if repaired:
            self.telemetry.count(
                "resilience.state_repairs_total",
                repaired,
                help="NaN observation entries repaired",
                tuner=self.name,
            )
            self._note_intervention("state-repair", step)
        if self.buffer is not None:
            self.buffer.record_push()

    def _fine_tune(self) -> None:
        """``fine_tune_updates`` scalar agent updates on replay samples,
        once the buffer holds a batch."""
        buffer, batch_size = self.buffer, self.agent.hp.batch_size
        if buffer is None or not buffer.can_sample(batch_size):
            return
        with self.telemetry.span("online.finetune"):
            for _ in range(self.fine_tune_updates):
                batch = buffer.sample(batch_size)
                d = self.agent.update(batch)
                if isinstance(buffer, PrioritizedReplayBuffer):
                    buffer.update_priorities(batch.indices, d["td_errors"])

    def _note_fine_tune(self, updates: list[dict]) -> None:
        """The telemetry of fine-tune updates that ran elsewhere (a
        population's stacked block), in :meth:`_fine_tune`'s order: per
        update the buffer's sample telemetry, then the agent's."""
        batch_size = self.agent.hp.batch_size
        with self.telemetry.span("online.finetune"):
            for diag in updates:
                self.buffer.record_sample(batch_size)
                self.agent.record_update(diag)

    def _record(
        self,
        env: TuningEnv,
        session: OnlineSession,
        step: int,
        evaluated: tuple[StepOutcome, int, float],
        *,
        diag: dict,
        sigma: float | None,
        recommendation_s: float,
        time_budget_s: float | None,
        member: int | None = None,
    ) -> bool:
        """Record one step: session record, ledger, counters, learning
        diagnostics and the ``online-step`` event.  Returns whether the
        session's time budget is now spent."""
        t = self.telemetry
        outcome, attempts, extra_cost = evaluated
        fallback = sigma is None
        step_cost_s = float(outcome.duration_s + extra_cost)
        session.add(
            TuningStepRecord(
                step=step,
                duration_s=step_cost_s,
                recommendation_s=recommendation_s,
                reward=outcome.reward,
                success=outcome.success,
                config=outcome.config,
                action=outcome.action,
                twinq_iterations=diag.get("twinq_iterations"),
                twinq_accepted=diag.get("twinq_accepted"),
                original_q=diag.get("original_q"),
                final_q=diag.get("final_q"),
                attempts=attempts,
                aborted="watchdog-abort" in outcome.faults,
                fallback=fallback,
                faults=outcome.faults,
            )
        )
        if t.ledger.enabled:
            self._charge_step(
                env, step, outcome, diag, fallback, recommendation_s,
                attempts, member=member,
            )
        # The paper's cost split: recommendation time is the tuner's own
        # overhead, evaluation time is what the Twin-Q Optimizer exists
        # to reduce (Figure 7).
        t.count(
            "online.steps_total",
            help="online tuning steps served",
            tuner=self.name,
        )
        t.count(
            "online.recommendation_seconds_total",
            recommendation_s,
            help="cumulative recommendation time",
            tuner=self.name,
        )
        t.count(
            "online.evaluation_seconds_total",
            step_cost_s,
            help="cumulative configuration evaluation time",
            tuner=self.name,
        )
        t.observe(
            "online.step_reward",
            float(outcome.reward),
            help="per-step reward",
            tuner=self.name,
        )
        # Learning-health detectors: pure observers.  The extra critic
        # forward pass for q_pred consumes no RNG and is skipped entirely
        # when diagnostics are off, so science stays bit-identical either
        # way.
        if t.diagnostics.enabled:
            q_pred = diag.get("final_q")
            if q_pred is None and hasattr(self.agent, "min_q"):
                q_pred = float(self.agent.min_q(outcome.state, outcome.action))
            t.diagnostics.observe_step(
                step=step,
                reward=float(outcome.reward),
                success=bool(outcome.success),
                q_pred=q_pred,
                sigma=sigma,
            )
            # Drain before the step event so the heartbeat written on
            # "online-step" reflects this step's alerts.
            for alert in t.diagnostics.drain_alerts():
                t.event("alert", **alert.as_event_fields())
        t.event(
            "online-step",
            tuner=self.name,
            step=step,
            duration_s=step_cost_s,
            reward=float(outcome.reward),
            success=bool(outcome.success),
            recommendation_s=float(recommendation_s),
            attempts=attempts,
            fallback=fallback,
            faults=list(outcome.faults),
        )
        return (
            time_budget_s is not None
            and session.total_tuning_seconds >= time_budget_s
        )


def record_online_stage(telemetry, tuner: str, session: OnlineSession) -> None:
    """Record one finished session as an ``online-tune`` manifest stage."""
    if telemetry.manifest is None:
        return
    successes = [s for s in session.steps if s.success]
    telemetry.manifest.record_stage(
        "online-tune",
        tuner=tuner,
        workload=session.workload,
        dataset=session.dataset,
        steps=len(session.steps),
        best_duration_s=session.best_duration_s if successes else None,
        total_tuning_seconds=session.total_tuning_seconds,
    )
