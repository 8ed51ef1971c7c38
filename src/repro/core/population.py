"""Lockstep online tuning for a population of independent sessions.

:class:`PopulationTuner` drives N fully independent online tuning
sessions — each with its own agent, replay buffer, environment, RNG
streams, and resilience policy — through one lockstep loop that batches
every tensor computation across the population:

* the greedy actor forward (one stacked ``(N, 1, 9)`` pass),
* the Twin-Q Optimizer's ``min(Q1, Q2)`` screenings (one stacked pass
  per escalation round, all sessions' candidate fans at once),
* the configuration evaluation (one shared analytic simulator pass via
  :class:`~repro.envs.population.VectorTuningEnv`),
* the fine-tune updates (one stacked TD3 update per block of up to
  :data:`BLOCK_SIZE` consecutive members, via
  :meth:`~repro.agents.population.PopulationTD3View.update_block`).

Everything *stochastic* or session-local stays per member and runs in
member order: exploration noise, Twin-Q candidate draws, retries,
safety-guard bookkeeping, replay pushes and samples, target-smoothing
noise, record construction, and telemetry.  That per-member work is not
a copy: it is :class:`~repro.core.online.OnlineTuner`'s own step code
(``_open``, ``_plan``, ``_evaluate``, and ``_absorb``'s phases
``_push``, ``_fine_tune``, ``_record``), called once per member with the
batched results, and the Twin-Q helpers of :mod:`repro.core.twinq`.
Because every member owns disjoint generator objects, interleaving
members across lockstep phases cannot reorder any single member's draw
sequence — which is the whole bit-identity argument, phase by phase:

1. a member's per-step draw order (exploration noise → Twin-Q fan →
   simulator noise/tails → fault perturbation → metric dropout →
   retries → per update: replay sample, then target-smoothing noise)
   is preserved exactly, because the lockstep phases run in that order
   and each phase visits members in order;
2. the batched tensor math is bit-identical per row to the scalar calls
   (:mod:`repro.nn.population`, :mod:`repro.agents.population`,
   :mod:`repro.envs.population` each pin their own layer of this);
3. a member that cannot join a block runs its scalar fine-tune, which
   writes *through* the stacked parameter views, so batched forwards
   always see the latest per-member weights.

Telemetry keeps the sequential order too: the push and fine-tune data
work publishes nothing, and each member's push, sample, update and step
telemetry is published afterwards, member by member.

The fine-tune blocks of a round run on *lanes*: one thread per usable
CPU, at most one per block (:func:`repro.parallel.pinning.usable_cpus`).
The calling thread runs lane 0; a thread pool, started at the first
round with two blocks and shut down when :meth:`PopulationTuner.tune`
or :meth:`~PopulationTuner.finish` ends, runs the others.  Each lane
writes its temporaries into a :class:`~repro.nn.population.Workspace` of
its own, and each block writes only its members' rows of the stacked
storage and draws only from its members' generators, so the result is
the same at any lane count.  numpy releases the GIL inside its matmuls
and ufunc loops, which is what lanes overlap; they run only while every
loaded BLAS runs one thread (:func:`repro.parallel.pinning.one_blas_thread`),
else two BLAS thread pools would contend for the same CPUs.

The one documented divergence is ``recommendation_s``: the population
measures one batched recommendation wall-clock per lockstep iteration
and splits it equally among participating members, so this field (and
anything derived from it, i.e. ``time_budget_s`` cut-offs) is
wall-clock-dependent exactly as it is in sequential runs.
:func:`repro.core.result.sessions_equal` already excludes it.

Pinned by ``tests/test_population_equivalence.py`` and the
``-m determinism`` population cases.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.agents.population import PopulationTD3View
from repro.agents.td3 import TD3Agent
from repro.core.online import OnlineTuner, record_online_stage
from repro.core.resilience import ResiliencePolicy
from repro.core.result import OnlineSession
from repro.core.twinq import (
    DEFAULT_MAX_ITERATIONS,
    TwinQOutcome,
    candidate_rounds,
    record_screening,
)
from repro.envs.population import VectorTuningEnv
from repro.envs.tuning_env import TuningEnv
from repro.nn.population import Workspace
from repro.parallel.pinning import blas_pools, one_blas_thread, usable_cpus
from repro.replay.rdper import RewardDrivenReplayBuffer
from repro.replay.uniform import UniformReplayBuffer

__all__ = ["PopulationMember", "PopulationTuner", "population_seed_plan"]

#: members per stacked fine-tune block.  Larger blocks' ``(B, 128, 64)``
#: temporaries outgrow a 2 MiB L2 (``docs/performance.md``, "Stacked
#: fine-tune").
BLOCK_SIZE = 4


def population_seed_plan(base_seed: int, n: int) -> list[int]:
    """Derive ``n`` independent member seeds from one base seed.

    Uses ``SeedSequence.spawn`` so the members' stream families are
    provably non-overlapping; each returned seed is an ordinary integer
    usable anywhere a scalar ``--seed`` is (a population member ``i`` is
    exactly the sequential run ``--seed plan[i]``).
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    return [
        int(child.generate_state(1, dtype=np.uint32)[0])
        for child in np.random.SeedSequence(base_seed).spawn(n)
    ]


@dataclass
class PopulationMember:
    """One session of the population: tuner + environment + run state."""

    tuner: OnlineTuner
    env: TuningEnv
    resilience: ResiliencePolicy | None = None
    session: OnlineSession | None = None
    # -- runtime state owned by the lockstep loop -----------------------
    state: np.ndarray = field(default=None, repr=False)  # type: ignore
    done: bool = field(default=False, repr=False)
    #: isolated from the lockstep after non-finite parameters; finished
    #: sequentially so one diverged member can't poison the stacked math
    quarantined: bool = field(default=False, repr=False)


class PopulationTuner:
    """Runs N independent online tuning sessions in lockstep.

    ``tune`` is bit-identical (per member) to calling each member's
    :meth:`OnlineTuner.tune` sequentially with the same arguments —
    see the module docstring for the argument and the test suite for
    the enforcement.  The lane threads are not part of the tuner's
    state: a pickled or copied tuner starts its own.
    """

    #: CPUs this tuner's lanes may use; ``None`` is the whole process's
    #: share (a shard worker sets its own)
    _cpus: int | None = None

    def __init__(self, members: Sequence[PopulationMember]):
        members = list(members)
        if not members:
            raise ValueError("population needs at least one member")
        for attr in ("tuner", "env"):
            objs = [getattr(m, attr) for m in members]
            if len({id(o) for o in objs}) != len(objs):
                raise ValueError(
                    f"population members must have distinct {attr}s"
                )
        for m in members:
            if m.tuner.use_twin_q and m.tuner.twinq_noise_sigma <= 0:
                raise ValueError("noise_sigma must be positive")
        self.members = members
        # These validate distinctness and shared shapes/workloads.
        self.venv = VectorTuningEnv([m.env for m in members])
        self.view = PopulationTD3View([m.tuner.agent for m in members])
        n = len(members)
        self._states = np.zeros((n, self.view.state_dim))
        self._actions = np.zeros((n, self.view.action_dim))
        self._originals = np.zeros((n, self.view.action_dim))
        self._noise = np.zeros((n, self.view.action_dim))
        self._cands = np.zeros(
            (n, DEFAULT_MAX_ITERATIONS, self.view.action_dim)
        )
        self._lanes: _Lanes | None = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_lanes": None}

    # ------------------------------------------------------------ factory

    @classmethod
    def from_deepcat(
        cls,
        tuners: Sequence,
        envs: Sequence[TuningEnv],
        *,
        fine_tune_updates: int = 2,
        exploration_sigma: float = 0.3,
        telemetry=None,
        resiliences: Sequence[ResiliencePolicy | None] | None = None,
        sessions: Sequence[OnlineSession | None] | None = None,
    ) -> "PopulationTuner":
        """Build a population from :class:`~repro.core.deepcat.DeepCAT`
        instances, each member's :class:`OnlineTuner` built exactly as
        ``DeepCAT.tune_online`` builds it (:meth:`DeepCAT.online_tuner`).
        A member with a session resumes at its next step.
        """
        tuners = list(tuners)
        envs = list(envs)
        if len(tuners) != len(envs):
            raise ValueError("need one environment per tuner")
        n = len(tuners)
        resiliences = list(resiliences) if resiliences is not None else [None] * n
        sessions = list(sessions) if sessions is not None else [None] * n
        if not len(resiliences) == len(sessions) == n:
            raise ValueError("per-member argument lists must match in length")
        members = []
        for dc, env, res, session in zip(tuners, envs, resiliences, sessions):
            online = dc.online_tuner(
                env,
                fine_tune_updates=fine_tune_updates,
                exploration_sigma=exploration_sigma,
                telemetry=telemetry,
            )
            members.append(
                PopulationMember(
                    tuner=online,
                    env=env,
                    resilience=res,
                    session=session,
                )
            )
        return cls(members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def sessions(self) -> list[OnlineSession]:
        return [m.session for m in self.members]

    # ---------------------------------------------------------------- twinq

    def _twinq_resolve(self, indices: list[int]) -> dict[int, dict]:
        """Run the Twin-Q Optimizer for every member in ``indices``,
        batching each escalation round's critic scoring across members.

        Same result, draws and counters per member as
        :func:`repro.core.twinq.twin_q_optimize`: each member draws its
        three rounds up front with ``candidate_rounds``, in member
        order, and round ``r`` is scored for every still-unresolved
        member in one stacked critic pass whose rows are bit-identical
        to ``twin_q_batch``.
        """
        members = self.members
        for i in indices:
            self._originals[i] = np.clip(
                np.asarray(self._actions[i], dtype=np.float64), 0.0, 1.0
            )
        min_qs = self.view.min_q(self._states, self._originals)

        fans: dict[int, tuple] = {}  # i -> the three candidate rounds
        scored: dict[int, int] = {}
        outcomes: dict[int, TwinQOutcome] = {}
        for i in indices:
            mt = members[i].tuner
            original, original_q = self._originals[i], min_qs[i]
            if original_q >= mt.q_threshold:
                outcomes[i] = TwinQOutcome(
                    original, original_q, 0, True, original_q
                )
                continue
            fans[i] = candidate_rounds(
                original, mt.twinq_noise_sigma, mt._rng,
                DEFAULT_MAX_ITERATIONS,
            )
            scored[i] = 0

        for r in range(3):
            need = [i for i in indices if i in fans]
            if not need:
                break
            for i in need:
                self._cands[i] = fans[i][r]
            scores = self.view.twin_q_rows(self._states, self._cands)
            for i in need:
                qs = scores[i]
                above = np.flatnonzero(qs >= members[i].tuner.q_threshold)
                if above.size:
                    first = int(above[0])
                    scored[i] += first + 1
                    outcomes[i] = TwinQOutcome(
                        fans.pop(i)[r][first], float(qs[first]), scored[i],
                        True, min_qs[i],
                    )
                else:
                    scored[i] += DEFAULT_MAX_ITERATIONS
        for i in fans:
            # Nothing cleared Q_th: fall back to the original
            # recommendation, exactly as the scalar optimizer does.
            outcomes[i] = TwinQOutcome(
                self._originals[i], min_qs[i], scored[i], False, min_qs[i]
            )

        diags: dict[int, dict] = {}
        for i in indices:
            outcome = outcomes[i]
            self._actions[i] = outcome.action
            t = members[i].tuner.telemetry
            with t.span("twinq.optimize") as span:
                span.set_attr("iterations", outcome.iterations)
                span.set_attr("accepted", outcome.accepted)
            record_screening(t, outcome)
            diags[i] = outcome.diag()
        return diags

    # ----------------------------------------------------------------- tune

    def tune(
        self,
        steps: int = 5,
        time_budget_s: float | None = None,
        checkpoint=None,
    ) -> list[OnlineSession]:
        """Run every member for up to ``steps`` online tuning steps.

        Returns the per-member sessions in member order.  ``checkpoint``
        is a :class:`~repro.core.persistence.PopulationCheckpointManager`
        snapshotting the whole population after each lockstep iteration;
        on ``KeyboardInterrupt`` a final snapshot is written before the
        interrupt propagates (mirroring :meth:`OnlineTuner.tune`).
        """
        if steps <= 0:
            raise ValueError("steps must be positive")
        members = self.members
        self.begin(steps)
        lead = members[0].tuner.telemetry
        try:
            with lead.span(
                "population.tune", n=len(members), steps=steps
            ):
                for step in range(steps):
                    status = self.run_round(step, time_budget_s)
                    if status == "complete":
                        break
                    if status == "stepped" and checkpoint is not None:
                        checkpoint.on_step(self.sessions, step + 1)
                self._finish_quarantined(steps, time_budget_s)
        except KeyboardInterrupt:
            if checkpoint is not None:
                checkpoint.save_if_stale(self.sessions)
            raise
        finally:
            self.close()
        self.record_manifests()
        return self.sessions

    def begin(self, steps: int) -> None:
        """Prepare every member for lockstep rounds (idempotent setup):
        attach telemetry, create missing sessions, seed the runtime
        ``state``/``done`` flags.  Split out of :meth:`tune` so a shard
        worker can drive rounds one at a time via :meth:`run_round`."""
        for m in self.members:
            m.session, m.state = m.tuner._open(m.env, m.resilience, m.session)
            m.done = len(m.session.steps) >= steps

    def run_round(
        self, step: int, time_budget_s: float | None = None
    ) -> str:
        """Drive one lockstep round; requires a prior :meth:`begin`.

        Returns ``"stepped"`` when members advanced, ``"idle"`` when no
        member was eligible this step but some remain (resumed sessions
        of different lengths join at their own next step), and
        ``"complete"`` when every member is done or quarantined.
        """
        members = self.members
        active = [
            i
            for i, m in enumerate(members)
            if not m.done and not m.quarantined
            and step >= len(m.session.steps)
        ]
        if active:
            active = self._screen_nonfinite(active, step)
        if not active:
            if all(m.done or m.quarantined for m in members):
                return "complete"
            return "idle"
        self._lockstep(step, active, time_budget_s)
        return "stepped"

    def finish(self, steps: int, time_budget_s: float | None = None) -> None:
        """Post-round teardown for callers driving :meth:`run_round`
        directly: sequential quarantine finish + manifest records, then
        :meth:`close`."""
        try:
            self._finish_quarantined(steps, time_budget_s)
            self.record_manifests()
        finally:
            self.close()

    def close(self) -> None:
        """Stop the lane threads and join them (idempotent); a later
        round with two blocks starts them again."""
        lanes, self._lanes = self._lanes, None
        if lanes is not None:
            lanes.close()

    def record_manifests(self) -> None:
        """One ``online-tune`` manifest stage per member."""
        for m in self.members:
            record_online_stage(m.tuner.telemetry, m.tuner.name, m.session)

    def _screen_nonfinite(self, active: list[int], step: int) -> list[int]:
        """Drop members whose nets went non-finite from the lockstep.

        A diverged member's NaN parameters would flow through the shared
        stacked forwards; instead it is flagged ``quarantined`` and
        finished sequentially by :meth:`_finish_quarantined`.  Pure
        observation on the healthy path — no RNG draws, no writes — so
        an all-finite population is bit-identical with or without the
        screen.
        """
        finite = self.view.members_finite()
        if all(finite[i] for i in active):
            return active
        kept = []
        for i in active:
            if finite[i]:
                kept.append(i)
                continue
            m = self.members[i]
            m.quarantined = True
            t = m.tuner.telemetry
            t.count(
                "population.quarantined_total",
                help="members isolated from the lockstep after "
                     "non-finite parameters",
                tuner=m.tuner.name,
            )
            t.event("member-quarantined", member=i, step=step,
                    tuner=m.tuner.name)
        return kept

    def _finish_quarantined(
        self, steps: int, time_budget_s: float | None
    ) -> None:
        """Run each quarantined member's remaining steps alone through
        :meth:`OnlineTuner.tune`'s loop (its manifest stage is left to
        :meth:`record_manifests`, like every member's).  Its nets are
        already damaged, so even the sequential finish may fail — that
        failure is contained to the member and recorded, never
        propagated."""
        for i, m in enumerate(self.members):
            if not m.quarantined or m.done or len(m.session.steps) >= steps:
                continue
            t = m.tuner.telemetry
            try:
                m.tuner._run_steps(
                    m.env, steps, time_budget_s, m.session, m.resilience
                )
            except Exception as exc:
                t.count(
                    "population.quarantine_failures_total",
                    help="quarantined members whose sequential finish "
                         "also failed",
                    tuner=m.tuner.name,
                )
                t.event(
                    "member-quarantine-failed", member=i,
                    error=f"{type(exc).__name__}: {exc}",
                )

    def _lockstep(
        self, step: int, active: list[int], time_budget_s: float | None
    ) -> None:
        """One population step: batched recommend + evaluate, then the
        phases of :meth:`OnlineTuner._absorb` — every member's push, the
        stacked fine-tune blocks, and each member's record."""
        members = self.members
        lead = members[0].tuner.telemetry
        t0 = time.perf_counter()

        # Recommendation: each member's plan (guard fallback or sigma)
        # in member order, then one stacked actor pass, per-member
        # exploration noise, and the batched Twin-Q resolution.
        sigma: dict[int, float | None] = {}
        diags: dict[int, dict] = {i: {} for i in active}
        recommend_idx: list[int] = []
        with lead.span("population.recommend", step=step):
            for i in active:
                m = members[i]
                action, sigma[i] = m.tuner._plan(m.resilience, step)
                if action is not None:
                    self._actions[i] = action
                else:
                    self._states[i] = m.state
                    recommend_idx.append(i)
            if recommend_idx:
                acts = self.view.act(self._states)
                # Exploration noise: the *draws* stay scalar per member,
                # in member order (each member owns its own generator, so
                # merging them would change the streams); only the
                # elementwise add+clip over the collected rows is batched,
                # which is bit-identical to the per-member expression.
                noisy: list[int] = []
                for i in recommend_idx:
                    if sigma[i] > 0:
                        self._noise[i] = members[i].tuner._rng.normal(
                            0.0, sigma[i], (self.view.action_dim,)
                        )
                        noisy.append(i)
                    else:
                        self._actions[i] = acts[i]
                if noisy:
                    rows = np.asarray(noisy)
                    self._actions[rows] = np.clip(
                        acts[rows] + self._noise[rows], 0.0, 1.0
                    )
                twinq_idx = [
                    i for i in recommend_idx if members[i].tuner.use_twin_q
                ]
                if twinq_idx:
                    diags.update(self._twinq_resolve(twinq_idx))
        # One batched recommendation, split equally; sessions_equal
        # excludes this wall-clock field (module docstring).
        rec_share = (time.perf_counter() - t0) / len(active)

        # Evaluation: attempt 1 for every member through one shared
        # simulator pass; retries scalar per member.
        with lead.span("population.evaluate", step=step):
            first = self.venv.step(self._actions[active], indices=active)
            evaluated = [
                members[i].tuner._evaluate(
                    members[i].env, self._actions[i], members[i].resilience,
                    step, first=first[pos], member=i,
                )
                for pos, i in enumerate(active)
            ]

        # Push: every member's transition into its buffer (data only).
        pushed = [
            members[i].tuner._push(evaluated[pos][0], members[i].resilience)
            for pos, i in enumerate(active)
        ]
        # Fine-tune: the stacked blocks (publishing nothing yet).
        with lead.span("population.finetune", step=step):
            stacked = self._fine_tune_blocks(active)

        # Record, per member in member order: the push telemetry, the
        # fine-tune telemetry (or the scalar fine-tune of a member no
        # block took), the step record, counters and events.  Sinks are
        # put in deferred-flush mode for the whole pass, so the round
        # issues one flush per distinct event log / ledger instead of
        # one per member (content and order unchanged).
        with ExitStack() as flushes:
            seen: set[int] = set()
            for i in active:
                t = members[i].tuner.telemetry
                for sink in (t.logger, t.ledger):
                    if id(sink) not in seen:
                        seen.add(id(sink))
                        flushes.enter_context(sink.deferred())
            for pos, i in enumerate(active):
                m = members[i]
                m.state, repaired = pushed[pos]
                m.tuner._note_push(step, repaired)
                if i in stacked:
                    m.tuner._note_fine_tune(stacked[i])
                else:
                    m.tuner._fine_tune()
                m.done = m.tuner._record(
                    m.env, m.session, step, evaluated[pos],
                    diag=diags[i], sigma=sigma[i],
                    recommendation_s=rec_share, time_budget_s=time_budget_s,
                    member=i,
                )

    def _fine_tune_blocks(self, active: list[int]) -> dict[int, list[dict]]:
        """Run the fine-tune updates of every member that can join a
        block, as :meth:`PopulationTD3View.update_block` calls.

        A block is a run of at most :data:`BLOCK_SIZE` consecutive
        active members that share :func:`_block_key`.  Returns each
        block member's per-update results for
        :meth:`OnlineTuner._note_fine_tune`; the other members keep
        their scalar :meth:`OnlineTuner._fine_tune`.
        """
        members = self.members
        runs: list[list[int]] = []
        keys: dict[int, tuple] = {}
        for i in active:
            key = _block_key(members[i].tuner)
            if key is None:
                continue
            keys[i] = key
            if keys.get(i - 1) == key and len(runs[-1]) < BLOCK_SIZE:
                runs[-1].append(i)
            else:
                runs.append([i])
        blocks = [
            (
                slice(run[0], run[-1] + 1),
                [members[i].tuner.buffer for i in run],
                members[run[0]].tuner.fine_tune_updates,
            )
            for run in runs
        ]
        stacked: dict[int, list[dict]] = {}
        for run, updates in zip(runs, self._run_blocks(blocks)):
            stacked.update(zip(run, updates))
        return stacked

    def _run_blocks(self, blocks: list[tuple]) -> list[list[list[dict]]]:
        """Each block's :meth:`PopulationTD3View.update_block` result,
        in block order: on ``min(blocks, usable CPUs)`` lanes while
        BLAS runs one thread, else one after another on this thread."""
        cpus = self._cpus or usable_cpus()
        lanes = min(len(blocks), cpus)
        if lanes > 1:
            if self._lanes is None:
                self._lanes = _Lanes(self.view, cpus - 1)
            with one_blas_thread(self._lanes.blas) as single:
                if single:
                    return self._lanes.run(blocks, lanes)
        return [self.view.update_block(*block) for block in blocks]


class _Lanes:
    """The threads and workspaces that run a round's fine-tune blocks,
    and the BLAS pools pinned while they run.

    Lane ``k`` runs blocks ``k, k + lanes, ...`` in order, into
    workspace ``k``: lane 0 on the calling thread with the view's own
    workspace, the others on a pool of ``threads`` threads.  The BLAS
    pools are looked up once, here: no round loads a BLAS library.
    """

    def __init__(self, view: PopulationTD3View, threads: int):
        from concurrent.futures import ThreadPoolExecutor

        self.view = view
        self.pool = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-lane"
        )
        self.workspaces = [view.workspace]
        self.blas = blas_pools()

    def run(self, blocks: list[tuple], lanes: int) -> list[list[list[dict]]]:
        """Every block's result in block order.  Every lane has finished
        before anything leaves, an interrupt on this thread included;
        then the first failure in block order is raised."""
        while len(self.workspaces) < lanes:
            self.workspaces.append(Workspace())
        futures = [
            self.pool.submit(_lane, self.view, blocks[k::lanes],
                             self.workspaces[k])
            for k in range(1, lanes)
        ]
        try:
            done = [_lane(self.view, blocks[0::lanes], self.workspaces[0])]
        finally:
            interrupt = _settle(futures)
        done += [future.result() for future in futures]
        results: list = [None] * len(blocks)
        for k, outcomes in enumerate(done):
            results[k:k + lanes * len(outcomes):lanes] = outcomes
        for outcome in results:
            # a block left unrun follows its lane's failure
            if isinstance(outcome, BaseException):
                raise outcome
        if interrupt is not None:
            raise interrupt
        return results

    def close(self) -> None:
        self.pool.shutdown(wait=True)


def _lane(view: PopulationTD3View, blocks: list[tuple],
          workspace: Workspace) -> list:
    """Run ``blocks`` in order; the first failure stops the lane and
    takes its block's place in the result."""
    outcomes: list = []
    for block in blocks:
        try:
            outcomes.append(view.update_block(*block, workspace))
        except BaseException as exc:
            outcomes.append(exc)
            break
    return outcomes


def _settle(futures) -> BaseException | None:
    """Wait until every future is done, even through exceptions that a
    signal handler raises on this thread meanwhile (SIGINT, SIGTERM);
    return the first of those."""
    from concurrent.futures import wait

    interrupt = None
    while True:
        try:
            wait(futures)
            return interrupt
        except BaseException as exc:
            if interrupt is None:
                interrupt = exc


def _block_key(tuner: OnlineTuner) -> tuple | None:
    """What members of one fine-tune block must share, or ``None`` for a
    member that fine-tunes alone: a TD3 agent whose buffer samples into
    provided rows and holds a batch, with updates to run.  Block members
    share the hyper-parameters, the optimizers' settings, the update
    count and the actor phase."""
    agent, buffer = tuner.agent, tuner.buffer
    if (
        tuner.fine_tune_updates == 0
        or not isinstance(agent, TD3Agent)
        or not isinstance(buffer, (RewardDrivenReplayBuffer,
                                   UniformReplayBuffer))
        or not buffer.can_sample(agent.hp.batch_size)
    ):
        return None
    return (
        agent.hp,
        tuner.fine_tune_updates,
        agent.updates_done % agent.hp.policy_delay,
        tuple(
            (opt.lr, opt.b1, opt.b2, opt.eps, opt.max_grad_norm)
            for opt in (agent.actor_opt, agent.critic1_opt, agent.critic2_opt)
        ),
    )
