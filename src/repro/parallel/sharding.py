"""Process-sharded population stepping.

:class:`ShardedPopulation` splits N population members into K contiguous
shards (:func:`repro.parallel.pinning.shard_plan`) and hands each shard
to a long-lived worker process that owns a private
:class:`~repro.core.population.PopulationTuner` over its slice.  The
parent drives one lockstep **round** at a time: it broadcasts
``("round", step)`` to every worker, then blocks until all K reply — a
barrier, so round ``step+1`` starts only after the slowest shard
finished ``step`` everywhere, exactly like the single-process loop.

Member state
------------
A worker keeps its members in its own heap, as the single-process
``PopulationTuner`` does.  ``_spawn`` starts every worker first, with
BLAS pinned to one thread in the environment the workers
inherit and a K-th of this process's CPUs as the worker's budget of
fine-tune lanes (:func:`repro.parallel.pinning.usable_cpus`), and only
then pickles each shard's members and sends them as the first message
on its pipe, so the K workers import ``repro`` in parallel.
Members travel back to the parent only at each checkpoint (and the
final interrupt snapshot); at finish a worker returns its sessions
alone.  Rounds ship only per-member step events.  ``_shutdown`` stops
and joins every worker that started, whatever ended the run (SIGTERM,
a SIGKILLed worker, a failed spawn).

Bit-identity
------------
Sharding changes *where* members step, never *what* they step: every
member keeps its own ``SeedSequence.spawn``-derived generators, a shard
worker visits its members in global member order, and shards share no
RNG or mutable state — so a ``shards=K`` run is bit-identical to
``shards=1`` and to the sequential loop (the ``-m determinism`` suite
gates all three, including checkpoint equality across shard counts).

Telemetry
---------
Workers run detached (null telemetry); after each barrier the parent
re-emits every member's ``online-step`` event plus one
``population-round`` event carrying the slowest shard's round time,
which the heartbeat uses for stall detection
(:mod:`repro.telemetry.heartbeat`).  Metrics/ledger/diagnostics streams
are not forwarded in sharded mode — sessions and checkpoints (the
science) are unaffected.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.parallel.pinning import blas_env, shard_plan, usable_cpus

__all__ = ["ShardCrash", "ShardStats", "ShardedPopulation"]

_JOIN_S = 5.0
_POLL_S = 0.1


class ShardCrash(RuntimeError):
    """A shard worker died (crash/SIGKILL) before finishing its round."""


@dataclass
class ShardStats:
    """Wall-clock accounting of the sharded round loop.

    ``barrier_s`` is synchronization overhead: parent time spent per
    round beyond the slowest shard's own compute (send/recv + waiting
    for stragglers).  ``tail_s`` is the parent's post-barrier scalar
    work (event re-emission, checkpoint snapshots).  ``round_s`` holds
    each stepped round's wall clock.  The heartbeat does not read these
    stats: it takes ``round_s`` from each ``population-round`` event.
    """

    shards: int = 0
    rounds: int = 0
    barrier_s: float = 0.0
    tail_s: float = 0.0
    round_s: list = field(default_factory=list)


def _step_events(members, lo: int, before: list[int]) -> list[dict]:
    """Per-member ``online-step`` event payloads for sessions that grew
    this round, in global member order."""
    events = []
    for off, m in enumerate(members):
        n = len(m.session.steps) if m.session is not None else 0
        if n <= before[off]:
            continue
        rec = m.session.steps[-1]
        events.append(
            {
                "member": lo + off,
                "tuner": m.tuner.name,
                "step": rec.step,
                "duration_s": float(rec.duration_s),
                "reward": float(rec.reward),
                "success": bool(rec.success),
                "recommendation_s": float(rec.recommendation_s),
                "attempts": rec.attempts,
                "fallback": bool(rec.fallback),
                "faults": list(rec.faults),
            }
        )
    return events


def _snapshot_bytes(payload, members) -> bytes:
    """Pickle this shard's live member state for the parent.

    The DeepCATs in ``payload`` hold the *same* agent/buffer/RNG objects
    the shard's OnlineTuners mutate (``from_deepcat`` shares them), so
    pickling them captures current weights, replay contents, and RNG
    positions — the exact shape ``save_population_checkpoint`` expects.
    Worker-side telemetry is already the null context, so the payload
    pickles cleanly.
    """
    return pickle.dumps(
        {
            "tuners": payload["tuners"],
            "envs": payload["envs"],
            "sessions": [m.session for m in members],
            "next_steps": [
                len(m.session.steps) if m.session is not None else 0
                for m in members
            ],
            "resiliences": payload["resiliences"],
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _shard_worker_main(conn, lo: int, steps: int, cpus: int) -> None:
    """Entry point of one shard worker (spawn start method), whose
    population runs its fine-tune blocks on at most ``cpus`` lanes.

    Protocol (all messages are tuples, parent → worker):

    * ``("members", payload)`` → ``("ready", n)``, always the first
      message; a ``("stop",)`` or EOF in its place ends the worker;
    * ``("round", step, time_budget_s)`` → ``("ok", status, elapsed_s,
      events)``;
    * ``("snapshot",)`` → ``("snapshot", bytes)``;
    * ``("finish", time_budget_s)`` → ``("done", sessions)``;
    * ``("stop",)`` → worker exits.

    SIGINT is ignored so a Ctrl-C in the parent's terminal (delivered to
    the whole process group) cannot kill a worker mid-write; the parent
    drains the in-flight round and shuts workers down explicitly.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.core.population import PopulationTuner

    pop = None
    try:
        first = conn.recv()
        if first[0] != "members":  # stopped before its members arrived
            return
        payload = first[1]
        pop = PopulationTuner.from_deepcat(
            payload["tuners"],
            payload["envs"],
            fine_tune_updates=payload["fine_tune_updates"],
            exploration_sigma=payload["exploration_sigma"],
            resiliences=payload["resiliences"],
            sessions=payload["sessions"],
            start_steps=payload["start_steps"],
        )
        pop._cpus = cpus
        pop.begin(steps)
        conn.send(("ready", len(pop)))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "round":
                _, step, tb = msg
                before = [
                    len(m.session.steps) if m.session is not None else 0
                    for m in pop.members
                ]
                t0 = time.perf_counter()
                status = pop.run_round(step, tb)
                elapsed = time.perf_counter() - t0
                conn.send(
                    ("ok", status, elapsed,
                     _step_events(pop.members, lo, before))
                )
            elif cmd == "snapshot":
                conn.send(("snapshot", _snapshot_bytes(payload, pop.members)))
            elif cmd == "finish":
                _, tb = msg
                pop._finish_quarantined(steps, tb)
                conn.send(("done", [m.session for m in pop.members]))
            elif cmd == "stop":
                return
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown shard command {cmd!r}")
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent gone
        pass
    finally:
        if pop is not None:
            pop.close()
        conn.close()


@dataclass
class _Shard:
    index: int
    lo: int
    hi: int
    process: mp.Process
    conn: object


class ShardedPopulation:
    """K-process lockstep population, bit-identical to ``shards=1``.

    Construction mirrors :meth:`PopulationTuner.from_deepcat`; ``tune``
    mirrors :meth:`PopulationTuner.tune` (sessions in member order,
    checkpoint cadence, final interrupt snapshot) but runs each round
    across ``shards`` persistent worker processes.

    The members live in the workers while ``tune`` runs, and finish
    brings back only their sessions.  After ``tune()``, ``tuners``,
    ``envs`` and ``resiliences`` hold the members as of the last spawn
    or snapshot (a checkpoint, or the interrupt snapshot); read the
    returned sessions, or the checkpoint, for the state at the end.
    """

    def __init__(
        self,
        tuners,
        envs,
        *,
        shards: int,
        fine_tune_updates: int = 2,
        exploration_sigma: float = 0.3,
        telemetry=None,
        resiliences=None,
        sessions=None,
        start_steps=None,
    ):
        from repro.telemetry.context import NULL_CONTEXT

        self.tuners = list(tuners)
        self.envs = list(envs)
        n = len(self.tuners)
        if len(self.envs) != n:
            raise ValueError("need one environment per tuner")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.resiliences = (
            list(resiliences) if resiliences is not None else [None] * n
        )
        self.sessions = (
            list(sessions) if sessions is not None else [None] * n
        )
        self.start_steps = (
            list(start_steps) if start_steps is not None else [0] * n
        )
        if not (
            len(self.resiliences) == len(self.sessions)
            == len(self.start_steps) == n
        ):
            raise ValueError("per-member argument lists must match in length")
        self.fine_tune_updates = fine_tune_updates
        self.exploration_sigma = exploration_sigma
        self.telemetry = telemetry if telemetry is not None else NULL_CONTEXT
        self.shard_ranges = shard_plan(n, shards)
        self.stats = ShardStats(shards=len(self.shard_ranges))
        self._shards: list[_Shard] = []
        self._ran = False
        self._next_steps = [
            len(s.steps) if s is not None else 0 for s in self.sessions
        ]

    def __len__(self) -> int:
        return len(self.tuners)

    @property
    def shards(self) -> int:
        return len(self.shard_ranges)

    # ------------------------------------------------------------ lifecycle

    def _spawn(self, steps: int) -> None:
        """Start every worker, then ship each its members.

        A worker's BLAS reads its thread count from the environment when
        numpy loads, which happens while the worker starts, so the
        pinning variables are set for the starts alone.  Members follow
        once all K processes are importing in parallel.
        """
        ctx = mp.get_context("spawn")
        pinned = blas_env(1)
        cpus = usable_cpus(len(self.shard_ranges))
        caller = {var: os.environ.get(var) for var in pinned}
        os.environ.update(pinned)
        try:
            for s, (lo, hi) in enumerate(self.shard_ranges):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker_main,
                    args=(child_conn, lo, steps, cpus),
                    name=f"repro-shard-{s}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._shards.append(
                    _Shard(index=s, lo=lo, hi=hi, process=proc,
                           conn=parent_conn)
                )
        finally:
            for var, value in caller.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        for sh in self._shards:
            self._send(sh, self._members_message(sh))
        for sh in self._shards:
            kind, count = self._recv(sh)
            if kind != "ready" or count != sh.hi - sh.lo:
                raise ShardCrash(
                    f"shard {sh.index} failed its handshake ({kind!r})"
                )

    def _members_message(self, sh: _Shard) -> bytes:
        """The pickled ``("members", payload)`` message for one shard;
        live telemetry pickles as the null context."""
        lo, hi = sh.lo, sh.hi
        return pickle.dumps(
            ("members", {
                "tuners": self.tuners[lo:hi],
                "envs": self.envs[lo:hi],
                "resiliences": self.resiliences[lo:hi],
                "sessions": self.sessions[lo:hi],
                "start_steps": self.start_steps[lo:hi],
                "fine_tune_updates": self.fine_tune_updates,
                "exploration_sigma": self.exploration_sigma,
            }),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _crash(self, sh: _Shard) -> ShardCrash:
        return ShardCrash(
            f"shard {sh.index} (members [{sh.lo}, {sh.hi})) died "
            f"with exit code {sh.process.exitcode}"
        )

    def _send(self, sh: _Shard, message) -> None:
        """Send a message tuple, or one already pickled to bytes; a dead
        worker's broken pipe raises the same :class:`ShardCrash` the
        receive path raises."""
        try:
            if isinstance(message, bytes):
                sh.conn.send_bytes(message)
            else:
                sh.conn.send(message)
        except (BrokenPipeError, OSError):
            raise self._crash(sh) from None

    def _recv(self, sh: _Shard, timeout_s: float | None = None):
        """Blocking receive that notices a dead worker instead of
        hanging forever on a half-open pipe."""
        deadline = (
            time.perf_counter() + timeout_s if timeout_s is not None else None
        )
        while True:
            try:
                if sh.conn.poll(_POLL_S):
                    return sh.conn.recv()
            except (EOFError, OSError):
                raise self._crash(sh) from None
            if not sh.process.is_alive():
                # One last poll: the worker may have replied and exited.
                if sh.conn.poll(0):
                    return sh.conn.recv()
                raise self._crash(sh)
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeoutError(f"shard {sh.index} reply timed out")

    def _shutdown(self) -> None:
        """Stop and join every started worker; safe to call twice and
        after any failure mode (the reaping tests exercise this)."""
        for sh in self._shards:
            try:
                if sh.process.is_alive():
                    sh.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for sh in self._shards:
            sh.process.join(timeout=_JOIN_S)
            if sh.process.is_alive():  # pragma: no cover - stuck worker
                sh.process.kill()
                sh.process.join(timeout=_JOIN_S)
            try:
                sh.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._shards = []

    # ----------------------------------------------------------------- tune

    def tune(
        self,
        steps: int = 5,
        time_budget_s: float | None = None,
        checkpoint=None,
    ):
        """Run every member for up to ``steps`` rounds across the shard
        fleet; returns the sessions in member order."""
        if steps <= 0:
            raise ValueError("steps must be positive")
        if self._ran:
            raise RuntimeError("this population already ran")
        self._ran = True
        try:
            self._spawn(steps)
            self._run_rounds(steps, time_budget_s, checkpoint)
        finally:
            self._shutdown()
        return self.sessions

    def _run_rounds(self, steps: int, time_budget_s, checkpoint) -> None:
        """Drive the spawned fleet through its rounds and finish; on
        ``KeyboardInterrupt`` drain the in-flight round and snapshot
        every worker into ``checkpoint`` before re-raising."""
        t = self.telemetry
        inflight: list[_Shard] = []
        try:
            with t.span(
                "population.tune", n=len(self), steps=steps,
                shards=self.shards,
            ):
                for step in range(steps):
                    t0 = time.perf_counter()
                    for sh in self._shards:
                        self._send(sh, ("round", step, time_budget_s))
                    inflight = list(self._shards)
                    replies = []
                    for sh in self._shards:
                        replies.append(self._recv(sh))
                        inflight.remove(sh)
                    round_wall = time.perf_counter() - t0
                    statuses = [r[1] for r in replies]
                    slowest = max(r[2] for r in replies)
                    stepped = any(s == "stepped" for s in statuses)
                    if stepped:
                        self.stats.rounds += 1
                        self.stats.round_s.append(round_wall)
                        self.stats.barrier_s += max(
                            0.0, round_wall - slowest
                        )
                    tail0 = time.perf_counter()
                    self._emit_round(step, replies, round_wall)
                    if (stepped and checkpoint is not None
                            and checkpoint.due(step + 1)):
                        self._checkpoint(checkpoint)
                    self.stats.tail_s += time.perf_counter() - tail0
                    if all(s == "complete" for s in statuses):
                        break
                self._finish(time_budget_s)
        except KeyboardInterrupt:
            self._drain(inflight)
            if checkpoint is not None:
                try:
                    self._snapshot_all()
                    self._refresh_manager(checkpoint)
                    checkpoint.save_if_stale(self.sessions, self._next_steps)
                except ShardCrash:  # pragma: no cover - race with kill
                    pass
            raise

    def _drain(self, inflight: list[_Shard]) -> None:
        """Absorb replies of a round interrupted mid-barrier, so worker
        state sits at a clean step boundary before snapshotting."""
        for sh in inflight:
            try:
                self._recv(sh, timeout_s=60.0)
            except (ShardCrash, TimeoutError):  # pragma: no cover
                pass

    def _emit_round(self, step: int, replies, round_wall: float) -> None:
        t = self.telemetry
        n_stepped = 0
        with ExitStack() as flushes:
            flushes.enter_context(t.logger.deferred())
            for reply in replies:
                for ev in reply[3]:
                    t.event("online-step", **ev)
                    t.count(
                        "online.steps_total",
                        help="online tuning steps served",
                        tuner=ev["tuner"],
                    )
                    n_stepped += 1
            if n_stepped:
                t.event(
                    "population-round",
                    step=step,
                    round_s=float(round_wall),
                    shards=self.shards,
                    members=n_stepped,
                )

    # ----------------------------------------------------- state collection

    def _snapshot_all(self) -> None:
        for sh in self._shards:
            self._send(sh, ("snapshot",))
        for sh in self._shards:
            kind, blob = self._recv(sh)
            if kind != "snapshot":  # pragma: no cover - protocol error
                raise ShardCrash(f"shard {sh.index} bad snapshot reply")
            self._absorb(sh, blob)

    def _absorb(self, sh: _Shard, blob: bytes) -> None:
        snap = pickle.loads(blob)
        for off, gi in enumerate(range(sh.lo, sh.hi)):
            self.tuners[gi] = snap["tuners"][off]
            self.envs[gi] = snap["envs"][off]
            self.sessions[gi] = snap["sessions"][off]
            self.resiliences[gi] = snap["resiliences"][off]
            self._next_steps[gi] = snap["next_steps"][off]

    def _refresh_manager(self, checkpoint) -> None:
        checkpoint.tuners = list(self.tuners)
        checkpoint.envs = list(self.envs)
        checkpoint.resiliences = list(self.resiliences)

    def _checkpoint(self, checkpoint) -> None:
        self._snapshot_all()
        self._refresh_manager(checkpoint)
        checkpoint.save(self.sessions, self._next_steps)

    def _finish(self, time_budget_s: float | None) -> None:
        for sh in self._shards:
            self._send(sh, ("finish", time_budget_s))
        for sh in self._shards:
            kind, sessions = self._recv(sh)
            if kind != "done":  # pragma: no cover - protocol error
                raise ShardCrash(f"shard {sh.index} bad finish reply")
            self.sessions[sh.lo:sh.hi] = sessions
        from repro.core.online import record_online_stage

        for session in self.sessions:
            if session is not None:
                record_online_stage(self.telemetry, session.tuner, session)
