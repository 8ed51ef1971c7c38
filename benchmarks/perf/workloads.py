"""The benchmark's five workloads, run one per subprocess by ``run.py``.

Every workload is a closed loop of *requests*: the next request starts
when the previous one has finished.  A request's timed part is what a
user of the tuner waits for; its untimed preparation (building a
population, spawning shard workers) is reported as set-up.  Request
``i`` is a pure function of ``--seed`` and ``i``, so the first requests
of a run (the digest requests) produce the same outputs on every run
with that seed, and their SHA-256 digest is printed for comparison
between commits.

The driver launches this file; to debug one workload by hand::

    PYTHONPATH=src python benchmarks/perf/workloads.py --workload tune \\
        --seed 0 --seconds 5 --mode run --fixture DIR --out DIR \\
        --t0 "$(python -c 'import time; print(time.monotonic())')"

where ``DIR`` for ``--fixture`` was filled by ``--mode fixture``.  The
last line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pickle
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import factory
from repro.core import persistence
from repro.core.deepcat import DeepCAT
from repro.core.population import PopulationTuner, population_seed_plan
from repro.core.resilience import ResiliencePolicy
from repro.core.result import sessions_equal
from repro.experiments.common import ExperimentScale
from repro.experiments.engine import ExperimentEngine, ResultCache, session_task
from repro.parallel import ShardedPopulation
from repro.telemetry import CostLedger, RunContext
from repro.telemetry.ledger import load_ledger
from repro.utils.logging import JsonlLogger

HIBENCH = ("WC", "TS", "PR", "KM")
POPULATION_WORKLOADS = ("TS", "KM")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SMOKE`` shrinks every one for the self-test."""

    fixture_iterations: int = 700
    train_iterations: int = 500
    tune_steps: int = 15
    members: int = 32
    population_steps: int = 20
    grid_offline_iterations: int = 300
    grid_online_steps: int = 5
    #: requests whose outputs are digested (always run, even past --seconds)
    digest_requests: dict = field(default_factory=lambda: {
        "train": 4, "tune": 10, "population": 1,
        "population-sharded": 1, "grid": 1,
    })


FULL = Sizes()
SMOKE = Sizes(
    fixture_iterations=150, train_iterations=150, tune_steps=3, members=4,
    population_steps=2, grid_offline_iterations=140, grid_online_steps=2,
    digest_requests={"train": 1, "tune": 1, "population": 1,
                     "population-sharded": 1, "grid": 1},
)


def derive_seed(*keys: int) -> int:
    """A 32-bit seed that is a pure function of ``keys``."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def fixture_seed(seed: int, workload: str) -> int:
    return derive_seed(seed, 0, HIBENCH.index(workload))


def build_fixture(seed: int, sizes: Sizes, workloads, out: Path) -> None:
    """Offline-train one DeepCAT per workload (replay capacity 2,048) and
    store it as ``<W>.npz`` (``save_tuner``) and ``<W>.pkl`` (the full
    tuner with its replay buffer)."""
    for w in workloads:
        s = fixture_seed(seed, w)
        env = factory.make_env(w, "D1", seed=s)
        tuner = DeepCAT.from_env(env, seed=s, buffer_capacity=2048)
        tuner.train_offline(env, sizes.fixture_iterations)
        persistence.save_tuner(tuner, out / f"{w}.npz")
        (out / f"{w}.pkl").write_bytes(
            pickle.dumps(tuner, protocol=pickle.HIGHEST_PROTOCOL)
        )


# ----------------------------------------------------------------- digests


def _canon(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return sorted((k, _canon(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def hash_session(h, session) -> None:
    """Feed every deterministic field of a session into ``h``
    (``recommendation_s`` is wall-clock and left out)."""
    h.update(repr((session.tuner, session.workload, session.dataset,
                   session.default_duration_s)).encode())
    for record in session.steps:
        fields = {k: _canon(v) for k, v in vars(record).items()
                  if k not in ("recommendation_s", "action")}
        h.update(repr(sorted(fields.items())).encode())
        h.update(np.ascontiguousarray(record.action, dtype=np.float64)
                 .tobytes())


# ---------------------------------------------------------------- requests


@dataclass
class Request:
    """What one request did: its timed work and the outputs to check."""

    units: int
    timed_s: float
    #: untimed preparation before the first timed unit
    pre_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    recommend_s: list = field(default_factory=list)
    sessions: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, fixture: Path, out: Path):
        self.seed = seed
        self.sizes = sizes
        self.fixture = fixture
        self.out = out

    def setup(self) -> None:
        """Once per process, before the first request."""

    def request(self, i: int) -> Request:
        raise NotImplementedError

    def check(self, req: Request) -> list[str]:
        """Correctness failures of one finished request."""
        return []

    def digest(self, h, req: Request) -> None:
        for session in req.sessions:
            hash_session(h, session)

    def probe(self) -> float:
        """Untimed preparation of one request, without running it."""
        return 0.0

    def finish(self, done: list[Request]) -> list[str]:
        """After the last request: end-of-run checks."""
        return []

    def layer_values(self, done: list[Request]) -> dict[str, float]:
        """Per-layer metrics read from the program's public statistics."""
        return {}

    def reset(self) -> None:
        """Start over with cold caches (between untraced/traced passes)."""

    def close(self) -> None:
        pass


class Train(Workload):
    """``repro train``: fresh DeepCAT + offline training + save."""

    name = "train"

    def request(self, i):
        w = HIBENCH[i % len(HIBENCH)]
        s = derive_seed(self.seed, 1, i)
        iters = self.sizes.train_iterations
        stamps: list[float] = []
        t0 = perf_counter()
        env = factory.make_env(w, "D1", seed=s)
        tuner = DeepCAT.from_env(env, seed=s)
        stamps.append(perf_counter())
        log = tuner.train_offline(
            env, iters, callback=lambda it, lg: stamps.append(perf_counter())
        )
        persistence.save_tuner(tuner, self.out / "train-model.npz")
        timed = perf_counter() - t0
        return Request(units=iters, timed_s=timed,
                       latencies_s=list(np.diff(stamps)),
                       extra={"log": log, "actor": tuner.agent.actor})

    def check(self, req):
        log = req.extra["log"]
        series = (log.rewards, log.min_q, log.durations, log.critic_losses)
        if len(log.rewards) != req.units:
            return [f"train: {len(log.rewards)} of {req.units} iterations"]
        if not all(np.isfinite(np.asarray(s, dtype=float)).all()
                   for s in series):
            return ["train: non-finite offline log"]
        return []

    def digest(self, h, req):
        log = req.extra["log"]
        for series in (log.rewards, log.min_q, log.durations,
                       log.critic_losses):
            h.update(np.asarray(series, dtype=np.float64).tobytes())
        for p in req.extra["actor"].parameters():
            h.update(np.ascontiguousarray(p.data).tobytes())


class Tune(Workload):
    """``repro tune --model M --fault-profile flaky --ledger L --events E``,
    once for each HiBench workload per request.  A request mixes all four
    because their sessions differ in cost (PR and KM sessions take ~1.4x
    as long as WC and TS): single-session latencies form two clusters
    whose 90th percentile moves far more than the median when the host
    slows."""

    name = "tune"

    def setup(self):
        self.models = {w: self.fixture / f"{w}.npz" for w in HIBENCH}
        self.ledger_path = self.out / "tune.ledger.jsonl"
        self.events_path = self.out / "tune.events.jsonl"

    def request(self, i):
        sessions, ledger_totals, timed = [], [], 0.0
        for k, w in enumerate(HIBENCH):
            s = derive_seed(self.seed, 2, i, k)
            self.events_path.unlink(missing_ok=True)
            t0 = perf_counter()
            tuner = persistence.load_tuner(self.models[w], seed=s)
            env = factory.make_env(w, "D1", seed=1000 + s,
                                   fault_profile="flaky")
            ctx = RunContext(logger=JsonlLogger(self.events_path),
                             ledger=CostLedger(self.ledger_path))
            session = tuner.tune_online(
                env, steps=self.sizes.tune_steps, telemetry=ctx,
                resilience=ResiliencePolicy.default(seed=s),
            )
            ctx.close()
            timed += perf_counter() - t0
            sessions.append(session)
            ledger_totals.append(
                load_ledger(self.ledger_path).total_tuning_seconds())
        return Request(
            units=sum(len(s.steps) for s in sessions), timed_s=timed,
            latencies_s=[timed],
            recommend_s=[r.recommendation_s for s in sessions
                         for r in s.steps],
            sessions=sessions, extra={"ledger_totals": ledger_totals},
        )

    def check(self, req):
        for session, total in zip(req.sessions, req.extra["ledger_totals"]):
            if len(session.steps) != self.sizes.tune_steps:
                return [f"tune: {len(session.steps)} steps"]
            if total != session.total_tuning_seconds:
                return ["tune: ledger total != session total tuning seconds"]
        return []


class Population(Workload):
    """Lockstep ``PopulationTuner`` over forks of one pickled tuner."""

    name = "population"

    def setup(self):
        self.protos = {w: (self.fixture / f"{w}.pkl").read_bytes()
                       for w in POPULATION_WORKLOADS}
        self.fork = pickle.loads

    def members(self, i):
        """Workload, member seeds, forked tuners, and envs of request i."""
        w = POPULATION_WORKLOADS[i % len(POPULATION_WORKLOADS)]
        seeds = population_seed_plan(derive_seed(self.seed, 3, i),
                                     self.sizes.members)
        tuners = [self.fork(self.protos[w]) for _ in seeds]
        envs = [factory.make_env(w, "D1", seed=1000 + s) for s in seeds]
        return w, seeds, tuners, envs

    def probe(self):
        t0 = perf_counter()
        _, _, tuners, envs = self.members(0)
        PopulationTuner.from_deepcat(tuners, envs)
        return perf_counter() - t0

    def request(self, i):
        steps = self.sizes.population_steps
        t0 = perf_counter()
        w, seeds, tuners, envs = self.members(i)
        pop = PopulationTuner.from_deepcat(tuners, envs)
        t1 = perf_counter()
        pop.begin(steps)
        rounds = []
        for step in range(steps):
            r0 = perf_counter()
            status = pop.run_round(step)
            rounds.append(perf_counter() - r0)
            if status == "complete":
                break
        pop.finish(steps)
        timed = perf_counter() - t1
        return self._result(pop.sessions, t1 - t0, timed, rounds,
                            (w, seeds[0]))

    def _result(self, sessions, pre, timed, rounds, member0):
        return Request(
            units=sum(len(s.steps) for s in sessions), timed_s=timed,
            pre_s=pre, latencies_s=rounds,
            recommend_s=[r.recommendation_s for s in sessions
                         for r in s.steps],
            sessions=sessions, extra={"member0": member0},
        )

    def check(self, req):
        w, s = req.extra["member0"]
        expected = self.sizes.members * self.sizes.population_steps
        if req.units != expected:
            return [f"{self.name}: {req.units} of {expected} member-steps"]
        alone = self.fork(self.protos[w]).tune_online(
            factory.make_env(w, "D1", seed=1000 + s),
            steps=self.sizes.population_steps,
        )
        if not sessions_equal(req.sessions[0], alone):
            return [f"{self.name}: member 0 != its sequential tune_online"]
        return []


class PopulationSharded(Population):
    """The ``population`` inputs through ``ShardedPopulation(shards=2)``."""

    name = "population-sharded"
    shards = 2

    def _run(self, i, steps):
        t0 = perf_counter()
        w, seeds, tuners, envs = self.members(i)
        build = perf_counter() - t0
        sharded = ShardedPopulation(tuners, envs, shards=self.shards)
        t1 = perf_counter()
        sessions = sharded.tune(steps=steps)
        wall = perf_counter() - t1
        st = sharded.stats
        steady = sum(st.round_s) + st.tail_s
        return (w, seeds, sessions, st, build + (wall - steady), steady)

    def probe(self):
        return self._run(0, 1)[4]

    def request(self, i):
        w, seeds, sessions, st, pre, steady = self._run(
            i, self.sizes.population_steps
        )
        req = self._result(sessions, pre, steady, list(st.round_s),
                           (w, seeds[0]))
        req.extra["stats"] = st
        req.extra["spawn_s"] = pre
        return req

    def layer_values(self, done):
        stats = [r.extra["stats"] for r in done]
        rounds = [x for st in stats for x in st.round_s]
        return {
            "parallel.spawn_s": sum(r.extra["spawn_s"] for r in done),
            "parallel.rounds": sum(st.rounds for st in stats),
            "parallel.round_ms_p50": 1e3 * float(np.median(rounds)),
            "parallel.round_ms_max": 1e3 * max(rounds),
            "parallel.barrier_s": sum(st.barrier_s for st in stats),
            "parallel.tail_s": sum(st.tail_s for st in stats),
        }


class Grid(Workload):
    """``repro report``'s engine path: a jobs=2 grid of online-session
    cells, cold, then replayed warm from the result cache."""

    name = "grid"
    jobs = 2

    def setup(self):
        self.scale = ExperimentScale(
            name="perf-grid",
            offline_iterations=self.sizes.grid_offline_iterations,
            ottertune_samples=1, seeds=(self.seed,),
            online_steps=self.sizes.grid_online_steps,
        )
        self.cache_dir = self.out / "grid-cache"
        self._start()

    def _start(self):
        self.engine = ExperimentEngine(jobs=self.jobs,
                                       cache=ResultCache(self.cache_dir))

    def reset(self):
        self.close()
        self._start()

    def tasks(self, r):
        """Pass r: one workload x {DeepCAT, CDBTune} x two seeds; passes
        0-3 are the {WC,TS,PR,KM} x tuners x {S, S+1} grid."""
        w = HIBENCH[r % len(HIBENCH)]
        s = self.seed + 2 * (r // len(HIBENCH))
        return [session_task(workload=w, dataset="D1", tuner=t, seed=seed,
                             scale=self.scale)
                for t in ("DeepCAT", "CDBTune") for seed in (s, s + 1)]

    def request(self, r):
        tasks = self.tasks(r)
        before = dataclasses.replace(self.engine.stats)
        t0 = perf_counter()
        sessions = self.engine.run(tasks)
        timed = perf_counter() - t0
        after = self.engine.stats
        return Request(
            units=len(tasks), timed_s=timed, latencies_s=[timed],
            recommend_s=[x.recommendation_s for s in sessions
                         for x in s.steps],
            sessions=sessions,
            extra={"tasks": tasks,
                   "compute_s": after.compute_seconds - before.compute_seconds,
                   "misses": after.cache_misses - before.cache_misses},
        )

    def check(self, req):
        if req.extra["misses"] != len(req.extra["tasks"]):
            return ["grid: cold pass served cells from the cache"]
        return []

    def finish(self, done):
        tasks = [t for r in done for t in r.extra["tasks"]]
        cold = [s for r in done for s in r.sessions]
        before = dataclasses.replace(self.engine.stats)
        t0 = perf_counter()
        warm = self.engine.run(tasks)
        self.warm_s = perf_counter() - t0
        self.warm_hits = self.engine.stats.cache_hits - before.cache_hits
        failures = []
        if not all(sessions_equal(a, b) for a, b in zip(cold, warm)):
            failures.append("grid: warm pass != cold pass")
        if self.warm_hits != len(tasks):
            failures.append("grid: warm pass missed the cache")
        if self.engine.stats.quarantined_tasks:
            failures.append("grid: quarantined cells")
        return failures

    def layer_values(self, done):
        cold_s = sum(r.timed_s for r in done)
        compute_s = sum(r.extra["compute_s"] for r in done)
        cells = sum(r.units for r in done)
        st = self.engine.stats
        return {
            "engine.cold_s": cold_s,
            "engine.warm_s": self.warm_s,
            "engine.compute_s": compute_s,
            "engine.overhead_s": st.overhead_seconds,
            "engine.parallel_efficiency": compute_s / (cold_s * self.jobs),
            "engine.cache_hit_ratio": self.warm_hits / cells,
            "engine.task_failures": st.task_failures,
            "engine.pool_rebuilds": st.pool_rebuilds,
        }

    def close(self):
        self.engine.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in
             (Train, Tune, Population, PopulationSharded, Grid)}


# ------------------------------------------------------------------- runs


@dataclass
class Tally:
    """Everything one pass over requests measured."""

    requests: list = field(default_factory=list)
    units: int = 0
    failed_units: int = 0
    timed_s: float = 0.0
    wall_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    recommend_s: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digest: str = ""

    def add(self, req: Request, failures: list[str]) -> None:
        self.units += req.units
        self.timed_s += req.timed_s
        self.wall_s += req.pre_s + req.timed_s
        self.latencies_s += req.latencies_s
        self.recommend_s += req.recommend_s
        if failures:
            self.failed_units += req.units
            self.failures += failures


def run_pass(w: Workload, n_digest: int, seconds: float | None,
             recorder=None) -> Tally:
    """Run requests 0, 1, ... until ``n_digest`` are done and, when
    ``seconds`` is set, until that much wall clock has passed."""
    tally = Tally()
    h = hashlib.sha256()
    start = perf_counter()
    i = 0
    while i < n_digest or (
        seconds is not None and perf_counter() - start < seconds
    ):
        try:
            if recorder is not None:
                with recorder.active():
                    req = w.request(i)
            else:
                req = w.request(i)
        except Exception as exc:  # a failed request is a measured outcome
            tally.failures.append(f"{w.name}: request {i}: "
                                  f"{type(exc).__name__}: {exc}")
            tally.failed_units += 1
            tally.units += 1
            i += 1
            continue
        tally.add(req, w.check(req))
        if i < n_digest:
            w.digest(h, req)
        tally.requests.append(req)
        i += 1
    tally.digest = h.hexdigest()
    tally.failures += w.finish(tally.requests)
    return tally


#: per-layer metrics read from ShardStats / EngineStats (0 elsewhere)
STAT_METRICS = (
    "parallel.spawn_s", "parallel.rounds", "parallel.round_ms_p50",
    "parallel.round_ms_max", "parallel.barrier_s", "parallel.tail_s",
    "engine.cold_s", "engine.warm_s", "engine.compute_s",
    "engine.overhead_s", "engine.parallel_efficiency",
    "engine.cache_hit_ratio", "engine.task_failures", "engine.pool_rebuilds",
)


def percentile_ms(values, q) -> float:
    return 1e3 * float(np.percentile(values, q)) if values else 0.0


def trace_values(recorder, plain: Tally, traced: Tally,
                 stats: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of a ``--trace`` run (0 where the layer
    did not run in this process).  ``stats`` are the workload's
    :meth:`Workload.layer_values` from the untraced pass."""
    from layers import TARGETS, layer_totals

    totals = layer_totals(recorder.spans)
    c = recorder.counters

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    values: dict[str, float] = {}
    for name in {name for name, _ in TARGETS} | {"core.fork"}:
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = totals.get(name, {}).get("self_s", 0.0)
    values["twinq.candidates_per_call"] = (
        c["twinq.candidates"] / calls("twinq") if calls("twinq") else 0.0)
    values["twinq.accept_ratio"] = (
        c["twinq.accepted"] / calls("twinq") if calls("twinq") else 0.0)
    values["sim.evaluate_batch.rows"] = c["sim.evaluate_batch.rows"]
    values["sim.failed_ratio"] = (
        c["sim.failed"] / c["sim.results"] if c["sim.results"] else 0.0)
    values["replay.high_fraction"] = (
        c["replay.high_sum"] / calls("replay.sample")
        if calls("replay.sample") else 0.0)
    attempts = [r.attempts for q in traced.requests for s in q.sessions
                for r in s.steps]
    values["resilience.retry_ratio"] = (
        (sum(attempts) - len(attempts)) / sum(attempts) if attempts else 0.0)
    values["online.recommend_ms_p50"] = percentile_ms(plain.recommend_s, 50)
    values["online.recommend_ms_p99"] = percentile_ms(plain.recommend_s, 99)
    values.update(dict.fromkeys(STAT_METRICS, 0.0))
    values.update(stats)
    attributed = sum(t["self_s"] for t in totals.values())
    values["traced_wall_s"] = traced.wall_s
    values["unattributed_s"] = traced.wall_s - attributed
    values["trace_overhead"] = traced.wall_s / plain.wall_s - 1.0
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("run", "probe", "trace", "fixture"),
                   required=True)
    p.add_argument("--fixture", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--t0", type=float, default=None,
                   help="driver's time.monotonic() when it started us")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--fixture-workloads", default=",".join(HIBENCH))
    args = p.parse_args(argv)
    sizes = SMOKE if args.smoke else FULL
    args.out.mkdir(parents=True, exist_ok=True)
    if args.mode == "fixture":
        build_fixture(args.seed, sizes, args.fixture_workloads.split(","),
                      args.fixture)
        return 0

    w = WORKLOADS[args.workload](args.seed, sizes, args.fixture, args.out)
    w.setup()
    ready_s = time.monotonic() - args.t0
    n_digest = sizes.digest_requests[w.name]
    result: dict = {"workload": w.name}
    try:
        if args.mode == "probe":
            result["setup_s"] = ready_s + w.probe()
        elif args.mode == "run":
            tally = run_pass(w, n_digest, args.seconds)
            result.update(_summary(tally))
            result["setup_s"] = ready_s + tally.requests[0].pre_s \
                if tally.requests else ready_s
        else:
            from layers import Recorder

            plain = run_pass(w, n_digest, None)
            stats = w.layer_values(plain.requests)
            w.reset()
            recorder = Recorder()
            if hasattr(w, "fork"):
                w.fork = recorder.wrap("core.fork", w.fork)
            recorder.install()
            try:
                traced = run_pass(w, n_digest, None, recorder)
            finally:
                recorder.uninstall()
            recorder.save_jsonl(args.out / "trace.jsonl")
            result.update(_summary(plain))
            result["units"] += traced.units
            result["failed_units"] += traced.failed_units
            result["failures"] += traced.failures
            if traced.digest != plain.digest:
                result["failures"].append(
                    f"{w.name}: traced outputs differ from untraced")
            result["layers"] = trace_values(recorder, plain, traced, stats)
    finally:
        w.close()
    print(json.dumps(result))
    return 0


def _summary(t: Tally) -> dict:
    lat = t.latencies_s
    return {
        "units": t.units,
        "failed_units": t.failed_units,
        "timed_s": t.timed_s,
        "requests": len(t.requests),
        "latency_samples": len(lat),
        "latency_ms_p50": percentile_ms(lat, 50),
        "latency_ms_p90": percentile_ms(lat, 90),
        "digest": t.digest,
        "failures": t.failures,
    }


if __name__ == "__main__":
    sys.exit(main())
