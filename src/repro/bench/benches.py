"""The micro-benchmark suite: one hot operation per benchmark.

Each benchmark isolates one hot operation (the same layers
``benchmarks/perf --trace`` attributes time to) so a change can be
pinned to a layer.  The end-to-end stages of the tuner, offline
training and online tuning, are measured by ``benchmarks/perf``
instead.  Everything is seeded, so two runs on the same machine measure
the same work — the only variable is the code under test.

Setup cost (building environments, pre-training models, filling replay
pools) happens in the factory, outside the timed region.  One repetition
loops ``items`` inner operations because the single operations run in
micro- to milliseconds, far below timer jitter.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

from repro.bench.registry import bench

_SEED = 1234


def _make_env(seed: int = _SEED):
    from repro.factory import make_env

    return make_env("WC", "D1", seed=seed)


def _trained_deepcat(iterations: int):
    from repro.core.deepcat import DeepCAT

    env = _make_env()
    tuner = DeepCAT.from_env(env, seed=_SEED)
    tuner.train_offline(env, iterations)
    return tuner


def _fill_buffer(buffer, env, n: int) -> None:
    from repro.replay.base import Transition

    rng = np.random.default_rng(_SEED)
    dim = env.state.shape[0]
    act_dim = env.space.dim
    for _ in range(n):
        reward = float(rng.uniform(-1.0, 1.0))
        buffer.push(
            Transition(
                state=rng.uniform(0.0, 1.0, dim),
                action=rng.uniform(0.0, 1.0, act_dim),
                reward=reward,
                next_state=rng.uniform(0.0, 1.0, dim),
            )
        )


@bench("sim.step", items=50,
       description="simulator evaluation of one configuration")
def _bench_sim_step():
    env = _make_env()
    rng = np.random.default_rng(_SEED)
    actions = [env.space.sample_vector(rng) for _ in range(50)]

    def run() -> None:
        for action in actions:
            env.step(action)

    return run


@bench("td3.update", items=25,
       description="one TD3 gradient update on a fixed batch")
def _bench_td3_update():
    from repro.core.deepcat import DeepCAT

    env = _make_env()
    tuner = DeepCAT.from_env(env, seed=_SEED)
    _fill_buffer(tuner.buffer, env, 256)
    batch = tuner.buffer.sample(tuner.agent.hp.batch_size)

    def run() -> None:
        for _ in range(25):
            tuner.agent.update(batch)

    return run


@bench("rdper.push", items=2000,
       description="RDPER transition routing into the dual pools")
def _bench_rdper_push():
    from repro.replay.base import Transition
    from repro.replay.rdper import RewardDrivenReplayBuffer

    env = _make_env()
    dim = env.state.shape[0]
    act_dim = env.space.dim
    rng = np.random.default_rng(_SEED)
    buffer = RewardDrivenReplayBuffer(
        capacity=4096, state_dim=dim, action_dim=act_dim, rng=rng
    )
    transitions = [
        Transition(
            state=rng.uniform(0.0, 1.0, dim),
            action=rng.uniform(0.0, 1.0, act_dim),
            reward=float(rng.uniform(-1.0, 1.0)),
            next_state=rng.uniform(0.0, 1.0, dim),
        )
        for _ in range(2000)
    ]

    def run() -> None:
        for tr in transitions:
            buffer.push(tr)

    return run


@bench("rdper.sample", items=500,
       description="RDPER dual-pool batch sampling (m=64)")
def _bench_rdper_sample():
    from repro.replay.rdper import RewardDrivenReplayBuffer

    env = _make_env()
    buffer = RewardDrivenReplayBuffer(
        capacity=4096,
        state_dim=env.state.shape[0],
        action_dim=env.space.dim,
        rng=np.random.default_rng(_SEED),
    )
    _fill_buffer(buffer, env, 1024)

    def run() -> None:
        for _ in range(500):
            buffer.sample(64)

    return run


@bench("per.sample", items=100,
       description="TD-error PER sample(128) + priority refresh")
def _bench_per_sample():
    from repro.replay.per import PrioritizedReplayBuffer

    env = _make_env()
    buffer = PrioritizedReplayBuffer(
        capacity=20_000,  # CDBTune's buffer
        state_dim=env.state.shape[0],
        action_dim=env.space.dim,
        rng=np.random.default_rng(_SEED),
    )
    _fill_buffer(buffer, env, 2000)
    td_errors = np.random.default_rng(_SEED + 1).normal(size=(100, 128))

    def run() -> None:
        for td in td_errors:
            batch = buffer.sample(128)
            buffer.update_priorities(batch.indices, td)

    return run


@bench("twinq.accept", items=20,
       description="Twin-Q Optimizer accept loop on one recommendation")
def _bench_twinq_accept():
    from repro.core.twinq import twin_q_optimize

    tuner = _trained_deepcat(iterations=40)
    env = _make_env(seed=_SEED + 1)
    state = env.state
    rng = np.random.default_rng(_SEED)
    actions = [env.space.sample_vector(rng) for _ in range(20)]

    def run() -> None:
        for action in actions:
            twin_q_optimize(
                tuner.agent,
                state,
                action,
                q_threshold=0.3,
                noise_sigma=0.1,
                rng=rng,
            )

    return run


@bench("codec.roundtrip", items=500,
       description="configuration vector decode + dict encode round-trip")
def _bench_codec_roundtrip():
    from repro.config.pipeline import build_pipeline_space

    space = build_pipeline_space()
    rng = np.random.default_rng(_SEED)
    vectors = [space.sample_vector(rng) for _ in range(500)]

    def run() -> None:
        for vec in vectors:
            space.encode(space.decode(vec))

    return run


@bench("codec.batch", items=500,
       description="columnar decode_batch + encode_batch of 500 vectors")
def _bench_codec_batch():
    from repro.config.pipeline import build_pipeline_space

    space = build_pipeline_space()
    rng = np.random.default_rng(_SEED)
    vectors = space.sample_vectors(rng, 500)

    def run() -> None:
        space.encode_batch(space.decode_batch(vectors))

    return run


@bench("sim.batch", items=50,
       description="batched simulator evaluation of 50 configurations")
def _bench_sim_batch():
    env = _make_env()
    sim = env.runner.simulator
    rng = np.random.default_rng(_SEED)
    vectors = env.space.sample_vectors(rng, 50)

    def run() -> None:
        sim.evaluate_batch(vectors, env.space)

    return run


@bench("rdper.sample_batch", items=200,
       description="RDPER allocation-free sampling at m=256")
def _bench_rdper_sample_batch():
    from repro.replay.rdper import RewardDrivenReplayBuffer

    env = _make_env()
    buffer = RewardDrivenReplayBuffer(
        capacity=4096,
        state_dim=env.state.shape[0],
        action_dim=env.space.dim,
        rng=np.random.default_rng(_SEED),
    )
    _fill_buffer(buffer, env, 1024)

    def run() -> None:
        for _ in range(200):
            buffer.sample(256)

    return run


@bench("cache.roundtrip", items=50,
       description="ResultCache store + load of one pickled session")
def _bench_cache_roundtrip():
    from repro.experiments.engine import ResultCache, TaskSpec

    root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    cache = ResultCache(root)
    payload = {"rewards": list(range(100)), "best_s": 123.4}
    tasks = [
        TaskSpec(kind="bench-dummy", params={"i": i}) for i in range(50)
    ]

    def run() -> None:
        for task in tasks:
            cache.store(task, payload)
            cache.load(task)

    def cleanup() -> None:
        shutil.rmtree(root, ignore_errors=True)

    return run, cleanup


@bench("telemetry.diagnostics", items=1000,
       description="one full diagnostics observe cycle (step+update+rdper)")
def _bench_diagnostics():
    from repro.telemetry.diagnostics import DiagnosticsEngine

    engine = DiagnosticsEngine()
    rng = np.random.default_rng(_SEED)
    rewards = rng.uniform(-1.0, 1.0, 1000)
    losses = rng.uniform(0.0, 1.0, 1000)
    betas = rng.uniform(0.4, 0.8, 1000)

    def run() -> None:
        for i in range(1000):
            engine.observe_update(float(losses[i]), mean_q=0.5)
            engine.observe_rdper(
                realized_beta=float(betas[i]), beta=0.6,
                staleness=i % 50, high_size=64, low_size=256,
            )
            engine.observe_step(
                step=i, reward=float(rewards[i]), success=True,
                q_pred=0.4, sigma=0.3,
            )
            engine.drain_alerts()

    return run


@bench("telemetry.ledger", items=1000,
       description="one streamed charge + counterfactual ledger cycle")
def _bench_ledger():
    from repro.telemetry.ledger import CostLedger

    root = tempfile.mkdtemp(prefix="repro-bench-ledger-")
    config = {f"knob.{i}": i * 7 for i in range(12)}
    state = {"ledger": CostLedger(os.path.join(root, "bench.ledger.jsonl"))}

    def run() -> None:
        led = state["ledger"]
        for i in range(1000):
            led.charge(
                "evaluation", 80.0 + i, step=i, tuner="bench",
                success=True, attempts=1, config=config,
            )
            led.counterfactual(
                "screening", 0.5, step=i, original_q=0.1, final_q=0.4,
            )
        led.close()
        # each repetition streams a fresh file, like a fresh run would
        state["ledger"] = CostLedger(
            os.path.join(root, "bench.ledger.jsonl")
        )

    def cleanup() -> None:
        state["ledger"].close()
        shutil.rmtree(root, ignore_errors=True)

    return run, cleanup


_POP_N = 64
_POP_STEPS = 5


@bench("population.step", items=_POP_N * _POP_STEPS,
       description="vectorized lockstep of 64 environments x 5 steps")
def _bench_population_step():
    from repro.envs.population import VectorTuningEnv

    envs = [_make_env(seed=_SEED + 7 + i) for i in range(_POP_N)]
    venv = VectorTuningEnv(envs)
    rng = np.random.default_rng(_SEED)
    action_mats = [
        np.stack([env.space.sample_vector(rng) for env in envs])
        for _ in range(_POP_STEPS)
    ]

    def run() -> None:
        for actions in action_mats:
            venv.step(actions)

    return run
