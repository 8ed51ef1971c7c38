"""Vectorized fast-path regression suite.

Two contracts guard the batch fast paths:

* **Bit-identity** (``-m determinism``): every batched code path —
  columnar codec, YARN placement, simulator evaluation, environment
  stepping, and the batched baselines — must produce byte-for-byte the
  same science as its scalar counterpart, including RNG stream order.
* **Allocation budgets**: the hot update/sample paths reuse preallocated
  workspaces; tracemalloc-enforced ceilings keep per-call allocations
  well below the pre-vectorization peaks in the allocation table of
  ``docs/performance.md`` (Layer 3).
"""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.hardware import CLUSTER_A, CLUSTER_B
from repro.cluster.yarn import plan_executors, plan_executors_batch
from repro.config.pipeline import build_pipeline_space
from repro.factory import make_env
from repro.sim.engine import SparkSimulator
from repro.workloads.registry import get_workload

_SEED = 1234


@pytest.fixture(scope="module")
def space():
    return build_pipeline_space()


@pytest.fixture(scope="module")
def vectors(space):
    """A mixed bag: uniform + LHS rows plus corner/center probes."""
    rng = np.random.default_rng(99)
    vecs = space.sample_vectors(rng, 120)
    vecs[:20] = space.latin_hypercube(rng, 20)
    vecs[5] = 0.0
    vecs[6] = 1.0
    vecs[7] = 0.5
    return vecs


# ------------------------------------------------------- determinism suite


@pytest.mark.determinism
def test_sample_vectors_matches_sequential_draws(space):
    """sample_vectors must consume the stream exactly like n scalar draws
    (the batched baselines rely on this for bit-identity)."""
    a = space.sample_vectors(np.random.default_rng(7), 50)
    rng = np.random.default_rng(7)
    b = np.stack([space.sample_vector(rng) for _ in range(50)])
    np.testing.assert_array_equal(a, b)


@pytest.mark.determinism
def test_codec_batch_matches_scalar(space, vectors):
    configs = space.decode_batch(vectors)
    for vec, cfg in zip(vectors, configs):
        assert cfg == space.decode(vec)
    np.testing.assert_array_equal(
        space.encode_batch(configs),
        np.stack([space.encode(c) for c in configs]),
    )
    cols = space.decode_columns(vectors)
    for name, col in cols.items():
        for i, cfg in enumerate(configs):
            assert col[i] == cfg[name], f"{name}[{i}]"


@pytest.mark.determinism
@pytest.mark.parametrize("cluster", [CLUSTER_A, CLUSTER_B],
                         ids=lambda c: c.name)
def test_placement_batch_matches_scalar(space, vectors, cluster):
    placements = plan_executors_batch(space.decode_columns(vectors), cluster)
    for i, cfg in enumerate(space.decode_batch(vectors)):
        assert placements.row(i) == plan_executors(cfg, cluster)


@pytest.mark.determinism
@pytest.mark.parametrize("workload", ["WC", "TS", "KM", "PR"])
def test_evaluate_batch_matches_scalar(space, vectors, workload):
    wl = get_workload(workload)
    sub = vectors[:60]
    sim_a = SparkSimulator(wl, wl.dataset("D2"), CLUSTER_B,
                           np.random.default_rng(7))
    sim_b = SparkSimulator(wl, wl.dataset("D2"), CLUSTER_B,
                           np.random.default_rng(7))
    scalar = [sim_a.evaluate(space.decode(v)) for v in sub]
    batch = sim_b.evaluate_batch(sub, space)
    assert sim_a.evaluation_count == sim_b.evaluation_count
    for a, b in zip(scalar, batch):
        assert a.duration_s == b.duration_s
        assert a.success == b.success
        assert a.failure_reason == b.failure_reason
        assert a.n_executors == b.n_executors
        assert a.executor_cores == b.executor_cores
        assert a.executor_heap_mb == b.executor_heap_mb
        np.testing.assert_array_equal(
            a.cpu_demand_per_node, b.cpu_demand_per_node
        )
        assert a.stages == b.stages


@pytest.mark.determinism
def test_evaluate_batch_matches_scalar_without_noise(space, vectors):
    """sigma=0 must draw zero noise samples on both paths."""
    wl = get_workload("TS")
    sub = vectors[:30]
    sim_a = SparkSimulator(wl, "D1", CLUSTER_A, np.random.default_rng(3),
                           noise_sigma=0.0)
    sim_b = SparkSimulator(wl, "D1", CLUSTER_A, np.random.default_rng(3),
                           noise_sigma=0.0)
    for a, b in zip(
        [sim_a.evaluate(space.decode(v)) for v in sub],
        sim_b.evaluate_batch(sub, space),
    ):
        assert a.duration_s == b.duration_s


@pytest.mark.determinism
@pytest.mark.parametrize("profile", [None, "flaky", "hostile"])
@pytest.mark.parametrize("seed", [11, 23, 37, 51, 68])
def test_env_step_batch_matches_scalar(vectors, profile, seed):
    """step_batch must interleave sim, state, and fault RNG streams in
    the exact scalar order — fault injection included — for every
    (seed, fault preset) cell, not just one lucky stream."""
    sub = vectors[20:50]
    env_a = make_env("TS", "D2", seed=seed, fault_profile=profile)
    env_b = make_env("TS", "D2", seed=seed, fault_profile=profile)
    outs_a = [env_a.step(v) for v in sub]
    outs_b = env_b.step_batch(sub)
    for a, b in zip(outs_a, outs_b):
        np.testing.assert_array_equal(a.state, b.state)
        np.testing.assert_array_equal(a.action, b.action)
        assert a.reward == b.reward
        np.testing.assert_array_equal(a.next_state, b.next_state)
        assert a.duration_s == b.duration_s
        assert a.success == b.success
        assert a.config == b.config
        assert a.faults == b.faults
    assert env_a.total_evaluation_seconds == env_b.total_evaluation_seconds
    np.testing.assert_array_equal(env_a.observation, env_b.observation)
    for ra, rb in zip(env_a.runner.history, env_b.runner.history):
        assert ra.report_line() == rb.report_line()


def _science(session):
    return [
        (s.step, s.duration_s, s.reward, s.success, s.config,
         tuple(s.action))
        for s in session.steps
    ]


@pytest.mark.determinism
def test_random_search_batch_matches_scalar_path():
    """The batched no-budget path must match the per-step loop (forced
    via an unreachable time budget)."""
    from repro.baselines.random_search import RandomSearchTuner

    batched = RandomSearchTuner(seed=5).tune_online(
        make_env("WC", "D1", seed=3), steps=10
    )
    scalar = RandomSearchTuner(seed=5).tune_online(
        make_env("WC", "D1", seed=3), steps=10, time_budget_s=1e12
    )
    assert _science(batched) == _science(scalar)


@pytest.mark.determinism
def test_bestconfig_batch_matches_scalar_path():
    from repro.baselines.bestconfig import BestConfigTuner

    # 13 steps with rounds of 5: two shrinks plus a partial round.
    batched = BestConfigTuner(seed=4, rounds_per_shrink=5).tune_online(
        make_env("TS", "D1", seed=9), steps=13
    )
    scalar = BestConfigTuner(seed=4, rounds_per_shrink=5).tune_online(
        make_env("TS", "D1", seed=9), steps=13, time_budget_s=1e12
    )
    assert _science(batched) == _science(scalar)


# ------------------------------------------- codec properties (hypothesis)


_SPACE = build_pipeline_space()
_INT_PARAMS = [p for p in _SPACE.parameters if type(p).__name__ ==
               "IntParameter"]
_LOG_PARAMS = [p for p in _SPACE.parameters if getattr(p, "log", False)]
_CAT_PARAMS = [p for p in _SPACE.parameters if hasattr(p, "choices")]

_unit = st.floats(0.0, 1.0, allow_nan=False)
_vector = st.lists(_unit, min_size=_SPACE.dim, max_size=_SPACE.dim).map(
    np.asarray
)
# Bias toward the codec's hard cases: exact cell boundaries of the
# categorical/bool grids and the [0, 1] endpoints.
_gridpoints = st.sampled_from(
    [0.0, 1.0, 0.5, 0.25, 1 / 3, 2 / 3, 0.75, 1e-12, 1.0 - 1e-12]
)
_corner_vector = st.lists(
    st.one_of(_gridpoints, _unit), min_size=_SPACE.dim,
    max_size=_SPACE.dim,
).map(np.asarray)


class TestCodecProperties:
    """Property suite for the columnar codec: scalar/batch agreement and
    per-kind invariants on boundary, categorical, and log-scale knobs."""

    @given(_corner_vector)
    @settings(max_examples=60, deadline=None)
    @pytest.mark.determinism
    def test_batch_decode_equals_scalar_everywhere(self, vec):
        config = _SPACE.decode(vec)
        assert _SPACE.decode_batch(vec[None, :])[0] == config
        np.testing.assert_array_equal(
            _SPACE.encode_batch([config])[0], _SPACE.encode(config)
        )

    @given(_corner_vector)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_idempotent(self, vec):
        """decode∘encode must be a projection: one round trip lands on a
        fixed point (grid snapping happens exactly once)."""
        config = _SPACE.decode(vec)
        again = _SPACE.decode(_SPACE.encode(config))
        assert again == config

    @given(_vector)
    @settings(max_examples=40, deadline=None)
    def test_decoded_values_respect_bounds(self, vec):
        config = _SPACE.decode(vec)
        for p in _INT_PARAMS:
            value = config[p.name]
            assert isinstance(value, int)
            assert p.low <= value <= p.high
        for p in _CAT_PARAMS:
            assert config[p.name] in p.choices

    @given(u=_unit)
    @settings(max_examples=30, deadline=None)
    def test_log_scale_knobs_decode_within_bounds(self, u):
        vec = np.full(_SPACE.dim, 0.5)
        idx = {p.name: i for i, p in enumerate(_SPACE.parameters)}
        for p in _LOG_PARAMS:
            vec[idx[p.name]] = u
        config = _SPACE.decode(vec)
        for p in _LOG_PARAMS:
            assert p.low <= config[p.name] <= p.high
            if u == 0.0:
                assert config[p.name] == pytest.approx(p.low)
            if u == 1.0:
                assert config[p.name] == pytest.approx(p.high)

    @given(lo=_unit, hi=_unit)
    @settings(max_examples=30, deadline=None)
    def test_log_scale_decode_is_monotone(self, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        idx = {p.name: i for i, p in enumerate(_SPACE.parameters)}
        v_lo = np.full(_SPACE.dim, 0.5)
        v_hi = v_lo.copy()
        for p in _LOG_PARAMS:
            v_lo[idx[p.name]] = lo
            v_hi[idx[p.name]] = hi
        c_lo, c_hi = _SPACE.decode(v_lo), _SPACE.decode(v_hi)
        for p in _LOG_PARAMS:
            assert c_lo[p.name] <= c_hi[p.name]

    @pytest.mark.determinism
    def test_categorical_boundaries_agree_scalar_vs_batch(self):
        """Exact cell edges are where floor-vs-round bugs live; sweep
        every categorical boundary coordinate through both paths."""
        idx = {p.name: i for i, p in enumerate(_SPACE.parameters)}
        probes = []
        for p in _CAT_PARAMS:
            n = len(p.choices)
            for k in range(n + 1):
                vec = np.full(_SPACE.dim, 0.5)
                vec[idx[p.name]] = min(k / n, 1.0)
                probes.append(vec)
        probes = np.stack(probes)
        batch = _SPACE.decode_batch(probes)
        for row, config in zip(probes, batch):
            assert config == _SPACE.decode(row)
            for p in _CAT_PARAMS:
                assert config[p.name] in p.choices


# --------------------------------------------------- allocation budgets

# A Python trace hook (tools/coverage_baseline.py) allocates frame
# bookkeeping inside the measured region, so tracemalloc budgets are
# meaningless under one.
_skip_if_traced = pytest.mark.skipif(
    sys.gettrace() is not None,
    reason="allocation budgets are unmeasurable under a trace hook",
)


def _measure_peak(fn, calls: int = 3) -> int:
    tracemalloc.start()
    tracemalloc.reset_peak()
    for _ in range(calls):
        fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


@_skip_if_traced
def test_td3_update_allocation_budget():
    """Warmed TD3 updates must stay far below the pre-vectorization
    ~934 kB/update peak (layer workspaces + in-place Adam)."""
    from repro.core.deepcat import DeepCAT
    from repro.replay.base import Transition

    env = make_env("WC", "D1", seed=_SEED)
    tuner = DeepCAT.from_env(env, seed=_SEED)
    rng = np.random.default_rng(_SEED)
    dim, act = env.state.shape[0], env.space.dim
    for _ in range(256):
        tuner.buffer.push(Transition(
            rng.uniform(size=dim), rng.uniform(size=act),
            float(rng.uniform(-1.0, 1.0)), rng.uniform(size=dim),
        ))
    batch = tuner.buffer.sample(tuner.agent.hp.batch_size)
    for _ in range(3):  # allocate the lazy workspaces
        tuner.agent.update(batch)
    # Remaining allocations are small per-call temporaries (TD targets,
    # critic input concat; ~175 kB measured); the ceiling sits well
    # under the ~934 kB pre-vectorization peak.
    peak = _measure_peak(lambda: tuner.agent.update(batch))
    assert peak < 400_000, f"td3.update allocated {peak} B"


@_skip_if_traced
def test_rdper_sample_allocation_budget():
    """Warmed RDPER sampling gathers into a pooled ReplayBatch; only the
    index draws allocate (pre-vectorization peak was ~55 kB/sample)."""
    from repro.replay.base import Transition
    from repro.replay.rdper import RewardDrivenReplayBuffer

    rng = np.random.default_rng(_SEED)
    buf = RewardDrivenReplayBuffer(4096, 9, 6, np.random.default_rng(1))
    for _ in range(1024):
        buf.push(Transition(
            rng.uniform(size=9), rng.uniform(size=6),
            float(rng.uniform(-1.0, 1.0)), rng.uniform(size=9),
        ))
    buf.sample(64)  # allocate the pooled batch
    peak = _measure_peak(lambda: buf.sample(64))
    assert peak < 16_384, f"rdper.sample allocated {peak} B"
