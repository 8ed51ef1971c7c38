"""Population equivalence suite: lockstep == sequential, bit for bit.

The population stack has three layers, each pinned here against its
scalar counterpart:

* :class:`repro.nn.population.StackedSequential` /
  :class:`repro.agents.population.PopulationTD3View` — the batched
  tensor math must match the per-agent forward passes exactly;
* :class:`repro.envs.population.VectorTuningEnv` — the shared
  simulator pass must consume every environment's RNG streams in the
  scalar order (hypothesis sweep over N, actions, and fault presets);
* :class:`repro.core.population.PopulationTuner` — full sessions
  (Twin-Q screening, resilience, fine-tune updates, checkpoints) must
  satisfy :func:`repro.core.result.sessions_equal` against N sequential
  :meth:`OnlineTuner.tune` runs.

A population that is fast but not bit-identical is a different
algorithm; these tests gate the feature.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.population import PopulationTD3View
from repro.agents.td3 import TD3Agent
from repro.core.deepcat import DeepCAT
from repro.core.population import (
    PopulationMember,
    PopulationTuner,
    population_seed_plan,
)
from repro.core.resilience import ResiliencePolicy
from repro.core.result import sessions_equal
from repro.envs.population import VectorTuningEnv
from repro.factory import make_env
from repro.nn.population import StackedSequential
from repro.replay.base import Transition
from repro.telemetry import RunContext
from repro.telemetry.diagnostics import DiagnosticsEngine
from repro.telemetry.ledger import CostLedger
from repro.utils.logging import TuningLogger

FAULT_PRESETS = (None, "flaky", "degraded", "hostile")


# ----------------------------------------------------------- helpers


def _member_envs(n, *, workload="TS", dataset="D2", fault_profile=None):
    return [
        make_env(
            workload, dataset, seed=1000 + s, fault_profile=fault_profile
        )
        for s in range(n)
    ]


def _prefill(tuner, env, n=20, seed=0):
    """Push ``n`` synthetic transitions so fine-tune updates engage."""
    rng = np.random.default_rng(seed ^ 0xABCDEF)
    dim, act = env.state.shape[0], env.space.dim
    for _ in range(n):
        tuner.buffer.push(
            Transition(
                state=rng.uniform(size=dim),
                action=rng.uniform(size=act),
                reward=float(rng.uniform(-1.0, 1.0)),
                next_state=rng.uniform(size=dim),
            )
        )


def _deepcats(n, envs, *, prefill=0, **kwargs):
    kwargs.setdefault("buffer_capacity", 512)
    tuners = []
    for s, env in enumerate(envs):
        tuner = DeepCAT.from_env(env, seed=s, **kwargs)
        if prefill:
            _prefill(tuner, env, n=prefill, seed=s)
        tuners.append(tuner)
    return tuners


def _assert_outcomes_equal(a, b):
    np.testing.assert_array_equal(a.state, b.state)
    np.testing.assert_array_equal(a.action, b.action)
    assert a.reward == b.reward
    np.testing.assert_array_equal(a.next_state, b.next_state)
    assert a.duration_s == b.duration_s
    assert a.success == b.success
    assert a.config == b.config
    assert a.faults == b.faults


# ------------------------------------------------- nn / agent layers


@pytest.mark.determinism
def test_stacked_sequential_matches_per_net_forward():
    rng = np.random.default_rng(0)
    agents = [TD3Agent(9, 32, np.random.default_rng(100 + i))
              for i in range(6)]
    stacked = StackedSequential([a.actor for a in agents])
    x = rng.uniform(-1.0, 1.0, (6, 17, 9))
    out = stacked.forward(x)
    for i, agent in enumerate(agents):
        np.testing.assert_array_equal(out[i], agent.actor.forward(x[i]))


@pytest.mark.determinism
def test_stacked_views_track_scalar_updates():
    """Per-agent fine-tune updates must write through to the stacked
    storage — a batched forward after a scalar update sees new weights."""
    agents = [TD3Agent(9, 32, np.random.default_rng(i)) for i in range(3)]
    stacked = StackedSequential([a.actor for a in agents])
    x = np.random.default_rng(1).uniform(size=(3, 4, 9))
    before = stacked.forward(x).copy()
    # Mutate agent 1's first layer in place, as Adam does.
    agents[1].actor.layers[0].weight.data -= 0.05
    after = stacked.forward(x)
    np.testing.assert_array_equal(after[0], before[0])
    np.testing.assert_array_equal(after[2], before[2])
    assert not np.array_equal(after[1], before[1])
    np.testing.assert_array_equal(after[1], agents[1].actor.forward(x[1]))


@pytest.mark.determinism
def test_population_view_matches_scalar_queries():
    n = 5
    agents = [TD3Agent(9, 32, np.random.default_rng(10 + i))
              for i in range(n)]
    view = PopulationTD3View(agents)
    rng = np.random.default_rng(2)
    states = rng.uniform(size=(n, 9))
    actions = rng.uniform(size=(n, 32))
    cands = rng.uniform(size=(n, 64, 32))

    acts = view.act(states)
    minqs = view.min_q(states, actions)
    rows = view.twin_q_rows(states, cands).copy()
    for i, agent in enumerate(agents):
        np.testing.assert_array_equal(
            acts[i], agent.act(states[i], explore=False)
        )
        assert minqs[i] == agent.min_q(states[i], actions[i])
        np.testing.assert_array_equal(
            rows[i], agent.twin_q_batch(states[i], cands[i])
        )


def test_population_view_rejects_shared_or_mismatched_agents():
    a = TD3Agent(9, 32, np.random.default_rng(0))
    with pytest.raises(ValueError, match="distinct"):
        PopulationTD3View([a, a])
    b = TD3Agent(7, 32, np.random.default_rng(1))
    with pytest.raises(ValueError, match="dimensions"):
        PopulationTD3View([a, b])
    with pytest.raises(ValueError, match="at least one"):
        PopulationTD3View([])


# --------------------------------------------- stacked fine-tune layer

def _stack_hp():
    from repro.agents.base import AgentHyperParams

    return AgentHyperParams(batch_size=16)


def _learners(n, *, pre_updates=(), reward_scale=(), fill=40):
    """``n`` TD3 agents with RDPER buffers holding ``fill`` transitions.

    ``pre_updates[i]`` scalar updates run on member ``i`` first, so
    members start at different actor phases and Adam step counts;
    ``reward_scale[i]`` multiplies member ``i``'s rewards (large rewards
    force gradient clipping)."""
    from repro.replay.rdper import RewardDrivenReplayBuffer

    hp = _stack_hp()
    agents, buffers = [], []
    for i in range(n):
        agent = TD3Agent(9, 32, np.random.default_rng(100 + i), hp)
        buffer = RewardDrivenReplayBuffer(
            256, 9, 32, np.random.default_rng(200 + i),
            reward_threshold=0.0,
        )
        rng = np.random.default_rng(300 + i)
        scale = reward_scale[i] if i < len(reward_scale) else 1.0
        for _ in range(fill):
            buffer.push(Transition(
                state=rng.uniform(size=9),
                action=rng.uniform(size=32),
                reward=scale * float(rng.uniform(-1.0, 1.0)),
                next_state=rng.uniform(size=9),
            ))
        for _ in range(pre_updates[i] if i < len(pre_updates) else 0):
            agent.update(buffer.sample(hp.batch_size))
        agents.append(agent)
        buffers.append(buffer)
    return agents, buffers


def _learner_state(agent, buffer) -> dict:
    """Every bit of a learner's state an update can touch."""
    state = {"updates_done": agent.updates_done}
    for net in ("actor", "critic1", "critic2",
                "actor_target", "critic1_target", "critic2_target"):
        for k, p in enumerate(getattr(agent, net).parameters()):
            state[f"{net}.{k}.data"] = p.data.tobytes()
            state[f"{net}.{k}.grad"] = p.grad.tobytes()
    for name in ("actor_opt", "critic1_opt", "critic2_opt"):
        opt = getattr(agent, name)
        state[f"{name}.t"] = opt._t
        for k, (m, v) in enumerate(zip(opt._m, opt._v)):
            state[f"{name}.{k}.m"] = m.tobytes()
            state[f"{name}.{k}.v"] = v.tobytes()
    for name, rng in (("smooth", agent._smooth_rng), ("agent", agent._rng),
                      ("noise", agent.noise._rng), ("buffer", buffer._rng)):
        state[f"rng.{name}"] = rng.bit_generator.state
    return state


def _blocks(n, size=4):
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _assert_learners_equal(pairs_a, pairs_b):
    for (agent_a, buf_a), (agent_b, buf_b) in zip(pairs_a, pairs_b):
        a, b = _learner_state(agent_a, buf_a), _learner_state(agent_b, buf_b)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == b[key], key


@pytest.mark.determinism
@pytest.mark.parametrize("n", [1, 3, 5])
def test_update_block_matches_scalar_updates(n):
    """K stacked block updates == K scalar ``TD3Agent.update`` calls per
    member, bit for bit, with members at different Adam step counts
    (0, 2 and 4 earlier updates share the actor phase).  N=5 is a block
    of four plus a block of one."""
    updates = 3
    pre = [0, 2, 4, 2, 0][:n]
    ref_agents, ref_buffers = _learners(n, pre_updates=pre)
    agents, buffers = _learners(n, pre_updates=pre)
    view = PopulationTD3View(agents)

    ref_diags = [
        [agent.update(buffer.sample(agent.hp.batch_size))
         for _ in range(updates)]
        for agent, buffer in zip(ref_agents, ref_buffers)
    ]
    diags = []
    for rows in _blocks(n):
        diags.extend(view.update_block(rows, buffers[rows], updates))

    _assert_learners_equal(zip(agents, buffers),
                           zip(ref_agents, ref_buffers))
    for got, ref in zip(diags, ref_diags):
        assert [(d["critic_loss"], d["mean_q"], d["actor_updated"])
                for d in got] == [
            (d["critic_loss"], d["mean_q"], d["actor_updated"]) for d in ref
        ]


@pytest.mark.determinism
def test_update_block_actor_phases_and_clipping():
    """A block per actor phase (odd and even update counts), and
    gradient clipping on some rows only: member 1's rewards are scaled
    so its critic gradients exceed ``max_grad_norm`` while its block
    neighbours' stay below it."""
    pre = [1, 1, 2, 2]
    scale = [1.0, 200.0, 1.0, 200.0]
    ref_agents, ref_buffers = _learners(4, pre_updates=pre,
                                        reward_scale=scale)
    agents, buffers = _learners(4, pre_updates=pre, reward_scale=scale)
    view = PopulationTD3View(agents)
    for agent, buffer in zip(ref_agents, ref_buffers):
        for _ in range(3):
            agent.update(buffer.sample(agent.hp.batch_size))
    for rows in (slice(0, 2), slice(2, 4)):
        view.update_block(rows, buffers[rows], 3)
    _assert_learners_equal(zip(agents, buffers),
                           zip(ref_agents, ref_buffers))

    def critic2_norm(agent):
        return float(np.sqrt(sum(np.sum(p.grad**2)
                                 for p in agent.critic2.parameters())))

    max_norm = agents[0].critic2_opt.max_grad_norm
    assert np.isclose(critic2_norm(agents[1]), max_norm)
    assert np.isclose(critic2_norm(agents[3]), max_norm)
    assert critic2_norm(agents[0]) < max_norm
    assert critic2_norm(agents[2]) < max_norm


@pytest.mark.determinism
def test_update_block_then_scalar_updates_write_through():
    """A member updated by its own scalar ``update`` after adoption (one
    no block took) stays bit-identical and visible to the stack."""
    ref_agents, ref_buffers = _learners(3)
    agents, buffers = _learners(3)
    view = PopulationTD3View(agents)
    for agent, buffer in zip(ref_agents, ref_buffers):
        for _ in range(4):
            agent.update(buffer.sample(agent.hp.batch_size))
    view.update_block(slice(0, 3), buffers, 2)
    for agent, buffer in zip(agents, buffers):
        for _ in range(2):
            agent.update(buffer.sample(agent.hp.batch_size))
    _assert_learners_equal(zip(agents, buffers),
                           zip(ref_agents, ref_buffers))
    x = np.random.default_rng(5).uniform(size=(3, 2, 9))
    acts = view.actor.forward(x)
    for i, agent in enumerate(ref_agents):
        np.testing.assert_array_equal(acts[i], agent.actor.forward(x[i]))


@pytest.mark.determinism
@pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
def test_adopted_members_pickle_and_copy(clone):
    """An adopted member copies as an ordinary agent: same bits, its own
    memory, and it keeps learning exactly like the uncopied reference."""
    import copy
    import pickle

    ref_agents, ref_buffers = _learners(2)
    agents, buffers = _learners(2)
    view = PopulationTD3View(agents)
    view.update_block(slice(0, 2), buffers, 2)
    for agent, buffer in zip(ref_agents, ref_buffers):
        for _ in range(2):
            agent.update(buffer.sample(agent.hp.batch_size))
    if clone == "pickle":
        copied = pickle.loads(pickle.dumps((agents[1], buffers[1])))
    else:
        copied = copy.deepcopy((agents[1], buffers[1]))
    _assert_learners_equal([copied], [(ref_agents[1], ref_buffers[1])])
    for p in copied[0].actor.parameters():
        assert not np.shares_memory(p.data, view.actor.data)
    for agent, buffer in (copied, (ref_agents[1], ref_buffers[1])):
        agent.update(buffer.sample(agent.hp.batch_size))
    _assert_learners_equal([copied], [(ref_agents[1], ref_buffers[1])])


@pytest.mark.determinism
def test_population_fine_tune_mixed_members_matches_sequential():
    """Blocks form only over members that can join one: here a member
    whose buffer cannot sample a batch yet, members at another actor
    phase, and a uniform-replay member sit between RDPER members."""
    from repro.replay.uniform import UniformReplayBuffer

    def build():
        envs = _member_envs(6)
        tuners = _deepcats(6, envs, hp=_stack_hp())
        for s, (tuner, env) in enumerate(zip(tuners, envs)):
            if s == 4:
                tuner.buffer = UniformReplayBuffer(
                    512, env.state_dim, env.action_dim,
                    np.random.default_rng(77),
                )
            _prefill(tuner, env, n=5 if s == 2 else 20, seed=s)
            if s in (1, 5):  # one scalar update: the other actor phase
                tuner.agent.update(
                    tuner.buffer.sample(tuner.agent.hp.batch_size)
                )
        return envs, tuners

    envs, tuners = build()
    seq = [t.tune_online(e, steps=4) for t, e in zip(tuners, envs)]
    envs, tuners = build()
    pop = PopulationTuner.from_deepcat(tuners, envs).tune(steps=4)
    for a, b in zip(pop, seq):
        assert sessions_equal(a, b)


# ------------------------------------------------- environment layer


@pytest.mark.determinism
@given(
    n=st.integers(min_value=1, max_value=16),
    profile=st.sampled_from(FAULT_PRESETS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_vector_env_step_matches_sequential(n, profile, seed):
    """One shared population pass == N scalar env.step calls, field for
    field, across every fault preset and random knob configurations."""
    envs_a = _member_envs(n, fault_profile=profile)
    envs_b = _member_envs(n, fault_profile=profile)
    venv = VectorTuningEnv(envs_a)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        actions = np.stack(
            [env.space.sample_vector(rng) for env in envs_b]
        )
        batch = venv.step(actions)
        scalar = [env.step(actions[i]) for i, env in enumerate(envs_b)]
        for a, b in zip(batch, scalar):
            _assert_outcomes_equal(a, b)
    for ea, eb in zip(envs_a, envs_b):
        assert ea.total_evaluation_seconds == eb.total_evaluation_seconds
        np.testing.assert_array_equal(ea.observation, eb.observation)


@pytest.mark.determinism
def test_vector_env_partial_indices_step_only_selected_members():
    envs_a = _member_envs(4)
    envs_b = _member_envs(4)
    venv = VectorTuningEnv(envs_a)
    rng = np.random.default_rng(3)
    actions = np.stack([env.space.sample_vector(rng) for env in envs_a])
    idle_evals = envs_a[2].runner.simulator.evaluation_count
    out = venv.step(actions[[1, 3]], indices=[1, 3])
    assert len(out) == 2
    _assert_outcomes_equal(out[0], envs_b[1].step(actions[1]))
    _assert_outcomes_equal(out[1], envs_b[3].step(actions[3]))
    # Unselected members' streams must be untouched.
    np.testing.assert_array_equal(envs_a[0].observation,
                                  envs_b[0].observation)
    assert envs_a[2].runner.simulator.evaluation_count == idle_evals


def test_vector_env_rejects_duplicate_envs():
    env = make_env("WC", "D1", seed=1)
    with pytest.raises(ValueError, match="distinct"):
        VectorTuningEnv([env, env])


# -------------------------------------------------- seed plan


def test_population_seed_plan_is_spawn_derived_and_stable():
    plan = population_seed_plan(42, 8)
    assert len(plan) == 8
    assert len(set(plan)) == 8
    assert plan == population_seed_plan(42, 8)
    # Prefix stability: growing the population keeps existing members.
    assert population_seed_plan(42, 4) == plan[:4]
    expected = [
        int(c.generate_state(1, dtype=np.uint32)[0])
        for c in np.random.SeedSequence(42).spawn(8)
    ]
    assert plan == expected
    with pytest.raises(ValueError):
        population_seed_plan(42, 0)


# -------------------------------------------------- full tuner layer


def _sequential_sessions(n, *, fault_profile=None, resilience=False,
                         prefill=0, steps=4, fine_tune_updates=0,
                         telemetry=None, **deepcat_kwargs):
    envs = _member_envs(n, fault_profile=fault_profile)
    tuners = _deepcats(n, envs, prefill=prefill, **deepcat_kwargs)
    sessions = []
    for s, (tuner, env) in enumerate(zip(tuners, envs)):
        res = (
            ResiliencePolicy.default(seed=s) if resilience else None
        )
        sessions.append(
            tuner.tune_online(
                env, steps=steps, fine_tune_updates=fine_tune_updates,
                resilience=res, telemetry=telemetry,
            )
        )
    return sessions


def _population_sessions(n, *, fault_profile=None, resilience=False,
                         prefill=0, steps=4, fine_tune_updates=0,
                         telemetry=None, **deepcat_kwargs):
    envs = _member_envs(n, fault_profile=fault_profile)
    tuners = _deepcats(n, envs, prefill=prefill, **deepcat_kwargs)
    resiliences = (
        [ResiliencePolicy.default(seed=s) for s in range(n)]
        if resilience
        else None
    )
    population = PopulationTuner.from_deepcat(
        tuners, envs, fine_tune_updates=fine_tune_updates,
        resiliences=resiliences, telemetry=telemetry,
    )
    return population.tune(steps=steps)


@pytest.mark.determinism
@pytest.mark.parametrize("profile", FAULT_PRESETS,
                         ids=lambda p: p or "clean")
def test_population_tune_matches_sequential(profile):
    """The tentpole contract: a population of 3 == 3 sequential
    ``tune_online`` runs under every fault preset.

    Faulted presets run with the default resilience policy, as every
    production entry point does (NaN observations must be sanitized
    before they reach the actor).
    """
    resilience = profile is not None
    seq = _sequential_sessions(3, fault_profile=profile,
                               resilience=resilience)
    pop = _population_sessions(3, fault_profile=profile,
                               resilience=resilience)
    for a, b in zip(pop, seq):
        assert sessions_equal(a, b)


@pytest.mark.determinism
def test_population_tune_matches_sequential_with_resilience():
    """Retries, watchdog aborts, state repairs, and guard fallbacks must
    interleave RNG identically under the hostile preset."""
    seq = _sequential_sessions(3, fault_profile="hostile",
                               resilience=True, steps=5)
    pop = _population_sessions(3, fault_profile="hostile",
                               resilience=True, steps=5)
    for a, b in zip(pop, seq):
        assert sessions_equal(a, b)
    assert any(s.attempts > 1 or s.aborted
               for session in seq for s in session.steps), (
        "hostile preset produced no resilience interventions; the test "
        "no longer exercises the retry path"
    )


def _counters(ctx):
    return {
        (m["name"], tuple(map(tuple, m["labels"]))): m["state"]["value"]
        for m in ctx.metrics.state()["metrics"]
        if m["kind"] == "counter"
    }


def _fine_tune_kwargs():
    from repro.agents.base import AgentHyperParams

    return dict(fault_profile="hostile", resilience=True, steps=5,
                hp=AgentHyperParams(batch_size=16), prefill=20,
                fine_tune_updates=2)


@pytest.mark.determinism
def test_population_telemetry_counters_match_sequential():
    """The telemetry half of the contract: every counter a population
    emits equals the sequential runs' total.  Only the recommendation
    seconds differ; they are wall clock."""
    wall_clock = "online.recommendation_seconds_total"
    kwargs = dict(fault_profile="hostile", resilience=True, steps=5)
    seq_ctx, pop_ctx = RunContext.recording(), RunContext.recording()
    _sequential_sessions(3, telemetry=seq_ctx, **kwargs)
    _population_sessions(3, telemetry=pop_ctx, **kwargs)
    seq, pop = _counters(seq_ctx), _counters(pop_ctx)
    assert seq.keys() == pop.keys()
    assert any(name == "resilience.retries_total" for name, _ in seq)
    for key, value in seq.items():
        if key[0] != wall_clock:
            assert pop[key] == value, key


@pytest.mark.determinism
def test_population_fine_tune_counters_match_sequential():
    """The same with fine-tune updates, so the agent's update counters
    are compared too.  Counts must be equal.  A shared counter of
    seconds adds the members' steps round by round in a population and
    session by session in sequence, so it equals the sequential total up
    to that reordering of float additions; the per-member contexts of
    the next test compare every value exactly."""
    wall_clock = "online.recommendation_seconds_total"
    order_dependent = "online.evaluation_seconds_total"
    kwargs = _fine_tune_kwargs()
    seq_ctx, pop_ctx = RunContext.recording(), RunContext.recording()
    _sequential_sessions(3, telemetry=seq_ctx, **kwargs)
    _population_sessions(3, telemetry=pop_ctx, **kwargs)
    seq, pop = _counters(seq_ctx), _counters(pop_ctx)
    assert seq.keys() == pop.keys()
    names = {name for name, _ in seq}
    assert {"resilience.retries_total", "agent.updates_total",
            "agent.actor_updates_total"} <= names
    for key, value in seq.items():
        if key[0] == order_dependent:
            assert pop[key] == pytest.approx(value, rel=1e-12), key
        elif key[0] != wall_clock:
            assert pop[key] == value, key


class _EventList(TuningLogger):
    def __init__(self):
        self.events = []

    def event(self, kind, **fields):
        self.events.append((kind, fields))


def _member_context():
    return RunContext.recording(
        logger=_EventList(), diagnostics=DiagnosticsEngine(),
        ledger=CostLedger(),
    )


def _member_telemetry(ctx):
    """Everything a member's context recorded, minus wall clock and the
    ledger's member index (which only a population sets)."""
    events = [
        (kind, {k: v for k, v in fields.items() if k != "recommendation_s"})
        for kind, fields in ctx.logger.events
    ]
    metrics = {
        (m["kind"], m["name"], tuple(map(tuple, m["labels"]))): m["state"]
        for m in ctx.metrics.state()["metrics"]
        if m["name"] != "online.recommendation_seconds_total"
    }
    ledger = [
        {k: v for k, v in e.items()
         if k not in ("ts", "member")
         and not (k == "amount_s" and e["account"] == "recommendation")}
        for e in ctx.ledger.entries
    ]
    return events, metrics, ctx.diagnostics.summary(), ledger


@pytest.mark.determinism
def test_population_member_telemetry_matches_sequential():
    """Each member with its own recording context (metrics, diagnostics,
    events, ledger) records exactly what its sequential run records, in
    the same order: the diagnostics' EWMAs and so their alerts depend on
    the order of the push, sample and update telemetry."""
    kwargs = _fine_tune_kwargs()
    steps, n = kwargs.pop("steps"), 3
    seq_ctxs = [_member_context() for _ in range(n)]
    envs = _member_envs(n, fault_profile=kwargs["fault_profile"])
    tuners = _deepcats(n, envs, prefill=kwargs["prefill"], hp=kwargs["hp"])
    for s, (tuner, env) in enumerate(zip(tuners, envs)):
        tuner.tune_online(
            env, steps=steps, fine_tune_updates=kwargs["fine_tune_updates"],
            resilience=ResiliencePolicy.default(seed=s),
            telemetry=seq_ctxs[s],
        )

    pop_ctxs = [_member_context() for _ in range(n)]
    envs = _member_envs(n, fault_profile=kwargs["fault_profile"])
    tuners = _deepcats(n, envs, prefill=kwargs["prefill"], hp=kwargs["hp"])
    members = [
        PopulationMember(
            tuner=tuner.online_tuner(
                env, fine_tune_updates=kwargs["fine_tune_updates"],
                telemetry=pop_ctxs[s],
            ),
            env=env,
            resilience=ResiliencePolicy.default(seed=s),
        )
        for s, (tuner, env) in enumerate(zip(tuners, envs))
    ]
    PopulationTuner(members).tune(steps=steps)

    for seq_ctx, pop_ctx in zip(seq_ctxs, pop_ctxs):
        seq, pop = _member_telemetry(seq_ctx), _member_telemetry(pop_ctx)
        assert any(kind == "alert" for kind, _ in seq[0])
        assert seq[3], "the ledger recorded nothing"
        for got, want in zip(pop, seq):
            assert got == want


@pytest.mark.determinism
def test_population_stacked_telemetry_stream_matches_scalar(monkeypatch):
    """With one context shared by all members, the stacked blocks
    publish the same stream as scalar fine-tunes: every event, metric,
    diagnostics verdict and ledger entry, in the same order."""
    import repro.core.population as population_module

    def run():
        ctx = _member_context()
        _population_sessions(3, telemetry=ctx, **_fine_tune_kwargs())
        return _member_telemetry(ctx)

    stacked = run()
    monkeypatch.setattr(population_module, "_block_key", lambda tuner: None)
    scalar = run()
    assert scalar[1][("counter", "agent.updates_total",
                      (("agent", "td3"),))]["value"] > 0
    for got, want in zip(stacked, scalar):
        assert got == want


@pytest.mark.determinism
def test_population_tune_matches_sequential_with_fine_tune():
    """Warm buffers engage per-member agent updates between steps; the
    updated weights must flow through the stacked views."""
    from repro.agents.base import AgentHyperParams

    kwargs = dict(hp=AgentHyperParams(batch_size=16), prefill=20,
                  fine_tune_updates=2)
    seq = _sequential_sessions(3, **kwargs)
    pop = _population_sessions(3, **kwargs)
    for a, b in zip(pop, seq):
        assert sessions_equal(a, b)


@pytest.mark.determinism
def test_population_tune_matches_sequential_no_twinq():
    seq = _sequential_sessions(2, use_twin_q=False)
    pop = _population_sessions(2, use_twin_q=False)
    for a, b in zip(pop, seq):
        assert sessions_equal(a, b)


@pytest.mark.determinism
@given(n=st.integers(min_value=1, max_value=6))
@settings(max_examples=6, deadline=None)
def test_population_size_sweep_matches_sequential(n):
    """Bit-identity cannot depend on population size."""
    seq = _sequential_sessions(n, steps=2)
    pop = _population_sessions(n, steps=2)
    for a, b in zip(pop, seq):
        assert sessions_equal(a, b)


@pytest.mark.determinism
def test_population_member_i_equals_solo_run():
    """Member i's session must not depend on who else is in the
    population — the independence half of the contract."""
    envs = _member_envs(3)
    tuners = _deepcats(3, envs)
    pop = PopulationTuner.from_deepcat(tuners, envs).tune(steps=3)

    env_solo = _member_envs(3)[1]
    tuner_solo = _deepcats(3, _member_envs(3))[1]
    solo = tuner_solo.tune_online(env_solo, steps=3,
                                  fine_tune_updates=2)
    # from_deepcat defaults mirror tune_online's defaults.
    assert sessions_equal(pop[1], solo)


def test_population_tuner_validates_members():
    envs = _member_envs(2)
    tuners = _deepcats(2, envs)
    with pytest.raises(ValueError, match="one environment per tuner"):
        PopulationTuner.from_deepcat(tuners, envs[:1])
    with pytest.raises(ValueError, match="at least one"):
        PopulationTuner([])
    population = PopulationTuner.from_deepcat(tuners, envs)
    with pytest.raises(ValueError, match="steps must be positive"):
        population.tune(steps=0)


def test_population_twinq_diagnostics_recorded():
    sessions = _population_sessions(2, steps=3)
    for session in sessions:
        for s in session.steps:
            assert s.twinq_iterations is not None
            assert s.twinq_accepted is not None
            assert s.original_q is not None
            assert s.final_q is not None
