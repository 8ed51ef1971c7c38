"""Population-member quarantine: a diverged (non-finite) member is
isolated from the lockstep and finished sequentially, while the healthy
members stay bit-identical to a clean population run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.population import PopulationTD3View
from repro.agents.td3 import TD3Agent
from repro.core.deepcat import DeepCAT
from repro.core.population import PopulationTuner
from repro.core.result import sessions_equal
from repro.factory import make_env
from repro.nn.population import StackedSequential
from repro.telemetry import RunContext

N = 3
STEPS = 3


def _envs(n=N):
    return [make_env("TS", "D2", seed=1000 + s) for s in range(n)]


def _population(n=N, telemetry=None):
    envs = _envs(n)
    tuners = [
        DeepCAT.from_env(env, seed=s, buffer_capacity=512)
        for s, env in enumerate(envs)
    ]
    return PopulationTuner.from_deepcat(tuners, envs, telemetry=telemetry)


def _poison(pop, member):
    """Drive one member's actor non-finite, as a diverged update would."""
    ops = pop.view.actor._ops
    ops[0].w[member, 0, 0] = np.nan


class TestMembersFinite:
    def test_stacked_sequential_mask(self):
        agents = [TD3Agent(9, 32, np.random.default_rng(i)) for i in range(4)]
        stacked = StackedSequential([a.actor for a in agents])
        assert stacked.members_finite().tolist() == [True] * 4
        linears = [op for op in stacked._ops if hasattr(op, "w")]
        linears[1].w[2, 0, 0] = np.inf
        assert stacked.members_finite().tolist() == [True, True, False, True]

    def test_view_mask_covers_actor_and_critics(self):
        agents = [TD3Agent(9, 32, np.random.default_rng(i)) for i in range(3)]
        view = PopulationTD3View(agents)
        assert view.members_finite().tolist() == [True] * 3
        view.critic1._ops[0].b[1, 0] = np.nan
        assert view.members_finite().tolist() == [True, False, True]

    def test_bias_nonfinite_detected(self):
        agents = [TD3Agent(9, 32, np.random.default_rng(i)) for i in range(2)]
        stacked = StackedSequential([a.actor for a in agents])
        stacked._ops[0].b[0, 0] = -np.inf
        assert stacked.members_finite().tolist() == [False, True]


class TestQuarantine:
    @pytest.mark.determinism
    def test_healthy_members_unaffected_by_quarantine(self):
        clean = _population()
        clean_sessions = clean.tune(steps=STEPS)

        poisoned = _population()
        _poison(poisoned, member=1)
        sessions = poisoned.tune(steps=STEPS)

        assert [m.quarantined for m in poisoned.members] == [
            False, True, False,
        ]
        # The sick member is out of the lockstep; the healthy members'
        # sessions are exactly what the clean population produced.
        assert sessions_equal(sessions[0], clean_sessions[0])
        assert sessions_equal(sessions[2], clean_sessions[2])

    def test_screen_is_pure_observation_when_all_finite(self):
        a = _population().tune(steps=STEPS)
        b = _population().tune(steps=STEPS)
        for x, y in zip(a, b):
            assert sessions_equal(x, y)

    def test_quarantine_failure_is_contained(self):
        # The sequential finish of a NaN-poisoned member raises inside
        # the tuner (non-finite action/config); tune() must survive and
        # still return every member's session.
        pop = _population()
        _poison(pop, member=0)
        sessions = pop.tune(steps=STEPS)
        assert len(sessions) == N
        assert pop.members[0].quarantined is True
        # Healthy members completed their full step budget.
        assert len(sessions[1].steps) == STEPS
        assert len(sessions[2].steps) == STEPS

    @pytest.mark.parametrize("net", ["critic", "actor"])
    def test_each_member_records_one_manifest_stage(self, net):
        # A poisoned critic lets the sequential finish succeed; a
        # poisoned actor makes it raise.  Either way every member,
        # quarantined or not, gets exactly one online-tune stage.
        ctx = RunContext.recording()
        pop = _population(telemetry=ctx)
        if net == "critic":
            pop.view.critic1._ops[0].b[1, 0] = np.nan
        else:
            _poison(pop, member=1)
        pop.tune(steps=STEPS)
        assert pop.members[1].quarantined is True
        stages = [s for s in ctx.manifest.stages
                  if s["stage"] == "online-tune"]
        assert len(stages) == N

    def test_quarantine_emits_telemetry(self):
        ctx = RunContext.recording()
        pop = _population(telemetry=ctx)
        _poison(pop, member=1)
        pop.tune(steps=STEPS)
        counter = ctx.metrics.counter(
            "population.quarantined_total", labels={"tuner": "DeepCAT"}
        )
        assert counter.value == 1.0
