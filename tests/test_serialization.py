"""Tests for copies of tuners."""

import copy
import pickle

import numpy as np
import pytest

from repro.agents.base import AgentHyperParams
from repro.baselines.cdbtune import CDBTune
from repro.core.deepcat import DeepCAT
from repro.core.result import sessions_equal
from repro.factory import make_env
from repro.nn.network import Parameter, Sequential
from repro.nn.optim import Adam

FAST_HP = AgentHyperParams(batch_size=16, warmup_steps=8, hidden=(16, 16))
COPIES = {
    "pickle": lambda t: pickle.loads(
        pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL)),
    "deepcopy": copy.deepcopy,
}


def _nets_and_optimizers(tuner):
    parts = vars(tuner.agent).values()
    return ([p for p in parts if isinstance(p, Sequential)],
            [p for p in parts if isinstance(p, Adam)])


def _scratch(tuner):
    """Every layer attribute that is not a parameter, every Adam's
    scratch pool, and RDPER's sample workspaces."""
    nets, optimizers = _nets_and_optimizers(tuner)
    return [
        value
        for net in nets for layer in net.layers
        for value in vars(layer).values()
        if not isinstance(value, Parameter)
    ] + [opt._scratch for opt in optimizers] + [
        getattr(tuner.buffer, "_batches", None)
    ]


def _empty(value):
    return value is None or (isinstance(value, dict) and not value)


def _learned_state(tuner):
    """Parameters, Adam moments and step counts, and the offline log."""
    nets, optimizers = _nets_and_optimizers(tuner)
    log = tuner.offline_log
    arrays = [p.data for net in nets for p in net.parameters()]
    arrays += [a for opt in optimizers for a in (*opt._m, *opt._v)]
    arrays += [np.asarray(x) for x in (
        log.rewards, log.min_q, log.durations, log.critic_losses,
        log.best_duration_s, log.best_action)]
    return [a.tobytes() for a in arrays] + [opt._t for opt in optimizers]


class TestTunerCopies:
    """Pickled and deep-copied tuners carry no layer or optimizer scratch
    and continue exactly as the original does."""

    @pytest.mark.parametrize("how", sorted(COPIES))
    @pytest.mark.parametrize("cls", [DeepCAT, CDBTune])
    def test_copy_is_scratch_free_and_bit_identical(self, cls, how):
        env = make_env("WC", "D1", seed=3)
        original = cls.from_env(env, seed=7, hp=FAST_HP,
                                buffer_capacity=256)
        original.train_offline(env, 40)
        assert not all(_empty(v) for v in _scratch(original))

        twin = COPIES[how](original)
        assert all(_empty(v) for v in _scratch(twin))

        sessions = []
        for tuner in (original, twin):
            tuner.train_offline(make_env("WC", "D1", seed=21), 50)
            sessions.append(
                tuner.tune_online(make_env("WC", "D1", seed=22), steps=5))
        assert sessions_equal(*sessions)
        assert _learned_state(twin) == _learned_state(original)
