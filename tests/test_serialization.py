"""Tests for session JSON serialization and for copies of tuners."""

import copy
import pickle

import numpy as np
import pytest

from repro.agents.base import AgentHyperParams
from repro.baselines.cdbtune import CDBTune
from repro.core.deepcat import DeepCAT
from repro.core.result import OnlineSession, TuningStepRecord, sessions_equal
from repro.factory import make_env
from repro.nn.network import Parameter, Sequential
from repro.nn.optim import Adam
from repro.utils.serialization import (
    load_session,
    save_session,
    session_from_dict,
    session_to_dict,
)


@pytest.fixture
def session():
    s = OnlineSession(
        tuner="DeepCAT", workload="TS", dataset="D1",
        default_duration_s=150.0,
    )
    for i, (d, ok) in enumerate([(60.0, True), (25.0, False), (52.0, True)]):
        s.add(
            TuningStepRecord(
                step=i,
                duration_s=d,
                recommendation_s=0.01 * (i + 1),
                reward=0.4 - i * 0.1,
                success=ok,
                config={"spark.executor.cores": 4, "spark.serializer": "kryo"},
                action=np.linspace(0, 1, 5),
                twinq_iterations=i,
                twinq_accepted=True,
                original_q=0.2,
                final_q=0.5,
            )
        )
    return s


class TestSessionSerialization:
    def test_dict_roundtrip(self, session):
        restored = session_from_dict(session_to_dict(session))
        assert restored.tuner == session.tuner
        assert restored.n_steps == session.n_steps
        assert restored.best_duration_s == session.best_duration_s
        assert restored.total_tuning_seconds == pytest.approx(
            session.total_tuning_seconds
        )

    def test_aggregates_preserved(self, session):
        restored = session_from_dict(session_to_dict(session))
        assert restored.best_so_far() == session.best_so_far()
        assert restored.accumulated_cost() == pytest.approx(
            session.accumulated_cost()
        )
        assert restored.speedup_over_default == pytest.approx(
            session.speedup_over_default
        )

    def test_actions_roundtrip(self, session):
        restored = session_from_dict(session_to_dict(session))
        np.testing.assert_allclose(
            restored.steps[0].action, session.steps[0].action
        )

    def test_twinq_fields_roundtrip(self, session):
        restored = session_from_dict(session_to_dict(session))
        assert restored.steps[1].twinq_iterations == 1
        assert restored.steps[1].final_q == 0.5

    def test_file_roundtrip(self, session, tmp_path):
        path = tmp_path / "session.json"
        save_session(session, path)
        restored = load_session(path)
        assert restored.workload == "TS"
        assert restored.steps[2].config["spark.serializer"] == "kryo"

    def test_missing_optional_fields_tolerated(self, session):
        data = session_to_dict(session)
        for step in data["steps"]:
            step.pop("twinq_iterations")
            step.pop("final_q")
        restored = session_from_dict(data)
        assert restored.steps[0].twinq_iterations is None


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
