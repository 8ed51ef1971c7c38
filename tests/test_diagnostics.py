"""Learning-health diagnostics: detectors, latching, purity, overhead."""

import copy
import time

import numpy as np
import pytest

from repro.core.deepcat import DeepCAT
from repro.core.resilience import ResiliencePolicy
from repro.factory import make_env
from repro.telemetry import (
    DiagnosticsConfig,
    DiagnosticsEngine,
    NULL_DIAGNOSTICS,
    RunContext,
    ensure_context,
)
from repro.telemetry.diagnostics import replay_events


def _names(engine):
    return [a.name for a in engine.alerts]


class TestDetectors:
    def test_q_overestimation_grades_by_gap(self):
        e = DiagnosticsEngine()
        for i in range(5):
            e.observe_step(step=i, reward=0.0, success=True, q_pred=2.0)
        alerts = [a for a in e.alerts if a.name == "q-overestimation"]
        assert alerts
        assert alerts[-1].severity == "critical"
        assert alerts[-1].data["gap"] >= 1.0

    def test_q_overestimation_quiet_when_calibrated(self):
        e = DiagnosticsEngine()
        for i in range(50):
            e.observe_step(step=i, reward=0.5, success=True, q_pred=0.55)
        assert "q-overestimation" not in _names(e)

    def test_critic_divergence_needs_rising_ewma(self):
        e = DiagnosticsEngine()
        for _ in range(15):
            e.observe_update(0.05)
        assert "critic-divergence" not in _names(e)
        for _ in range(15):
            e.observe_update(5.0)
        alerts = [a for a in e.alerts if a.name == "critic-divergence"]
        assert alerts
        assert alerts[-1].severity == "critical"

    def test_reward_plateau_warns_then_escalates(self):
        cfg = DiagnosticsConfig(plateau_steps=5)
        e = DiagnosticsEngine(cfg)
        for i in range(12):
            e.observe_step(step=i, reward=0.1, success=True)
        plateau = [a for a in e.alerts if a.name == "reward-plateau"]
        assert [a.severity for a in plateau] == ["warning", "critical"]

    def test_plateau_rearms_after_improvement(self):
        cfg = DiagnosticsConfig(plateau_steps=3)
        e = DiagnosticsEngine(cfg)
        for i in range(4):
            e.observe_step(step=i, reward=0.1, success=True)
        assert len([a for a in e.alerts if a.name == "reward-plateau"]) == 1
        # A new best clears the condition; a second stagnation re-fires.
        e.observe_step(step=4, reward=0.9, success=True)
        for i in range(5, 9):
            e.observe_step(step=i, reward=0.1, success=True)
        assert len([a for a in e.alerts if a.name == "reward-plateau"]) == 2

    def test_rdper_stale_pool(self):
        e = DiagnosticsEngine()
        e.observe_rdper(realized_beta=0.6, beta=0.6, staleness=900,
                        high_size=3, low_size=500)
        alerts = [a for a in e.alerts if a.name == "rdper-stale-pool"]
        assert alerts and alerts[-1].severity == "critical"
        assert alerts[-1].data["staleness"] == 900

    def test_rdper_beta_drift_needs_min_samples(self):
        e = DiagnosticsEngine()
        for _ in range(7):
            e.observe_rdper(realized_beta=0.0, beta=0.6, staleness=0,
                            high_size=0, low_size=64)
        assert "rdper-beta-drift" not in _names(e)
        e.observe_rdper(realized_beta=0.0, beta=0.6, staleness=0,
                        high_size=0, low_size=64)
        alerts = [a for a in e.alerts if a.name == "rdper-beta-drift"]
        assert alerts and alerts[-1].severity == "critical"

    def test_exploration_collapse_relative_to_baseline(self):
        e = DiagnosticsEngine()
        e.observe_step(step=0, reward=0.0, success=True, sigma=0.3)
        e.observe_step(step=1, reward=0.0, success=True, sigma=0.2)
        assert "exploration-collapse" not in _names(e)
        e.observe_step(step=2, reward=0.0, success=True, sigma=0.02)
        alerts = [a for a in e.alerts if a.name == "exploration-collapse"]
        assert alerts and alerts[-1].severity == "critical"
        assert alerts[-1].data["baseline"] == pytest.approx(0.3)

    def test_intervention_rate_window(self):
        cfg = DiagnosticsConfig(
            intervention_window=4, intervention_min_steps=4
        )
        e = DiagnosticsEngine(cfg)
        for i in range(4):
            e.observe_intervention("retry")
            e.observe_intervention("watchdog-abort")
            e.observe_step(step=i, reward=0.0, success=False)
        alerts = [a for a in e.alerts if a.name == "intervention-rate"]
        assert alerts and alerts[-1].severity == "critical"
        assert e.summary()["interventions"] == {
            "retry": 4, "watchdog-abort": 4,
        }


class TestLatchingAndDrain:
    def test_persistent_condition_alerts_once(self):
        e = DiagnosticsEngine()
        for i in range(30):
            e.observe_rdper(realized_beta=0.6, beta=0.6, staleness=5000,
                            high_size=1, low_size=64)
        assert len([a for a in e.alerts
                    if a.name == "rdper-stale-pool"]) == 1

    def test_escalation_fires_again(self):
        e = DiagnosticsEngine()
        e.observe_rdper(realized_beta=0.6, beta=0.6, staleness=300,
                        high_size=1, low_size=64)
        e.observe_rdper(realized_beta=0.6, beta=0.6, staleness=900,
                        high_size=1, low_size=64)
        severities = [a.severity for a in e.alerts
                      if a.name == "rdper-stale-pool"]
        assert severities == ["warning", "critical"]

    def test_drain_returns_each_alert_once(self):
        e = DiagnosticsEngine()
        e.observe_rdper(realized_beta=0.6, beta=0.6, staleness=900,
                        high_size=1, low_size=64)
        first = e.drain_alerts()
        assert [a.name for a in first] == ["rdper-stale-pool"]
        assert e.drain_alerts() == []
        assert len(e.alerts) == 1  # history retained

    def test_alert_event_fields_are_json_scalars(self):
        e = DiagnosticsEngine()
        for i in range(5):
            e.observe_step(step=i, reward=0.0, success=True, q_pred=3.0)
        fields = e.alerts[0].as_event_fields()
        assert fields["name"] == "q-overestimation"
        assert set(fields) == {"name", "severity", "step", "message", "data"}
        for v in fields["data"].values():
            assert isinstance(v, (int, float, str, bool))


class TestNullAndContext:
    def test_null_diagnostics_is_inert(self):
        assert NULL_DIAGNOSTICS.enabled is False
        NULL_DIAGNOSTICS.observe_step(step=0, reward=0.0, success=True)
        NULL_DIAGNOSTICS.observe_update(1.0)
        NULL_DIAGNOSTICS.observe_rdper(0.5, 0.6, 0, 0, 0)
        NULL_DIAGNOSTICS.observe_intervention("retry")
        assert NULL_DIAGNOSTICS.drain_alerts() == []
        assert NULL_DIAGNOSTICS.summary()["alerts_total"] == 0

    def test_default_context_has_null_diagnostics(self):
        assert RunContext().diagnostics.enabled is False

    def test_ensure_context_preserves_diagnostics(self):
        engine = DiagnosticsEngine()
        ctx = RunContext(diagnostics=engine)
        assert ensure_context(ctx).diagnostics is engine

    def test_engine_pickles(self):
        import pickle

        e = DiagnosticsEngine()
        for i in range(5):
            e.observe_step(step=i, reward=0.0, success=True, q_pred=3.0)
        clone = pickle.loads(pickle.dumps(e))
        assert _names(clone) == _names(e)


class TestInjectedPathologies:
    """Each rigged pathology must trigger its intended named alert."""

    def test_rigged_beta_starves_high_pool(self):
        # β=0.9 demands 90% high-reward samples, but R_th=0.99 lets
        # almost nothing in: realized β collapses to 0 and the pool
        # goes stale — both RDPER detectors must name the cause.
        from repro.replay.base import Transition
        from repro.replay.rdper import RewardDrivenReplayBuffer

        rng = np.random.default_rng(0)
        buffer = RewardDrivenReplayBuffer(
            capacity=512, state_dim=4, action_dim=3, rng=rng,
            reward_threshold=0.99, beta=0.9,
        )
        engine = DiagnosticsEngine(
            DiagnosticsConfig(stale_pushes_warning=20,
                              stale_pushes_critical=60)
        )
        buffer.set_telemetry(RunContext(diagnostics=engine))
        for _ in range(128):
            buffer.push(Transition(
                state=rng.uniform(size=4), action=rng.uniform(size=3),
                reward=float(rng.uniform(-1.0, 0.5)),
                next_state=rng.uniform(size=4),
            ))
        for _ in range(10):
            buffer.sample(32)
        names = set(_names(engine))
        assert "rdper-beta-drift" in names
        assert "rdper-stale-pool" in names

    def test_rigged_sigma_decay_collapses_exploration(self):
        # A SafetyGuard-style σ decay: 0.3 halving every step crosses
        # the collapse thresholds within a handful of steps.
        engine = DiagnosticsEngine()
        sigma = 0.3
        for i in range(8):
            engine.observe_step(step=i, reward=0.0, success=False,
                                sigma=sigma)
            sigma *= 0.5
        alerts = [a for a in engine.alerts
                  if a.name == "exploration-collapse"]
        assert [a.severity for a in alerts] == ["warning", "critical"]

    def test_hostile_profile_triggers_intervention_rate(self):
        # A hostile cluster with resilience enabled fires retries,
        # watchdog aborts, and fallbacks on most steps; the rate
        # detector must flag the session as environment-limited.
        env = make_env("TS", "D1", seed=3, fault_profile="hostile")
        tuner = DeepCAT.from_env(env, seed=3)
        tuner.train_offline(env, 40)
        engine = DiagnosticsEngine(
            DiagnosticsConfig(
                intervention_window=4,
                intervention_min_steps=2,
                intervention_rate_warning=0.25,
                intervention_rate_critical=0.75,
            )
        )
        ctx = RunContext(diagnostics=engine)
        tune_env = make_env("TS", "D1", seed=1003, fault_profile="hostile")
        tuner.tune_online(
            tune_env, steps=6, telemetry=ctx,
            resilience=ResiliencePolicy.default(seed=3),
        )
        assert engine.summary()["interventions"]  # chaos actually fired
        assert "intervention-rate" in _names(engine)


class TestReplay:
    def test_replay_reconstructs_plateau_and_interventions(self):
        records = []
        for i in range(60):
            records.append({
                "kind": "online-step", "step": i, "reward": 0.1,
                "success": True, "attempts": 3, "fallback": i % 2 == 0,
            })
        engine = replay_events(records)
        names = set(_names(engine))
        assert "reward-plateau" in names
        assert "intervention-rate" in names
        assert engine.summary()["interventions"]["retry"] == 120


@pytest.mark.determinism
class TestDiagnosticsPurity:
    """A --diagnostics session is bit-identical science to one without."""

    def _session(self, diagnostics):
        env = make_env("TS", "D1", seed=11)
        tuner = DeepCAT.from_env(env, seed=11)
        tuner.train_offline(env, 60)
        ctx = RunContext(diagnostics=diagnostics)
        tune_env = make_env("TS", "D1", seed=1011,
                            fault_profile="flaky")
        return copy.deepcopy(tuner).tune_online(
            tune_env, steps=4, telemetry=ctx,
            resilience=ResiliencePolicy.default(seed=11),
        )

    def test_science_bit_identical(self):
        base = self._session(None)
        diag = self._session(DiagnosticsEngine())
        assert len(base.steps) == len(diag.steps)
        for a, b in zip(base.steps, diag.steps):
            assert a.step == b.step
            assert a.duration_s == b.duration_s
            assert a.reward == b.reward
            assert a.success == b.success
            assert a.config == b.config
            assert np.array_equal(a.action, b.action)
            assert a.attempts == b.attempts
            assert a.fallback == b.fallback
            assert a.faults == b.faults


class TestOverheadGate:
    def test_observe_cycle_under_two_percent_of_online_step(self):
        # A full observe cycle must stay below 2% of an online step so
        # diagnostics are always-on-safe.  The step is measured live,
        # over a 4-step session that includes copying the model.
        env = make_env("TS", "D1", seed=5)
        tuner = DeepCAT.from_env(env, seed=5)
        tuner.train_offline(env, 60)
        tune_env = make_env("TS", "D1", seed=1005)
        t0 = time.perf_counter()
        copy.deepcopy(tuner).tune_online(tune_env, steps=4)
        step_s = (time.perf_counter() - t0) / 4

        engine = DiagnosticsEngine()
        n = 2000
        t0 = time.perf_counter()
        for i in range(n):
            engine.observe_update(0.1)
            engine.observe_rdper(realized_beta=0.6, beta=0.6,
                                 staleness=i % 10, high_size=8,
                                 low_size=64)
            engine.observe_step(step=i, reward=0.1, success=True,
                                q_pred=0.2, sigma=0.3)
            engine.drain_alerts()
        cycle_s = (time.perf_counter() - t0) / n
        assert cycle_s < 0.02 * step_s, (
            f"diagnostics cycle {cycle_s * 1e6:.1f}us exceeds 2% of "
            f"online step {step_s * 1e3:.2f}ms"
        )
