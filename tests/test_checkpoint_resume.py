"""Crash-recoverable session checkpoints: kill, resume, bit-identical.

The heavyweight equality test is marked ``determinism`` — it is the
robustness counterpart of the engine's sharding invariants: interrupting
a session must never change the science.
"""

import builtins
import lzma
import pickle
from pathlib import Path

import pytest

from repro.agents.base import AgentHyperParams
from repro.baselines.cdbtune import CDBTune
from repro.cli import main
from repro.core.deepcat import DeepCAT
from repro.core.persistence import (
    PopulationCheckpointManager,
    load_population_checkpoint,
    save_population_checkpoint,
)
from repro.core.population import PopulationTuner
from repro.core.resilience import ResiliencePolicy
from repro.core.result import sessions_equal
from repro.factory import make_env
from repro.sim.engine import SparkSimulator

FAST_HP = AgentHyperParams(batch_size=16, warmup_steps=8, hidden=(16, 16))
SMALL_HP = AgentHyperParams(hidden=(8, 8), batch_size=16, warmup_steps=16)
DATA = Path(__file__).parent / "data"


class _DyingStep:
    """Picklable ``env.step`` stand-in: raises ``KeyboardInterrupt`` once
    ``die_at`` evaluations have completed (a mid-session kill)."""

    def __init__(self, env, die_at):
        self.env = env
        self.die_at = die_at
        self.calls = 0

    def __call__(self, action):
        if self.calls == self.die_at:
            raise KeyboardInterrupt
        self.calls += 1
        return type(self.env).step(self.env, action)


def _trained(seed=7, tuner_cls=DeepCAT):
    env = make_env("WC", "D1", seed=3)
    tuner = tuner_cls.from_env(env, seed=seed, hp=FAST_HP)
    tuner.train_offline(env, 40)
    return tuner


def _small_trained(seed):
    env = make_env("WC", "D1", seed=3)
    tuner = DeepCAT.from_env(env, seed=seed, hp=SMALL_HP, buffer_capacity=64)
    tuner.train_offline(env, 40)
    return tuner


def _hostile_env(seed):
    return make_env("WC", "D1", seed=seed, fault_profile="hostile")


def _unpacked(name, tmp_path):
    path = tmp_path / name
    path.write_bytes(lzma.decompress((DATA / f"{name}.xz").read_bytes()))
    return path


def _assert_env_holds_simulator(env):
    """A restored environment holds its simulator directly, even when
    the file pickled it inside the HiBench-style runner of that time."""
    assert not hasattr(env, "runner")
    assert isinstance(env.simulator, SparkSimulator)
    assert not hasattr(env.simulator, "fault_injector")


@pytest.mark.determinism
class TestCheckpointsWithLayerScratch:
    """Checkpoints whose tuners still pickle every layer's batch
    workspaces and every Adam scratch pool resume bit-identically.

    ``tests/data/{session,population}_with_scratch.ckpt.xz`` hold the
    ``xz -9e`` bytes of the two files this wrote, with the layers and
    optimizers of that time pickling their whole ``__dict__``.  The
    session file holds the single-session payload of that time
    (``checkpoint_version`` 1), which loads as a population of one::

        tuner, env = _small_trained(7), _hostile_env(11)
        res = ResiliencePolicy.default(seed=5)
        tuner.tune_online(env, steps=3, resilience=res,
                          checkpoint=PopulationCheckpointManager(
                              "session_with_scratch.ckpt", [tuner], [env],
                              resiliences=[res]))

        tuners = [_small_trained(7), _small_trained(8)]
        envs = [_hostile_env(11), _hostile_env(12)]
        ress = [ResiliencePolicy.default(seed=5),
                ResiliencePolicy.default(seed=6)]
        PopulationTuner.from_deepcat(tuners, envs, resiliences=ress).tune(
            steps=3, checkpoint=PopulationCheckpointManager(
                "population_with_scratch.ckpt", tuners, envs,
                resiliences=ress))
    """

    STEPS = 6
    SEEDS = ((7, 11, 5), (8, 12, 6))  # tuner, environment, resilience

    def _full_session(self):
        return _small_trained(7).tune_online(
            _hostile_env(11), steps=self.STEPS,
            resilience=ResiliencePolicy.default(seed=5),
        )

    def test_session_resumes_bit_identically(self, tmp_path):
        ck = load_population_checkpoint(
            _unpacked("session_with_scratch.ckpt", tmp_path)
        )
        assert ck.next_steps == [3]
        _assert_env_holds_simulator(ck.envs[0])
        resumed = ck.tuners[0].tune_online(
            ck.envs[0], steps=self.STEPS, resilience=ck.resiliences[0],
            session=ck.sessions[0],
        )
        assert len(resumed.steps) == self.STEPS
        assert sessions_equal(resumed, self._full_session())

    def test_session_resumes_through_cli(self, tmp_path, capsys):
        """``repro tune --resume`` finishes the single-session payload
        and rewrites it as a population of one."""
        ckpt = _unpacked("session_with_scratch.ckpt", tmp_path)
        assert main(
            ["tune", "--resume", str(ckpt), "--steps", str(self.STEPS)]
        ) == 0
        assert (
            f"resuming WC-D1 from {ckpt} at step 4/{self.STEPS}"
            in capsys.readouterr().out
        )
        ck = load_population_checkpoint(ckpt)
        assert ck.next_steps == [self.STEPS]
        assert sessions_equal(ck.sessions[0], self._full_session())

    def test_population_resumes_bit_identically(self, tmp_path):
        ck = load_population_checkpoint(
            _unpacked("population_with_scratch.ckpt", tmp_path)
        )
        assert ck.next_steps == [3, 3]
        for env in ck.envs:
            _assert_env_holds_simulator(env)
        resumed = PopulationTuner.from_deepcat(
            ck.tuners, ck.envs, resiliences=ck.resiliences,
            sessions=ck.sessions,
        ).tune(steps=self.STEPS)
        full = PopulationTuner.from_deepcat(
            [_small_trained(t) for t, _, _ in self.SEEDS],
            [_hostile_env(e) for _, e, _ in self.SEEDS],
            resiliences=[
                ResiliencePolicy.default(seed=r) for _, _, r in self.SEEDS
            ],
        ).tune(steps=self.STEPS)
        assert [len(s.steps) for s in resumed] == [self.STEPS] * 2
        for a, b in zip(resumed, full):
            assert sessions_equal(a, b)


@pytest.mark.determinism
class TestResumeEquality:
    """Kill at step k, resume, and demand field-exact equality with the
    uninterrupted run (wall-clock ``recommendation_s`` excluded)."""

    STEPS = 6
    KILL_AT = 3
    TUNER = DeepCAT

    def _uninterrupted(self):
        tuner = _trained(tuner_cls=self.TUNER)
        env = make_env("WC", "D1", seed=11, fault_profile="hostile")
        return tuner.tune_online(
            env, steps=self.STEPS, resilience=ResiliencePolicy.default(seed=5)
        )

    def _killed_and_resumed(self, tmp_path):
        ckpt = tmp_path / "session.ckpt"
        tuner = _trained(tuner_cls=self.TUNER)
        env = make_env("WC", "D1", seed=11, fault_profile="hostile")
        res = ResiliencePolicy.default(seed=5)
        manager = PopulationCheckpointManager(
            ckpt, [tuner], [env], resiliences=[res]
        )
        # the "kill": run only the first KILL_AT steps, checkpointing
        tuner.tune_online(
            env, steps=self.KILL_AT, resilience=res, checkpoint=manager
        )
        # a different process: everything restored from the snapshot
        restored = load_population_checkpoint(ckpt)
        assert restored.next_steps == [self.KILL_AT]
        return restored.tuners[0].tune_online(
            restored.envs[0],
            steps=self.STEPS,
            resilience=restored.resiliences[0],
            session=restored.sessions[0],
        )

    def test_resume_is_bit_identical(self, tmp_path):
        full = self._uninterrupted()
        resumed = self._killed_and_resumed(tmp_path)
        assert len(resumed.steps) == self.STEPS
        assert sessions_equal(full, resumed)

    def test_sessions_equal_detects_divergence(self):
        a = self._uninterrupted()
        tuner = _trained(tuner_cls=self.TUNER)
        env = make_env("WC", "D1", seed=12, fault_profile="hostile")
        b = tuner.tune_online(
            env, steps=self.STEPS, resilience=ResiliencePolicy.default(seed=5)
        )
        assert not sessions_equal(a, b)


class TestResumeEqualityCDBTune(TestResumeEquality):
    """The same kill and resume for CDBTune, whose sessions run the same
    stages with DDPG and TD-error prioritized replay."""

    TUNER = CDBTune


class TestCheckpointMechanics:
    def _ready(self, tmp_path, steps=2):
        tuner = _trained()
        env = make_env("WC", "D1", seed=11, fault_profile="flaky")
        res = ResiliencePolicy.default(seed=5)
        ckpt = tmp_path / "s.ckpt"
        session = tuner.tune_online(
            env, steps=steps, resilience=res,
            checkpoint=PopulationCheckpointManager(
                ckpt, [tuner], [env], resiliences=[res]
            ),
        )
        return tuner, env, res, ckpt, session

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        _, _, _, ckpt, _ = self._ready(tmp_path)
        assert ckpt.exists()
        assert not ckpt.with_name(ckpt.name + ".tmp").exists()

    def test_roundtrip_restores_counters(self, tmp_path):
        tuner, env, res, ckpt, session = self._ready(tmp_path, steps=3)
        restored = load_population_checkpoint(ckpt)
        [restored_res] = restored.resiliences
        assert restored.next_steps == [len(restored.sessions[0].steps)] == [3]
        assert sessions_equal(restored.sessions[0], session)
        assert restored_res.guard.consecutive_failures == (
            res.guard.consecutive_failures
        )
        assert restored_res.guard.sigma_scale == res.guard.sigma_scale
        assert restored_res.watchdog.aborts == res.watchdog.aborts

    def test_manager_cadence(self, tmp_path):
        tuner = _trained()
        env = make_env("WC", "D1", seed=11)
        manager = PopulationCheckpointManager(
            tmp_path / "s.ckpt", [tuner], [env], every=2
        )
        tuner.tune_online(env, steps=5, checkpoint=manager)
        # steps 2 and 4 hit the cadence; 1, 3 and 5 do not
        assert manager.saves == 2
        assert load_population_checkpoint(manager.path).next_steps == [4]

    def test_manager_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            PopulationCheckpointManager(
                tmp_path / "s.ckpt", [None], [None], every=0
            )

    def test_keyboard_interrupt_writes_final_snapshot(self, tmp_path):
        tuner = _trained()
        env = make_env("WC", "D1", seed=11)
        ckpt = tmp_path / "s.ckpt"
        manager = PopulationCheckpointManager(
            ckpt, [tuner], [env], every=100
        )  # cadence never fires — only the interrupt handler saves
        env.step = _DyingStep(env, die_at=2)
        with pytest.raises(KeyboardInterrupt):
            tuner.tune_online(env, steps=5, checkpoint=manager)
        restored = load_population_checkpoint(ckpt)
        assert restored.next_steps == [len(restored.sessions[0].steps)] == [2]

    def test_version_mismatch_raises(self, tmp_path):
        """The single-session payload keeps its own version check."""
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(pickle.dumps({"checkpoint_version": 999}))
        with pytest.raises(ValueError, match="version"):
            load_population_checkpoint(bad)

    def test_save_checkpoint_with_live_telemetry(self, tmp_path):
        """Live telemetry holds locks; it pickles as the null context and
        stays attached to the live objects."""
        from repro.telemetry.context import NULL_CONTEXT, RunContext
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.tracing import Tracer

        tuner = _trained()
        env = make_env("WC", "D1", seed=11)
        ctx = RunContext(tracer=Tracer(), metrics=MetricsRegistry())
        session = tuner.tune_online(env, steps=1, telemetry=ctx)
        assert env.simulator.telemetry is ctx
        save_population_checkpoint(
            tmp_path / "s.ckpt", tuners=[tuner], envs=[env],
            sessions=[session],
        )
        assert env.simulator.telemetry is ctx
        restored = load_population_checkpoint(tmp_path / "s.ckpt")
        assert restored.envs[0].simulator.telemetry is NULL_CONTEXT
        assert restored.tuners[0].agent.telemetry is NULL_CONTEXT


class TestCLIResume:
    def test_tune_checkpoint_then_resume(self, tmp_path, capsys):
        model = str(tmp_path / "m.npz")
        ckpt = str(tmp_path / "s.ckpt")
        assert main(
            ["train", "--workload", "WC", "--iterations", "80",
             "--model", model]
        ) == 0
        assert main(
            ["tune", "--workload", "WC", "--model", model, "--steps", "2",
             "--fault-profile", "hostile", "--checkpoint", ckpt]
        ) == 0
        assert main(["tune", "--resume", ckpt, "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "resuming" in out
        assert load_population_checkpoint(ckpt).next_steps == [4]

    def test_resume_of_finished_session_is_noop(self, tmp_path, capsys):
        model = str(tmp_path / "m.npz")
        ckpt = str(tmp_path / "s.ckpt")
        main(["train", "--workload", "WC", "--iterations", "80",
              "--model", model])
        main(["tune", "--workload", "WC", "--model", model, "--steps", "2",
              "--checkpoint", ckpt])
        assert main(["tune", "--resume", ckpt, "--steps", "2"]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_cdbtune_model_tunes_checkpoints_and_resumes(
        self, tmp_path, capsys
    ):
        """``repro tune`` serves a CDBTune model like a DeepCAT one, one
        session at a time: a population needs TD3's twin critics."""
        model = str(tmp_path / "cdb.npz")
        ckpt = str(tmp_path / "c.ckpt")
        assert main(
            ["train", "--tuner", "cdbtune", "--workload", "WC",
             "--iterations", "20", "--model", model]
        ) == 0
        assert main(
            ["tune", "--workload", "WC", "--model", model, "--steps", "2",
             "--fault-profile", "flaky", "--checkpoint", ckpt]
        ) == 0
        capsys.readouterr()
        assert main(["tune", "--resume", ckpt, "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines()
                if line.startswith("step ")] == ["step 1", "step 2", "step 3"]
        ck = load_population_checkpoint(ckpt)
        assert ck.next_steps == [3]
        assert ck.sessions[0].tuner == "CDBTune"
        assert main(
            ["tune", "--workload", "WC", "--model", model, "--steps", "1",
             "--population", "2"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tune: --population needs a DeepCAT")
        assert len(captured.err.splitlines()) == 1

    def test_tune_requires_model_or_resume(self, capsys):
        assert main(["tune", "--workload", "WC"]) == 2

    @pytest.mark.parametrize(
        "extra", [[], ["--population", "2"]], ids=["session", "population"]
    )
    def test_resume_reads_checkpoint_once(
        self, tmp_path, monkeypatch, extra
    ):
        model = str(tmp_path / "m.npz")
        ckpt = str(tmp_path / "s.ckpt")
        main(["train", "--workload", "WC", "--iterations", "80",
              "--model", model])
        assert main(
            ["tune", "--workload", "WC", "--model", model, "--steps", "1",
             "--checkpoint", ckpt, *extra]
        ) == 0
        reads = []
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            if str(file) == ckpt and "r" in mode:
                reads.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(["tune", "--resume", ckpt, "--steps", "2"]) == 0
        assert reads == ["rb"]
