"""Population CLI determinism: lockstep serving must never change science.

Two contracts at the command-line level:

* ``repro tune --population N --seed S`` is bit-identical, member by
  member, to the N sequential ``repro tune --seed plan[i]`` runs for
  ``plan = population_seed_plan(S, N)`` (at N = 1 the CLI runs the
  sequential loop itself, and its checkpoint resumes as a session);
* a population killed mid-run (SIGTERM, the orchestrator's kill signal)
  checkpoints, and ``--resume`` finishes it bit-identically to the
  uninterrupted run.

Plus the :class:`PopulationCheckpointManager` mechanics (cadence,
atomicity, version guard) mirroring ``TestCheckpointMechanics``.
"""

from __future__ import annotations

import os
import pickle
import signal

import pytest

from repro.cli import main
from repro.core.persistence import (
    PopulationCheckpointManager,
    load_population_checkpoint,
)
from repro.core.population import population_seed_plan
from repro.core.result import sessions_equal
from repro.envs.population import VectorTuningEnv

N = 4
SEED = 42
STEPS = 3


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("model") / "m.npz")
    assert main(
        ["train", "--workload", "WC", "--iterations", "80",
         "--model", path]
    ) == 0
    return path


def _tune_population(model, ckpt, *, steps=STEPS, extra=()):
    return main(
        ["tune", "--workload", "WC", "--model", model,
         "--population", str(N), "--seed", str(SEED),
         "--steps", str(steps), "--fault-profile", "hostile",
         "--checkpoint", ckpt, *extra]
    )


@pytest.mark.determinism
def test_population_cli_matches_sequential_cli(model, tmp_path):
    """Member i of ``--population N --seed S`` == the solo run
    ``--seed plan[i]``, resilience and fault streams included."""
    pop_ckpt = str(tmp_path / "pop.ckpt")
    assert _tune_population(model, pop_ckpt) == 0
    pop = load_population_checkpoint(pop_ckpt)
    assert pop.next_steps == [STEPS] * N

    for i, seed in enumerate(population_seed_plan(SEED, N)):
        solo_ckpt = str(tmp_path / f"solo{i}.ckpt")
        assert main(
            ["tune", "--workload", "WC", "--model", model,
             "--seed", str(seed), "--steps", str(STEPS),
             "--fault-profile", "hostile", "--checkpoint", solo_ckpt]
        ) == 0
        [solo] = load_population_checkpoint(solo_ckpt).sessions
        assert sessions_equal(pop.sessions[i], solo), (
            f"population member {i} diverged from --seed {seed}"
        )


@pytest.mark.determinism
def test_population_of_one_checkpoints_and_resumes_as_a_session(
    model, tmp_path, capsys
):
    """``--population 1`` runs the sequential loop; its checkpoint is a
    one-member population that resumes with the single-session wording
    and ends equal to the solo run ``--seed plan[0]``."""
    ckpt = str(tmp_path / "one.ckpt")
    assert main(
        ["tune", "--workload", "WC", "--model", model,
         "--population", "1", "--seed", str(SEED), "--steps", "2",
         "--fault-profile", "hostile", "--checkpoint", ckpt]
    ) == 0
    assert main(["tune", "--resume", ckpt, "--steps", str(STEPS)]) == 0
    assert f"resuming WC-D1 from {ckpt} at step 3/{STEPS}" in (
        capsys.readouterr().out
    )
    resumed = load_population_checkpoint(ckpt)
    assert resumed.next_steps == [STEPS]

    solo_ckpt = str(tmp_path / "solo.ckpt")
    assert main(
        ["tune", "--workload", "WC", "--model", model,
         "--seed", str(population_seed_plan(SEED, 1)[0]),
         "--steps", str(STEPS), "--fault-profile", "hostile",
         "--checkpoint", solo_ckpt]
    ) == 0
    [solo] = load_population_checkpoint(solo_ckpt).sessions
    assert sessions_equal(resumed.sessions[0], solo)


@pytest.mark.determinism
def test_population_sigterm_then_resume_is_bit_identical(
    model, tmp_path, monkeypatch, capsys
):
    """Kill the population with SIGTERM mid-run; --resume must finish it
    field-for-field equal to the uninterrupted run."""
    full_ckpt = str(tmp_path / "full.ckpt")
    assert _tune_population(model, full_ckpt, steps=4) == 0
    full = load_population_checkpoint(full_ckpt)

    # Interrupted arm: deliver SIGTERM just before the third lockstep
    # evaluation — no RNG has been consumed for that step's evaluation
    # yet, so the snapshot freezes exactly two completed steps.
    ckpt = str(tmp_path / "killed.ckpt")
    original_step = VectorTuningEnv.step
    calls = {"n": 0}

    def dying_step(self, actions, indices=None):
        if calls["n"] == 2:  # the third lockstep evaluation
            os.kill(os.getpid(), signal.SIGTERM)
        calls["n"] += 1
        return original_step(self, actions, indices=indices)

    monkeypatch.setattr(VectorTuningEnv, "step", dying_step)
    rc = _tune_population(model, ckpt, steps=4)
    monkeypatch.setattr(VectorTuningEnv, "step", original_step)
    assert rc == 130
    out = capsys.readouterr().out
    assert "checkpointed" in out
    killed = load_population_checkpoint(ckpt)
    assert killed.next_steps == [2] * N

    assert main(["tune", "--resume", ckpt, "--steps", "4"]) == 0
    assert "resuming population" in capsys.readouterr().out
    resumed = load_population_checkpoint(ckpt)
    assert resumed.next_steps == [4] * N
    for a, b in zip(resumed.sessions, full.sessions):
        assert sessions_equal(a, b)


def test_population_resume_of_finished_run_is_noop(
    model, tmp_path, capsys
):
    ckpt = str(tmp_path / "done.ckpt")
    assert _tune_population(model, ckpt) == 0
    capsys.readouterr()
    assert main(["tune", "--resume", ckpt, "--steps", str(STEPS)]) == 0
    out = capsys.readouterr().out
    assert "nothing to do" in out
    assert out.count("--- session") == N


def test_population_requires_at_least_one_member(model, capsys):
    assert main(
        ["tune", "--workload", "WC", "--model", model,
         "--population", "0"]
    ) == 2
    assert "--population" in capsys.readouterr().err


class TestPopulationCheckpointMechanics:
    def _run(self, model, tmp_path, *, extra=()):
        ckpt = str(tmp_path / "p.ckpt")
        assert _tune_population(model, ckpt, extra=extra) == 0
        return ckpt

    def test_atomic_write_leaves_no_tmp(self, model, tmp_path):
        ckpt = self._run(model, tmp_path)
        assert os.path.exists(ckpt)
        assert not os.path.exists(ckpt + ".tmp")

    def test_snapshot_parallel_lists_are_consistent(self, model, tmp_path):
        ck = load_population_checkpoint(self._run(model, tmp_path))
        assert (
            len(ck.tuners) == len(ck.envs) == len(ck.sessions)
            == len(ck.next_steps) == len(ck.resiliences) == N
        )
        for session, next_step in zip(ck.sessions, ck.next_steps):
            assert len(session.steps) == next_step == STEPS

    def test_cadence_skips_intermediate_steps(self, model, tmp_path):
        ckpt = self._run(model, tmp_path,
                         extra=("--checkpoint-every", "2"))
        # steps 2 fires the cadence; 1 and 3 do not, so the committed
        # snapshot is the one from lockstep 2.
        assert load_population_checkpoint(ckpt).next_steps == [2] * N

    def test_version_mismatch_raises(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(
            pickle.dumps({"population_checkpoint_version": 999})
        )
        with pytest.raises(ValueError, match="version"):
            load_population_checkpoint(bad)

    def test_manager_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            PopulationCheckpointManager(
                tmp_path / "p.ckpt", [], [], every=0
            )
