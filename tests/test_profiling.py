"""``--profile``: a cProfile capture around a ``train``/``tune`` run."""

import pstats

import numpy as np
import pytest

from repro.cli import main
from repro.core.deepcat import DeepCAT

# 150 iterations exceed the default batch size, so the profiled run takes
# gradient steps and the parameter comparison below is not vacuous.
TRAIN = ["train", "--iterations", "150"]


def _network_functions(dump):
    """Names of the profiled functions defined in ``repro/nn/network.py``."""
    return {
        name
        for path, _, name in pstats.Stats(str(dump)).stats
        if path.endswith("repro/nn/network.py")
    }


@pytest.mark.determinism
def test_profile_out_writes_dump_and_keeps_science(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main([*TRAIN, "--model", "m", "--profile-out", "p.pstats"]) == 0
    out = capsys.readouterr().out
    assert "profile: wrote pstats dump p.pstats" in out
    assert "Ordered by: cumulative time" in out
    assert "due to restriction <15>" in out
    assert "forward" in _network_functions(tmp_path / "p.pstats")

    assert main([*TRAIN, "--model", "plain"]) == 0
    profiled = np.load(tmp_path / "m.npz")["params"]
    plain = np.load(tmp_path / "plain.npz")["params"]
    assert profiled.tobytes() == plain.tobytes()


def test_interrupted_run_still_writes_profile(tmp_path, monkeypatch, capsys):
    def interrupted(self, env, iterations, **kwargs):
        env.step(env.space.encode(env.space.defaults()))
        raise KeyboardInterrupt

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(DeepCAT, "train_offline", interrupted)
    assert main([*TRAIN, "--model", "m", "--profile"]) == 130
    out = capsys.readouterr().out
    assert "interrupted: saved partially-trained m.npz" in out
    assert "profile: wrote pstats dump profile.pstats" in out
    assert "Ordered by: cumulative time" in out
    assert pstats.Stats(str(tmp_path / "profile.pstats")).total_calls > 0
