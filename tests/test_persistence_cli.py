"""Tests for model persistence and the CLI."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.agents.base import AgentHyperParams
from repro.baselines.cdbtune import CDBTune
from repro.cli import build_parser, main
from repro.core import persistence
from repro.core.deepcat import DeepCAT
from repro.core.persistence import load_tuner, save_tuner
from repro.factory import make_env

FAST_HP = AgentHyperParams(batch_size=16, warmup_steps=8, hidden=(16, 16))
TD3_NETS = ("actor", "actor_target", "critic1", "critic2",
            "critic1_target", "critic2_target")
DDPG_NETS = ("actor", "actor_target", "critic", "critic_target")
#: written by the version-1 ``save_tuner`` (one zlib-compressed member
#: per tensor): DeepCAT on TS-D1, seed 0, FAST_HP, beta 0.55,
#: q_threshold 0.37, 60 offline iterations
V1_ARCHIVE = Path(__file__).parent / "data" / "deepcat_v1.npz"


def assert_same_weights(a, b, nets):
    for net in nets:
        params_a = getattr(a.agent, net).parameters()
        params_b = getattr(b.agent, net).parameters()
        assert len(params_a) == len(params_b)
        for i, (pa, pb) in enumerate(zip(params_a, params_b)):
            assert pa.data.shape == pb.data.shape, f"{net}/{i}"
            assert pa.data.tobytes() == pb.data.tobytes(), f"{net}/{i}"
            assert not np.shares_memory(pa.data, pb.data)


def read_archive(path):
    with np.load(path) as archive:
        members = {k: archive[k] for k in archive.files}
    return json.loads(bytes(members.pop("__meta__"))), members


def write_archive(path, meta, members):
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(),
                                          dtype=np.uint8), **members)


class TestPersistence:
    def _trained_deepcat(self, seed=0):
        env = make_env("TS", "D1", seed=seed)
        t = DeepCAT.from_env(env, seed=seed, hp=FAST_HP, beta=0.55,
                             q_threshold=0.37)
        t.train_offline(env, 60)
        return t

    def test_deepcat_roundtrip_weights(self, tmp_path):
        t = self._trained_deepcat()
        path = tmp_path / "model.npz"
        save_tuner(t, path)
        loaded = load_tuner(path)
        assert_same_weights(t, loaded, TD3_NETS)
        state = np.full(t.agent.state_dim, 0.3)
        assert (t.agent.act(state, explore=False).tobytes()
                == loaded.agent.act(state, explore=False).tobytes())
        action = np.full(t.agent.action_dim, 0.5)
        assert t.agent.min_q(state, action) == loaded.agent.min_q(
            state, action)

    def test_format2_layout(self, tmp_path):
        t = self._trained_deepcat()
        meta, members = read_archive(save_tuner(t, tmp_path / "m.npz"))
        assert meta["format_version"] == 2
        assert set(members) == {"params"}
        params = members["params"]
        assert params.dtype == np.float64 and params.ndim == 1
        layout = meta["layout"]
        assert [key for key, _ in layout] == [
            f"{net}/{i}" for net in TD3_NETS
            for i in range(len(getattr(t.agent, net).parameters()))
        ]
        assert sum(int(np.prod(shape)) for _, shape in layout) == params.size

    def test_suffixless_path_resolves_to_npz(self, tmp_path):
        t = self._trained_deepcat()
        written = save_tuner(t, tmp_path / "m")
        assert written == tmp_path / "m.npz" and written.is_file()
        assert not (tmp_path / "m").exists()
        assert_same_weights(t, load_tuner(tmp_path / "m"), TD3_NETS)

    def test_failed_write_keeps_previous_archive(self, tmp_path,
                                                 monkeypatch):
        first = self._trained_deepcat(seed=0)
        path = save_tuner(first, tmp_path / "m.npz")

        def torn_savez(fh, **members):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(persistence.np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            save_tuner(self._trained_deepcat(seed=1), path)
        monkeypatch.undo()
        assert_same_weights(first, load_tuner(path), TD3_NETS)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz"]

    def test_deepcat_roundtrip_metadata(self, tmp_path):
        t = self._trained_deepcat()
        path = tmp_path / "model.npz"
        save_tuner(t, path)
        loaded = load_tuner(path)
        assert loaded.beta == 0.55
        assert loaded.q_threshold == 0.37
        assert loaded.hp == t.hp
        assert loaded.use_rdper == t.use_rdper

    def test_loaded_model_tunes(self, tmp_path):
        t = self._trained_deepcat()
        path = tmp_path / "model.npz"
        save_tuner(t, path)
        loaded = load_tuner(path, seed=9)
        s = loaded.tune_online(make_env("TS", "D1", seed=42), steps=2)
        assert s.n_steps == 2

    def test_cdbtune_roundtrip(self, tmp_path):
        env = make_env("WC", "D1", seed=1)
        t = CDBTune.from_env(env, seed=1, hp=FAST_HP)
        t.train_offline(env, 60)
        path = tmp_path / "cdb.npz"
        save_tuner(t, path)
        loaded = load_tuner(path)
        assert isinstance(loaded, CDBTune)
        assert_same_weights(t, loaded, DDPG_NETS)
        state = np.full(t.agent.state_dim, 0.2)
        assert (t.agent.act(state, explore=False).tobytes()
                == loaded.agent.act(state, explore=False).tobytes())

    def test_rejects_unknown_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_tuner(object(), tmp_path / "x.npz")


class TestArchiveRejection:
    @pytest.fixture
    def archive(self, tmp_path):
        env = make_env("TS", "D1", seed=0)
        path = save_tuner(DeepCAT.from_env(env, seed=0, hp=FAST_HP),
                          tmp_path / "m.npz")
        return path, *read_archive(path)

    def test_unknown_format_version(self, archive):
        path, meta, members = archive
        write_archive(path, {**meta, "format_version": 3}, members)
        with pytest.raises(ValueError, match="unsupported archive version 3"):
            load_tuner(path)

    def test_layout_sizes_disagree_with_params(self, archive):
        path, meta, members = archive
        write_archive(path, meta, {"params": members["params"][:-1]})
        with pytest.raises(ValueError, match="params vector holds"):
            load_tuner(path)

    def test_layout_shape_disagrees_with_nets(self, archive):
        path, meta, members = archive
        layout = [list(entry) for entry in meta["layout"]]
        key, (rows, cols) = layout[0]
        layout[0] = [key, [cols, rows]]  # same size, transposed
        write_archive(path, {**meta, "layout": layout}, members)
        with pytest.raises(ValueError, match=f"{key}: shape"):
            load_tuner(path)

    def test_missing_params_member(self, archive):
        path, meta, _ = archive
        write_archive(path, meta, {})
        with pytest.raises(ValueError, match="missing params"):
            load_tuner(path)


class TestVersion1Archive:
    def test_restores_byte_for_byte(self):
        loaded = load_tuner(V1_ARCHIVE)
        with np.load(V1_ARCHIVE) as archive:
            meta = json.loads(bytes(archive["__meta__"]))
            assert meta["format_version"] == 1
            for net in TD3_NETS:
                for i, p in enumerate(getattr(loaded.agent, net).parameters()):
                    stored = archive[f"{net}/{i}"]
                    assert p.data.shape == stored.shape
                    assert p.data.tobytes() == stored.tobytes()
        assert loaded.beta == 0.55 and loaded.q_threshold == 0.37
        assert loaded.hp == FAST_HP

    def test_loaded_model_tunes(self):
        loaded = load_tuner(V1_ARCHIVE, seed=3)
        s = loaded.tune_online(make_env("TS", "D1", seed=42), steps=2)
        assert s.n_steps == 2


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["train", "--model", "m.npz", "--iterations", "10"]
        )
        assert args.command == "train" and args.iterations == 10

    def test_evaluate_default(self, capsys):
        rc = main(["evaluate", "--workload", "WC", "--dataset", "D1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "WC-D1" in out and "OK" in out

    def test_evaluate_with_overrides(self, capsys):
        rc = main(
            [
                "evaluate", "--workload", "TS",
                "--set", "spark.executor.instances=8",
                "--set", "spark.serializer=kryo",
                "--set", "spark.shuffle.compress=true",
            ]
        )
        assert rc == 0
        assert "TS-D1" in capsys.readouterr().out

    def test_evaluate_bad_override(self, capsys):
        assert main(["evaluate", "--set", "bogus.key=1"]) == 2
        assert main(["evaluate", "--set", "noequals"]) == 2

    def test_train_then_tune(self, tmp_path, capsys):
        model = str(tmp_path / "m.npz")
        rc = main(
            [
                "train", "--workload", "WC", "--iterations", "80",
                "--model", model,
            ]
        )
        assert rc == 0
        rc = main(
            ["tune", "--workload", "WC", "--model", model, "--steps", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "best" in out

    def test_train_then_tune_suffixless_model(self, tmp_path, capsys):
        model = str(tmp_path / "m")
        rc = main(["train", "--workload", "WC", "--iterations", "20",
                   "--model", model])
        assert rc == 0
        assert f"saved {model}.npz;" in capsys.readouterr().out
        rc = main(["tune", "--workload", "WC", "--model", model,
                   "--steps", "2"])
        assert rc == 0
        assert "best" in capsys.readouterr().out

    def test_cluster_b_evaluate(self, capsys):
        rc = main(
            ["evaluate", "--workload", "PR", "--cluster", "cluster-b"]
        )
        assert rc == 0
        assert "cluster-b" in capsys.readouterr().out


class TestCorpusCLI:
    def test_corpus_generation(self, tmp_path, capsys):
        out = str(tmp_path / "c.npz")
        rc = main(
            [
                "corpus", "--workload", "WC", "--samples", "20",
                "--sampler", "lhs", "--output", out,
            ]
        )
        assert rc == 0
        from repro.data import load_corpus

        corpus = load_corpus(out)
        assert len(corpus) == 20
        assert corpus.workload_id == "WC-D1"
