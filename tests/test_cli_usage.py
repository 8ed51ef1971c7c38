"""Count flags below 1 are usage errors: one stderr line, exit 2, before
any model is loaded or trained and before any file is written."""

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tune", "--model", "absent.npz", "--steps", "0"],
         "tune: --steps must be >= 1"),
        (["tune", "--model", "absent.npz", "--steps", "-2"],
         "tune: --steps must be >= 1"),
        (["tune", "--model", "absent.npz", "--checkpoint", "c.ckpt",
          "--checkpoint-every", "0"],
         "tune: --checkpoint-every must be >= 1"),
        (["train", "--model", "m.npz", "--iterations", "0"],
         "train: --iterations must be >= 1"),
        (["corpus", "--output", "c.npz", "--samples", "0"],
         "corpus: --samples must be >= 1"),
    ],
)
def test_count_flag_below_one_exits_2(
    argv, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
