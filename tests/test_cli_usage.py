"""Input the CLI cannot use gets one stderr line, not a traceback.

Count flags below 1 and ``--set`` values a parameter cannot take are
usage errors (exit 2); count flags are checked before any model is
loaded or trained and before any file is written.  A missing input file
exits 1 and writes nothing."""

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


@pytest.mark.parametrize(
    "setting, reason",
    [
        ("spark.executor.cores=abc",
         "invalid literal for int() with base 10: 'abc'"),
        ("spark.memory.fraction=nan", "'nan' is not a number"),
        ("spark.speculation=maybe", "cannot parse boolean 'maybe'"),
        ("spark.serializer=bogus", "'bogus' is not one of java, kryo"),
    ],
)
def test_evaluate_set_value_the_parameter_cannot_take_exits_2(
    setting, reason, capsys
):
    assert main(["evaluate", "--workload", "WC", "--set", setting]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"evaluate: --set {setting}: {reason}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["tune", "--model", "missing.npz"], "missing.npz"),
        (["tune", "--model", "missing"], "missing.npz"),
        (["tune", "--resume", "missing.ckpt"], "missing.ckpt"),
    ],
)
def test_tune_missing_input_file_exits_1(
    argv, missing, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"tune: [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
