"""What a fresh interpreter loads: no scipy until a GP tuner is used,
no profiler until ``--profile`` is, and no artifact reader until an
inspection command (``telemetry``, ``explain``) runs.

OtterTune's GP and Expected Improvement stages, which BayesOptTuner
reuses, import scipy at module level: about a second and most of a
fresh process's memory.  ``repro``, ``repro.baselines`` and
``repro.experiments.common`` load them on first use, so a CLI start, a
``repro train``/``repro tune`` run and an engine worker that never runs
a GP tuner pay nothing for scipy.  Likewise only the CLI's
``--profile`` capture imports ``cProfile`` and ``pstats``.  Each case
runs in a new interpreter, because this one has imported everything
long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: appended to every case: the scipy, figure and profiler modules it
#: left loaded
REPORT_LOADED = """
import json as _json, sys as _sys
print(_json.dumps({
    "scipy": sorted(m for m in _sys.modules
                    if m == "scipy" or m.startswith("scipy.")),
    "figures": sorted(m for m in _sys.modules
                      if m.startswith("repro.experiments.fig")),
    "profilers": sorted(m for m in ("cProfile", "pstats", "tracemalloc")
                        if m in _sys.modules),
    **globals().get("extra", {}),
}))
"""


def _fresh(code, cwd=None):
    """Run ``code`` in a new interpreter and return what it reported."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT_LOADED],
        capture_output=True, text=True, timeout=300, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_repro_loads_no_scipy():
    loaded = _fresh("import repro")
    assert loaded["scipy"] == []
    assert loaded["profilers"] == []


def test_cli_parser_loads_no_scipy_and_no_figure_module():
    loaded = _fresh("import repro.cli\nrepro.cli.build_parser()")
    assert loaded == {"scipy": [], "figures": [], "profilers": []}


def test_artifact_readers_load_only_with_their_commands():
    loaded = _fresh(
        "import sys\n"
        "import repro, repro.cli\n"
        "repro.cli.build_parser()\n"
        "extra = {'artifacts': 'repro.telemetry.artifacts' in sys.modules}\n"
    )
    assert loaded["artifacts"] is False


def test_cli_runs_load_no_scipy(tmp_path):
    loaded = _fresh(
        "from repro.cli import main\n"
        "assert main(['train', '--iterations', '60', '--model', 'm']) == 0\n"
        "assert main(['tune', '--model', 'm', '--steps', '2',\n"
        "             '--fault-profile', 'flaky']) == 0\n"
        "assert main(['corpus', '--samples', '20', '--output', 'c']) == 0\n",
        cwd=tmp_path,
    )
    assert loaded["scipy"] == []
    assert loaded["profilers"] == []


def test_gp_tuners_resolve_to_their_classes():
    loaded = _fresh(
        "from repro import OtterTune as top\n"
        "from repro.baselines import OtterTune as ot, BayesOptTuner as bo\n"
        "from repro.baselines import *\n"
        "import repro.baselines.bo, repro.baselines.ottertune.tuner\n"
        "extra = {'same': [\n"
        "    top is ot is OtterTune\n"
        "    is repro.baselines.ottertune.tuner.OtterTune,\n"
        "    bo is BayesOptTuner is repro.baselines.bo.BayesOptTuner,\n"
        "]}\n"
    )
    assert loaded["same"] == [True, True]


def test_unknown_attribute_still_raises():
    loaded = _fresh(
        "import repro, repro.baselines\n"
        "extra = {'errors': []}\n"
        "for module in (repro, repro.baselines):\n"
        "    try:\n"
        "        module.NoSuchTuner\n"
        "    except AttributeError as exc:\n"
        "        extra['errors'].append(str(exc))\n"
    )
    assert loaded["errors"] == [
        "module 'repro' has no attribute 'NoSuchTuner'",
        "module 'repro.baselines' has no attribute 'NoSuchTuner'",
    ]
    assert loaded["scipy"] == []


def test_train_ottertune_loads_scipy_before_any_recommendation():
    """The offline stage pays scipy's import, so OtterTune's first timed
    ``recommendation_s`` does not."""
    loaded = _fresh(
        "import sys\n"
        "from repro.experiments.common import train_ottertune\n"
        "before = 'scipy' in sys.modules\n"
        "train_ottertune('WC', 'D1', seed=0, samples=10)\n"
        "extra = {'before': before}\n"
    )
    assert loaded["before"] is False
    assert {"scipy.stats", "scipy.linalg"} <= set(loaded["scipy"])
