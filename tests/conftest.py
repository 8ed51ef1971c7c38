"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent

from repro.cluster.hardware import CLUSTER_A
from repro.config.pipeline import build_pipeline_space


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def space():
    return build_pipeline_space()


@pytest.fixture(scope="session")
def cluster_a():
    return CLUSTER_A


@pytest.fixture
def unpinned_python():
    """Run code in a fresh interpreter whose environment sets no BLAS
    thread count (``src`` and ``tests`` on its path); returns the JSON
    of its last stdout line."""
    def run(code: str) -> dict:
        env = {
            k: v for k, v in os.environ.items()
            if not (k.endswith("_THREADS") or k == "VECLIB_MAXIMUM_THREADS")
        }
        env["PYTHONPATH"] = os.pathsep.join(
            [str(TESTS.parent / "src"), str(TESTS)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    return run
