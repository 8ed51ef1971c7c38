"""DeepCAT reproduction library.

Implements the full stack of "DeepCAT: A Cost-Efficient Online
Configuration Auto-Tuning Approach for Big Data Frameworks" (ICPP 2022):
the DeepCAT tuner (TD3 + RDPER + Twin-Q Optimizer), the CDBTune and
OtterTune baselines, and the simulated Spark/YARN/HDFS cluster substrate
they tune.

Quickstart
----------
>>> from repro import DeepCAT, make_env
>>> env = make_env("TS", "D1", seed=7)
>>> tuner = DeepCAT.from_env(env, seed=7)
>>> tuner.train_offline(env, iterations=400)      # doctest: +SKIP
>>> session = tuner.tune_online(env, steps=5)     # doctest: +SKIP
>>> session.best_duration_s                       # doctest: +SKIP
"""

from repro.baselines.cdbtune import CDBTune
from repro.cluster.hardware import CLUSTER_A, CLUSTER_B
from repro.config.pipeline import build_pipeline_space
from repro.core.deepcat import DeepCAT
from repro.core.persistence import load_tuner, save_tuner
from repro.envs.tuning_env import TuningEnv
from repro.factory import make_env
from repro.telemetry import RunContext, RunManifest

__version__ = "1.0.0"

__all__ = [
    "DeepCAT",
    "CDBTune",
    "OtterTune",
    "TuningEnv",
    "CLUSTER_A",
    "CLUSTER_B",
    "build_pipeline_space",
    "make_env",
    "save_tuner",
    "load_tuner",
    "RunContext",
    "RunManifest",
    "__version__",
]


def __getattr__(name: str):
    # OtterTune's GP and EI stages import scipy at module level (~1 s), so
    # the class loads on first access (PEP 562), not with the package.
    if name == "OtterTune":
        from repro.baselines.ottertune.tuner import OtterTune

        return OtterTune
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
