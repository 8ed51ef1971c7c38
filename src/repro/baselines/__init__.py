"""Baseline tuners the paper compares against.

* :class:`CDBTune` — DDPG with TD-error prioritized replay (Zhang et al.
  2019), the state-of-the-art DRL database tuner.
* :class:`OtterTune` — GP regression + Expected Improvement with Lasso
  knob ranking and workload mapping (Van Aken et al. 2017).
* :class:`RandomSearchTuner` / :class:`BestConfigTuner` /
  :class:`BayesOptTuner` — search-based extension baselines from the
  paper's related-work families (the paper discusses but does not plot
  them).
"""

import importlib

from repro.baselines.bestconfig import BestConfigTuner
from repro.baselines.cdbtune import CDBTune
from repro.baselines.random_search import RandomSearchTuner

__all__ = [
    "CDBTune",
    "OtterTune",
    "RandomSearchTuner",
    "BestConfigTuner",
    "BayesOptTuner",
]

# The GP tuners import scipy at module level (~1 s), so they load on first
# access (PEP 562), not with the package.
_GP_TUNERS = {
    "OtterTune": "repro.baselines.ottertune.tuner",
    "BayesOptTuner": "repro.baselines.bo",
}


def __getattr__(name: str):
    if name in _GP_TUNERS:
        return getattr(importlib.import_module(_GP_TUNERS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
