"""Experiment harness — one module per paper artifact.

Every ``fig*`` module exposes ``run(scale) -> <result dataclass>`` and a
``format_result`` helper that prints the same rows/series the paper's
table or figure reports.  ``scale`` selects between the quick preset
(used by the benchmark suite), the standard preset (used to generate
``EXPERIMENTS.md``) and the full preset.

Artifact map (see DESIGN.md §4 for the full index):

====================  ==============================================
module                paper artifact
====================  ==============================================
``tables``            Tables 1 and 2
``fig2_cdf``          Figure 2 (random-config CDF)
``fig3_twinq_trend``  Figure 3 (twin-Q vs reward trend)
``fig4_rdper``        Figure 4 (RDPER convergence)
``fig5_twinq_ablation``  Figure 5 (Twin-Q on/off)
``fig6_speedup``      Figure 6 (speedup over default)
``fig7_tuning_cost``  Figure 7 (total tuning cost)
``fig8_cost_constraint`` Figure 8 (best-so-far / accumulated cost)
``fig9_workload_adapt``  Figure 9 (workload transfer)
``fig10_hardware_adapt`` Figure 10 (Cluster-A -> Cluster-B)
``fig11_beta``        Figure 11 (RDPER β sweep)
``fig12_qth``         Figure 12 (Q_th sweep)
``cost_breakdown``    (extension) instrumented-session telemetry
``ablations``         (extension) agent x replay matrix
``whitebox_ablation`` (extension) reduced-space tuning
``drift``             (extension) workload-drift request stream
``fault_sweep``       (extension) tuning quality under chaos profiles
``headline``          abstract-level claim checks
``engine``            parallel task engine + on-disk result cache
``report``            EXPERIMENTS.md generator
====================  ==============================================

Every ``run()`` accepts an ``engine`` keyword
(:class:`~repro.experiments.engine.ExperimentEngine`) to shard its grid
over worker processes and serve previously computed cells from the
content-addressed on-disk cache; omitting it runs inline and uncached,
exactly as the serial harness always did.
"""

from repro.experiments.common import (
    SCALES,
    ExperimentScale,
    clear_model_cache,
    get_scale,
    train_cdbtune,
    train_deepcat,
    train_ottertune,
)
from repro.experiments.engine import (
    ExperimentEngine,
    ResultCache,
    TaskSpec,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "train_deepcat",
    "train_cdbtune",
    "train_ottertune",
    "clear_model_cache",
    "ExperimentEngine",
    "ResultCache",
    "TaskSpec",
]
