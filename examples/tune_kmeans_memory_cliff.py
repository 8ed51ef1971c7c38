"""KMeans: tuning across the memory cliff.

The paper singles out KMeans (§5.2.1): intermediate results must be
cached in executor memory, under-provisioning causes OOM errors, and
high-reward transitions become extra sparse.  This example shows the
cliff directly on the simulator — cache deficit, spills, GC and OOM as
executor memory shrinks — and then lets DeepCAT tune across it.

Run:  python examples/tune_kmeans_memory_cliff.py
"""

from repro import DeepCAT, make_env
from repro.utils.tables import format_table


def sweep_memory_cliff() -> None:
    env = make_env("KM", "D1", seed=0, noise_sigma=0.0)
    base = env.space.defaults() | {
        "spark.executor.cores": 4,
        "spark.executor.instances": 6,
        "spark.executor.memoryOverhead": 512,
        "spark.memory.storageFraction": 0.6,
        "yarn.nodemanager.resource.memory-mb": 14336,
        "yarn.scheduler.maximum-allocation-mb": 14336,
        "yarn.nodemanager.resource.cpu-vcores": 16,
        "yarn.scheduler.maximum-allocation-vcores": 16,
    }
    rows = []
    for heap in (6144, 4096, 3072, 2048, 1536, 1024):
        config = dict(base, **{"spark.executor.memory": heap})
        result = env.simulator.evaluate(config)
        if result.success:
            iter_stage = result.stage("assign-iter-0")
            rows.append(
                (
                    heap,
                    f"{result.duration_s:.0f}",
                    f"{iter_stage.cache_deficit * 100:.0f}%",
                    f"{iter_stage.spill_fraction * 100:.0f}%",
                    f"{iter_stage.gc_multiplier:.2f}",
                    "ok",
                )
            )
        else:
            rows.append((heap, "-", "-", "-", "-", result.failure_reason))
    print(
        format_table(
            headers=(
                "executor heap (MB)",
                "duration (s)",
                "cache deficit",
                "spill",
                "GC factor",
                "outcome",
            ),
            rows=rows,
            title="KMeans D1: the executor-memory cliff (6 executors x 4 cores)",
        )
    )


def tune_with_deepcat() -> None:
    env = make_env("KM", "D1", seed=11)
    print(
        f"\ndefault configuration: {env.default_duration:.0f}s "
        "(cache thrashing: the 9.3 GB deserialized dataset does not fit)"
    )
    tuner = DeepCAT.from_env(env, seed=11)
    tuner.train_offline(env, iterations=900)
    session = tuner.tune_online(make_env("KM", "D1", seed=77), steps=5)
    print(
        f"DeepCAT best after 5 online steps: {session.best_duration_s:.0f}s "
        f"({session.speedup_over_default:.1f}x over default)"
    )
    best = session.best_config
    print(
        "memory-relevant knobs of the best configuration: "
        f"executor.memory={best['spark.executor.memory']}MB, "
        f"instances={best['spark.executor.instances']}, "
        f"storageFraction={best['spark.memory.storageFraction']:.2f}, "
        f"serializer={best['spark.serializer']}"
    )


if __name__ == "__main__":
    sweep_memory_cliff()
    tune_with_deepcat()
