"""EXPERIMENTS.md generator: paper-vs-measured for every artifact.

``build_report(scale)`` runs the full experiment suite at the given scale
and renders a markdown report with the paper's numbers next to ours.
The repository's checked-in ``EXPERIMENTS.md`` is produced by::

    python -m repro.experiments.report --scale standard

Generation is sharded through the experiment engine: ``jobs`` fans the
grid cells out over worker processes and ``cache_dir`` makes repeated
invocations incremental (only tasks whose parameters — or the code salt
— changed are recomputed).  Parallelism and caching never change the
report's science; see ``docs/experiments.md``.
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np

from repro.experiments import (
    cost_breakdown,
    fault_sweep,
    fig2_cdf,
    fig3_twinq_trend,
    fig4_rdper,
    fig5_twinq_ablation,
    fig6_speedup,
    fig7_tuning_cost,
    fig8_cost_constraint,
    fig9_workload_adapt,
    fig10_hardware_adapt,
    fig11_beta,
    fig12_qth,
    tables,
)
from repro.experiments.common import get_scale
from repro.experiments.engine import (
    ExperimentEngine,
    ResultCache,
    add_engine_arguments,
)

__all__ = [
    "build_report",
    "make_engine",
    "engine_from_args",
    "write_failure_report",
]


def _block(text: str) -> str:
    return f"```\n{text}\n```\n"


def make_engine(
    jobs: int = 1,
    cache_dir: str | None = None,
    telemetry=None,
    bus_dir: str | None = None,
    task_retries: int = 2,
    task_timeout: float | None = None,
    failure_mode: str = "strict",
    chaos=None,
) -> ExperimentEngine:
    """The engine a report run shares across all figure modules."""
    from repro.telemetry import NULL_CONTEXT

    return ExperimentEngine(
        jobs=jobs,
        cache=ResultCache(cache_dir) if cache_dir else None,
        telemetry=telemetry if telemetry is not None else NULL_CONTEXT,
        bus_dir=bus_dir,
        task_retries=task_retries,
        task_timeout=task_timeout,
        failure_mode=failure_mode,
        chaos=chaos,
    )


def build_report(
    scale: str = "quick",
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    engine: ExperimentEngine | None = None,
) -> str:
    """Run every experiment and render the markdown report.

    ``jobs``/``cache_dir`` build a fresh engine; pass ``engine`` instead
    to share one (and its telemetry/statistics) with the caller.
    """
    if engine is None:
        engine = make_engine(jobs=jobs, cache_dir=cache_dir)
    sc = get_scale(scale)
    out = io.StringIO()
    w = out.write

    w("# EXPERIMENTS — paper vs measured\n\n")
    w(
        "All measurements come from the simulated 3-node Spark cluster "
        "(see DESIGN.md §2 for the substitution rationale), at the "
        f"`{sc.name}` experiment scale ({sc.offline_iterations} offline "
        f"iterations, seeds {list(sc.seeds)}, {sc.online_steps} online "
        "steps).  Absolute numbers are not expected to match the paper's "
        "physical testbed; the *shape* — who wins, by roughly what "
        "factor, where the trade-offs fall — is the reproduction "
        "target.\n\n"
    )

    w("## Tables 1 and 2 — experimental setup\n\n")
    w(_block(tables.table1()))
    w(_block(tables.table2()))
    w(
        "\nBoth match the paper exactly by construction: the same 12 "
        "workload-input pairs and the same 20/7/5 parameter split.\n\n"
    )

    w("## Figure 2 — CDF of 200 random configurations (TeraSort D1)\n\n")
    r2 = fig2_cdf.run(scale, engine=engine)
    w(_block(fig2_cdf.format_result(r2)))
    w(
        "\n**Paper:** easy to beat the default, but close-to-optimal "
        "configurations are far fewer than sub-optimal ones.  "
        f"**Measured:** {r2.prob_within(1.2) * 100:.1f}% of random "
        "configurations land within 1.2x of the found optimum while "
        "most beat the default — the same sparse-optimum shape.\n\n"
    )

    w("## Figure 3 — twin-Q vs real reward during offline training\n\n")
    r3 = fig3_twinq_trend.run(scale, engine=engine)
    w(_block(fig3_twinq_trend.format_result(r3)))
    w(
        "\n**Paper:** min(Q1, Q2) shares the real reward's trend, "
        "justifying the Twin-Q indicator.  **Measured:** post-warmup "
        f"correlation {r3.correlation:.2f}.\n\n"
    )

    w("## Figure 4 — RDPER vs conventional replay\n\n")
    r4 = fig4_rdper.run(scale, engine=engine)
    w(_block(fig4_rdper.format_result(r4)))
    w(
        "\n**Paper:** TD3+RDPER converges 1.60x faster and finds a "
        "12.11% better configuration.  **Measured:** convergence "
        f"speedup {r4.convergence_speedup():.2f}x; final best "
        f"{r4.best_with_rdper[-1]:.1f}s vs "
        f"{r4.best_without_rdper[-1]:.1f}s ("
        f"{(1 - r4.best_with_rdper[-1] / r4.best_without_rdper[-1]) * 100:+.1f}%"
        " for RDPER).\n\n"
    )

    w("## Figure 5 — Twin-Q Optimizer ablation\n\n")
    r5 = fig5_twinq_ablation.run(scale, engine=engine)
    w(_block(fig5_twinq_ablation.format_result(r5)))
    w(
        "\n**Paper:** -19.29% total 5-step cost, 7.29% better best "
        f"configuration.  **Measured:** {r5.total_reduction_pct:+.1f}% "
        f"total cost, {r5.best_improvement_pct:+.1f}% best "
        "configuration.  This is the weakest-reproducing effect: our "
        "offline policies converge well enough on the simulator that "
        "online recommendations are rarely deeply sub-optimal, so the "
        "screening mostly prevents failures and marginal steps rather "
        "than saving the paper's ~20% (see the Q_th discussion under "
        "Figure 12).\n\n"
    )

    w("## Figures 6-8 — comparison with CDBTune and OtterTune\n\n")
    r6 = fig6_speedup.run(scale, engine=engine)
    w(_block(fig6_speedup.format_result(r6)))
    avg = r6.average_speedups()
    w(
        "\n**Paper:** average speedups 4.66x (DeepCAT), 3.21x (CDBTune), "
        "2.82x (OtterTune) => DeepCAT leads 1.45x / 1.65x.  "
        f"**Measured:** {avg['DeepCAT']:.2f}x / {avg['CDBTune']:.2f}x / "
        f"{avg['OtterTune']:.2f}x => DeepCAT leads "
        f"{r6.relative_speedup('CDBTune'):.2f}x / "
        f"{r6.relative_speedup('OtterTune'):.2f}x.  The KMeans pairs "
        "show the largest DeepCAT margin, as in the paper (§5.2.1).\n\n"
    )

    r7 = fig7_tuning_cost.run(scale, engine=engine)
    w(_block(fig7_tuning_cost.format_result(r7)))
    avg_c, max_c = r7.reduction_vs_cdbtune()
    avg_o, max_o = r7.reduction_vs_ottertune()
    w(
        "\n**Paper:** total online tuning time -24.64% avg / -50.08% max "
        "vs CDBTune and -39.71% avg / -53.39% max vs OtterTune; DRL "
        "recommendation time is sub-second while OtterTune's GP "
        f"retraining is noticeable.  **Measured:** {-avg_c:+.1f}% avg / "
        f"{-max_c:+.1f}% max vs CDBTune and {-avg_o:+.1f}% avg / "
        f"{-max_o:+.1f}% max vs OtterTune (negative = DeepCAT cheaper); "
        "recommendation-time breakdown shows the same orders of "
        "magnitude (milliseconds for the DRL tuners, a GP fit per step "
        "for OtterTune).\n\n"
    )

    r8 = fig8_cost_constraint.run(scale, engine=engine)
    w(_block(fig8_cost_constraint.format_result(r8)))
    w(
        "\n**Paper:** DeepCAT reaches a better configuration with less "
        "accumulated cost at every step, so it wins under any tuning "
        "cost constraint.  **Measured:** the per-step series above "
        "(best-so-far / accumulated cost per tuner).\n\n"
    )

    w("## Figure 9 — workload adaptability (PageRank D1)\n\n")
    r9 = fig9_workload_adapt.run(scale, engine=engine)
    w(_block(fig9_workload_adapt.format_result(r9)))
    w(
        "\n**Paper:** transferred DeepCAT models land within 11.22-19.44% "
        "of the natively trained model and beat both baselines; "
        "M_TS->PR transfers worst.  **Measured:** transfer penalties "
        + ", ".join(
            f"M_{s}->PR {r9.transfer_penalty_pct(s):+.1f}%"
            for s in ("WC", "TS", "KM")
        )
        + ".  Transfer penalties run higher and noisier than the "
        "paper's: our load-average state carries little workload "
        "signal during single-workload offline training, so a "
        "transferred policy leans on its source workload's optimum "
        "plus online fine-tuning, and the simulator's per-workload "
        "optima differ more than the testbed's apparently did.  The "
        "qualitative claim that transferred models remain usable (all "
        "beat the default comfortably) holds.\n\n"
    )

    w("## Figure 10 — hardware adaptability (Cluster-A -> Cluster-B)\n\n")
    r10 = fig10_hardware_adapt.run(scale, engine=engine)
    w(_block(fig10_hardware_adapt.format_result(r10)))
    w(
        "\n**Paper:** on Cluster-B, speedups 1.68/1.30/1.17x (WC) and "
        "1.42/1.25/1.09x (PR) for DeepCAT/CDBTune/OtterTune.  "
        "**Measured:** see table; all tuners beat Cluster-B's default "
        "from A-trained models, with DeepCAT leading on average.\n\n"
    )

    w("## Figure 11 — RDPER ratio beta\n\n")
    r11 = fig11_beta.run(scale, engine=engine)
    w(_block(fig11_beta.format_result(r11)))
    w(
        "\n**Paper:** U-shaped; beta in [0.4, 0.7] works best, 0.6 "
        f"chosen.  **Measured:** best beta {r11.best_beta():.1f}; the "
        "library default is the paper's 0.6.\n\n"
    )

    w("## Figure 12 — Q-value threshold\n\n")
    r12 = fig12_qth.run(scale, engine=engine)
    w(_block(fig12_qth.format_result(r12)))
    best_qth = r12.thresholds[
        int(np.argmin(r12.best))
    ]
    w(
        "\n**Paper:** Q_th = 0.5 finds the best configuration but costs "
        "the most; 0.3 is the cost sweet spot (2.54s worse best).  "
        f"**Measured:** best configuration at Q_th = {best_qth:.1f}, "
        f"cheapest session at Q_th = {r12.cheapest_threshold():.1f}.  "
        "Absolute Q values are implementation-specific (they depend on "
        "gamma and the reward scale), so the paper's §5.4.2 selection "
        "rule — not its constant — is what this library applies; the "
        "shipped default Q_th = 0.4 was chosen by that rule on this "
        "implementation's Q scale.\n\n"
    )

    w("## Robustness — fault sweep (extension)\n\n")
    rfs = fault_sweep.run(scale, engine=engine)
    w(_block(fault_sweep.format_result(rfs)))
    w(
        "\nNot a paper artifact: each column injects one chaos preset "
        "(stragglers, executor loss, crashes, hangs, metric dropout — "
        "see `docs/robustness.md`) into the online evaluations while the "
        "default retry/watchdog/safety-guard policy defends the session. "
        "**Measured:** final best configuration degrades "
        + ", ".join(
            f"{p} {rfs.degradation_pct(p):+.1f}%"
            for p in rfs.profiles if p != "none"
        )
        + " vs the clean arm — quality decays gracefully rather than "
        "collapsing, at the price of the extra attempts/step shown.\n\n"
    )

    w("## Telemetry — cost breakdown of an instrumented session\n\n")
    rcb = cost_breakdown.run(scale)
    w(_block(cost_breakdown.format_result(rcb)))
    w(
        "\nEvery run can emit this breakdown (`repro train/tune --trace "
        "... --metrics-out ...` or `RunContext` in code): wall-clock per "
        "pipeline stage, Twin-Q screening counters, and RDPER pool "
        "gauges.  The recommendation share above is the tuner's own "
        "overhead — the paper's claim that DRL recommendation time is "
        "negligible next to evaluation time, measured live "
        f"({rcb.recommendation_share * 100:.2f}% of online wall-clock "
        "in this session).\n\n"
    )

    return out.getvalue()


def engine_from_args(args: argparse.Namespace, telemetry=None
                     ) -> ExperimentEngine:
    """Build the engine from :func:`add_engine_arguments` flags."""
    chaos = None
    if args.chaos_kill_rate > 0.0:
        from repro.faults import WorkerChaos

        chaos = WorkerChaos(seed=args.chaos_seed,
                            kill_rate=args.chaos_kill_rate)
    return make_engine(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        telemetry=telemetry,
        bus_dir=args.bus_dir,
        task_retries=args.task_retries,
        task_timeout=args.task_timeout,
        failure_mode="lenient" if args.lenient else "strict",
        chaos=chaos,
    )


def write_failure_report(engine: ExperimentEngine,
                         path: str | None) -> None:
    """Dump the engine's JSON failure report (the CI soak artifact)."""
    if not path:
        return
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(engine.failure_report(), fh, indent=2)
    print(f"wrote failure report {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="quick",
                        choices=("quick", "standard", "full"))
    parser.add_argument("--output", default="EXPERIMENTS.md")
    add_engine_arguments(parser)
    args = parser.parse_args()
    engine = engine_from_args(args)
    from repro.experiments.engine import (
        EngineTaskError,
        render_failure_report,
    )

    try:
        report = build_report(args.scale, engine=engine)
    except EngineTaskError as exc:
        print(render_failure_report(exc.report), file=sys.stderr)
        write_failure_report(engine, args.failure_report)
        raise SystemExit(1)
    with open(args.output, "w") as fh:
        fh.write(report)
    print(f"wrote {args.output} at scale {args.scale!r}")
    print(f"engine: {engine.stats.summary()}")
    write_failure_report(engine, args.failure_report)


if __name__ == "__main__":
    main()
