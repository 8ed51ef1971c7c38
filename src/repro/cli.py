"""Command-line interface.

Subcommands::

    python -m repro.cli train   --workload TS --dataset D1 --iterations 1500 \
                                --model model.npz
    python -m repro.cli tune    --workload TS --dataset D1 --model model.npz \
                                --steps 5
    python -m repro.cli evaluate --workload TS --dataset D1 [--set k=v ...]
    python -m repro.cli bench-report --scale quick

``train`` runs the offline stage and saves the model; ``tune`` loads it
and serves an online tuning request; ``evaluate`` runs a single
configuration on the simulator (the HiBench-equivalent one-off run);
``bench-report`` regenerates EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import signal
import sys
from pathlib import Path

import numpy as np

from repro.baselines.cdbtune import CDBTune
from repro.cluster.hardware import CLUSTER_A, CLUSTER_B
from repro.core.deepcat import DeepCAT
from repro.core.persistence import load_tuner, save_tuner
from repro.factory import make_env
from repro.faults import PROFILES

__all__ = ["main", "build_parser"]

_CLUSTERS = {"cluster-a": CLUSTER_A, "cluster-b": CLUSTER_B}

#: conventional exit status for "terminated by SIGINT"
_INTERRUPTED_RC = 130


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as KeyboardInterrupt for the wrapped block.

    Long-running commands get one graceful-shutdown path for Ctrl-C and
    ``kill``: flush telemetry, write the final checkpoint, exit 130.
    Restores the previous handler on exit; a no-op off the main thread
    (where ``signal.signal`` is unavailable).
    """

    def handler(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, handler)
    except ValueError:
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DeepCAT reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workload", default="TS",
                       choices=("WC", "TS", "PR", "KM",
                                "BAY", "AGG", "JOIN"))
        p.add_argument("--dataset", default="D1",
                       choices=("D1", "D2", "D3"))
        p.add_argument("--cluster", default="cluster-a",
                       choices=sorted(_CLUSTERS))
        p.add_argument("--seed", type=int, default=0)

    def telemetry_flags(p):
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write a JSONL span trace here (plus a Chrome "
                 "trace_event file next to it, suffix .chrome.json)",
        )
        p.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="write the metrics dump here (.json => JSON, anything "
                 "else => Prometheus text format)",
        )
        p.add_argument(
            "--manifest", default=None, metavar="PATH",
            help="write the run manifest (seed, git SHA, hyper-params, "
                 "wall-clock breakdown) here",
        )
        p.add_argument(
            "--events", default=None, metavar="PATH",
            help="append structured JSONL events (offline-step, "
                 "online-step, sim-stage, ...) here",
        )
        p.add_argument(
            "--ledger", default=None, metavar="PATH",
            help="stream a typed tuning-cost ledger (JSONL) here: "
                 "evaluation/warmup/retry/watchdog_abort/fallback/"
                 "recommendation charges plus Twin-Q counterfactual "
                 "savings; inspect with 'repro explain'",
        )

    def run_flags(p):
        """Profiling/heartbeat flags for the long-running run commands."""
        p.add_argument(
            "--profile", action="store_true",
            help="profile the run with cProfile: write a pstats dump and "
                 "print the top-15 functions by cumulative time",
        )
        p.add_argument(
            "--profile-out", default=None, metavar="PATH",
            help="where to write the pstats dump (default: "
                 "profile.pstats; implies --profile)",
        )
        p.add_argument(
            "--heartbeat", default=None, metavar="PATH",
            help="overwrite a small JSON progress document here every "
                 "step (readable live via 'repro telemetry watch')",
        )
        p.add_argument(
            "--diagnostics", action="store_true",
            help="run the learning-health detectors (Q-overestimation, "
                 "critic divergence, reward plateau, RDPER pool health, "
                 "exploration collapse, intervention rate); alerts go to "
                 "--events and the end-of-run summary. Pure observers: "
                 "science outputs are bit-identical either way",
        )

    p_train = sub.add_parser("train", help="offline-train a tuner")
    common(p_train)
    telemetry_flags(p_train)
    run_flags(p_train)
    p_train.add_argument("--tuner", default="deepcat",
                         choices=("deepcat", "cdbtune"))
    p_train.add_argument("--iterations", type=int, default=1500)
    p_train.add_argument("--model", required=True,
                         help="output model path (.npz appended if missing)")

    p_tune = sub.add_parser("tune", help="serve an online tuning request")
    common(p_tune)
    telemetry_flags(p_tune)
    run_flags(p_tune)
    p_tune.add_argument("--model", default=None,
                        help="trained model path, as given to train "
                        "(required unless --resume)")
    p_tune.add_argument("--steps", type=int, default=5)
    p_tune.add_argument("--time-budget", type=float, default=None,
                        help="total tuning cost constraint in seconds")
    p_tune.add_argument(
        "--fault-profile", default="none", choices=sorted(PROFILES),
        help="chaos preset injected into evaluations (default: none)",
    )
    p_tune.add_argument(
        "--no-resilience", action="store_true",
        help="disable retry/watchdog/safety-guard even under faults",
    )
    p_tune.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="snapshot the session here for crash recovery",
    )
    p_tune.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="snapshot cadence in steps (default: every step)",
    )
    p_tune.add_argument(
        "--resume", default=None, metavar="CKPT",
        help="resume a killed session from its checkpoint; --steps is "
             "the TOTAL step count (already-completed steps are kept)",
    )
    p_tune.add_argument(
        "--no-twin-q", action="store_true",
        help="disable the Twin-Q Optimizer screening for this session "
             "(the model's training is unchanged)",
    )
    p_tune.add_argument(
        "--q-threshold", type=float, default=None, metavar="Q",
        help="override the Twin-Q acceptance threshold Q_th for this "
             "session",
    )
    p_tune.add_argument(
        "--population", type=int, default=None, metavar="N",
        help="serve N independent sessions in one lockstep population "
             "(member i uses the i-th seed derived from --seed); "
             "bit-identical to N sequential runs, much faster",
    )
    p_tune.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="step the population across K spawned worker processes "
             "(a single session always runs in-process); "
             "results are bit-identical to --shards 1",
    )

    p_eval = sub.add_parser(
        "evaluate", help="run one configuration on the simulator"
    )
    common(p_eval)
    p_eval.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a parameter (repeatable)",
    )

    p_rep = sub.add_parser(
        "bench-report", aliases=["report"], help="regenerate EXPERIMENTS.md"
    )
    p_rep.add_argument("--scale", default="quick",
                       choices=("quick", "standard", "full"))
    p_rep.add_argument("--output", default="EXPERIMENTS.md")
    telemetry_flags(p_rep)
    from repro.experiments.engine import add_engine_arguments

    add_engine_arguments(p_rep)

    p_corpus = sub.add_parser(
        "corpus", help="generate an offline sample corpus (.npz)"
    )
    common(p_corpus)
    p_corpus.add_argument("--samples", type=int, default=500)
    p_corpus.add_argument("--sampler", default="uniform",
                          choices=("uniform", "lhs"))
    p_corpus.add_argument("--output", required=True, help="output .npz path")

    p_tel = sub.add_parser(
        "telemetry", help="inspect telemetry artifacts from a tuned run"
    )
    p_tel.add_argument(
        "action", choices=("summary", "dump", "watch", "top", "stitch"),
        help="summary: human-readable cost breakdown; dump: normalized "
             "JSON of the artifact; watch: tail a live heartbeat file; "
             "top: fleet dashboard over many heartbeats (files or "
             "directories); stitch: merge a grid's worker traces into "
             "one Chrome/Perfetto file with the critical path",
    )
    p_tel.add_argument(
        "path", nargs="+",
        help="a trace .jsonl, a metrics .prom/.json dump, a run "
             "manifest .json, an events .jsonl, or (watch/top) "
             "heartbeat files — top also accepts directories to scan; "
             "stitch takes a bus directory or trace .jsonl files",
    )
    p_tel.add_argument(
        "--out", default=None, metavar="PATH",
        help="stitch: where to write the merged Chrome trace (default: "
             "<bus-dir>/stitched.chrome.json)",
    )
    p_tel.add_argument(
        "--min-ms", type=float, default=0.0,
        help="hide spans shorter than this in the trace summary",
    )
    p_tel.add_argument(
        "--follow", action="store_true",
        help="watch: keep re-rendering until interrupted (default: "
             "print the current heartbeat once)",
    )
    p_tel.add_argument(
        "--once", action="store_true",
        help="top: render the dashboard once and exit (default: "
             "refresh until interrupted)",
    )
    p_tel.add_argument(
        "--interval", type=float, default=2.0,
        help="watch --follow / top: poll cadence in seconds",
    )
    p_tel.add_argument(
        "--stale-after", type=float, default=None, metavar="SECONDS",
        help="watch/top: mark a session STALLED when its heartbeat file "
             "is older than this (default: 3x the session's mean step "
             "interval, floor 10s)",
    )
    p_tel.add_argument(
        "--fail-on-stall", action="store_true",
        help="watch/top: exit with status 3 when a session is STALLED "
             "or CRASHED",
    )

    p_doc = sub.add_parser(
        "doctor", help="post-mortem diagnosis of a run's artifacts"
    )
    p_doc.add_argument(
        "path",
        help="a run directory (events/timeline + manifest + heartbeat) "
             "or a single events .jsonl file",
    )
    p_doc.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable diagnosis document",
    )
    p_doc.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N highest-ranked findings",
    )
    p_doc.add_argument(
        "--fail-on-findings", action="store_true",
        help="exit with status 4 when any warning/critical finding "
             "survives ranking (CI gate mode)",
    )

    p_exp = sub.add_parser(
        "explain",
        help="cost breakdown of a run from its tuning-cost ledger",
    )
    p_exp.add_argument(
        "path", nargs="+",
        help="ledger .jsonl file(s), or a run/bus directory containing "
             "a ledgers/ subdirectory; multiple files are merged "
             "(--compare takes exactly two)",
    )
    p_exp.add_argument(
        "--compare", action="store_true",
        help="diff two ledgers account-by-account instead of "
             "summarizing one",
    )
    p_exp.add_argument(
        "--top", type=int, default=5, metavar="K",
        help="show the K most expensive charge entries (default: 5)",
    )
    p_exp.add_argument(
        "--knobs", type=int, default=8, metavar="K",
        help="show the K knobs with the widest cost spread across "
             "evaluated configs (default: 8)",
    )
    return parser


def _coerce(param, raw: str):
    """Parse a CLI override against the parameter's type."""
    from repro.config.parameter import (
        BoolParameter,
        CategoricalParameter,
        FloatParameter,
        IntParameter,
    )

    if isinstance(param, BoolParameter):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"cannot parse boolean {raw!r}")
    if isinstance(param, IntParameter):
        return int(raw)
    if isinstance(param, FloatParameter):
        value = float(raw)
        if math.isnan(value):  # the only float that clipping cannot place
            raise ValueError(f"{raw!r} is not a number")
        return value
    if isinstance(param, CategoricalParameter):
        if raw not in param.choices:
            raise ValueError(
                f"{raw!r} is not one of {', '.join(param.choices)}"
            )
        return raw
    raise TypeError(f"unknown parameter type for {param.name}")


def _run_logger(args, total_steps: int | None):
    """The event logger from --events/--heartbeat (``None`` when unset)."""
    from repro.telemetry import HeartbeatWriter
    from repro.utils.logging import JsonlLogger, TeeLogger

    events = JsonlLogger(args.events) if args.events else None
    heartbeat = (
        HeartbeatWriter(args.heartbeat, total_steps=total_steps)
        if getattr(args, "heartbeat", None)
        else None
    )
    if events and heartbeat:
        return TeeLogger(events, heartbeat)
    return events or heartbeat


def _telemetry_context(args, kind: str, total_steps: int | None = None):
    """Build a RunContext from the --trace/--metrics-out/... flags.

    Returns the shared null context when no flag is set, so the default
    CLI path stays on the telemetry-free fast path.  Without
    ``--trace``/``--metrics-out``/``--manifest``, the ``--events``,
    ``--heartbeat``, ``--diagnostics`` and ``--ledger`` flags get a plain
    context with only their own pillars live.
    """
    from repro.telemetry import NULL_CONTEXT, RunContext

    logger = _run_logger(args, total_steps)
    diagnostics = None
    if getattr(args, "diagnostics", False):
        from repro.telemetry import DiagnosticsEngine

        diagnostics = DiagnosticsEngine()
    ledger = None
    if getattr(args, "ledger", None):
        from repro.telemetry import CostLedger

        ledger = CostLedger(args.ledger)
    if not (args.trace or args.metrics_out or args.manifest):
        if logger is None and diagnostics is None and ledger is None:
            return NULL_CONTEXT
        return RunContext(
            logger=logger,
            diagnostics=diagnostics,
            ledger=ledger,
        )
    ctx = RunContext.recording(
        trace=args.trace,
        metrics=args.metrics_out,
        manifest=args.manifest,
        logger=logger,
        seed=args.seed,
        kind=kind,
        diagnostics=diagnostics,
        ledger=ledger,
    )
    ctx.manifest.workload = args.workload
    ctx.manifest.dataset = args.dataset
    ctx.manifest.extra["cluster_name"] = args.cluster
    return ctx


@contextlib.contextmanager
def _profiled(args):
    """Run the wrapped block under cProfile when --profile[-out] is set.

    On exit (normal or interrupted) the capture stops, the pstats dump
    is written (``--profile-out``, default ``profile.pstats``) and the
    top-15 functions by cumulative time print.
    """
    if not (args.profile or args.profile_out):
        yield
        return
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        yield
    finally:
        prof.disable()
        out = Path(args.profile_out or "profile.pstats")
        out.parent.mkdir(parents=True, exist_ok=True)
        prof.dump_stats(out)
        print(f"\nprofile: wrote pstats dump {out}")
        stats = pstats.Stats(prof).strip_dirs().sort_stats("cumulative")
        stats.print_stats(15)


def _print_diagnostics(ctx) -> None:
    """End-of-run learning-health summary (``--diagnostics`` runs only)."""
    if not ctx.diagnostics.enabled:
        return
    summary = ctx.diagnostics.summary()
    if not summary["alerts_total"]:
        print("diagnostics: healthy (no alerts)")
        return
    print(f"diagnostics: {summary['alerts_total']} alert(s)")
    for name, entry in sorted(summary["by_name"].items()):
        print(
            f"  [{entry['severity']}] {name} x{entry['count']} "
            f"(last step {entry['last_step']})"
        )
    print("diagnostics: run 'repro doctor' on the run artifacts for "
          "ranked remediation hints")


def _apply_twinq_flags(args, tuner) -> None:
    """Apply --no-twin-q / --q-threshold session overrides to a tuner.

    These are plain attributes on the DeepCAT tuner read at tune time;
    agents without Twin-Q (e.g. CDBTune) silently ignore the flags.
    """
    if getattr(args, "no_twin_q", False) and hasattr(tuner, "use_twin_q"):
        tuner.use_twin_q = False
    threshold = getattr(args, "q_threshold", None)
    if threshold is not None and hasattr(tuner, "q_threshold"):
        tuner.q_threshold = float(threshold)


def _print_ledger_summary(ctx) -> None:
    """One-line cost accounting for --ledger runs; details via explain."""
    led = ctx.ledger
    if not led.enabled:
        return
    saved = led.saved_by_screening
    print(
        f"ledger: {len(led.charges())} charge(s) totalling "
        f"{led.total_charged():.1f}s, screening saved {saved:.1f}s"
        + (f" (run 'repro explain {led.path}' for the breakdown)"
           if led.path else "")
    )


def _finish_telemetry(ctx) -> None:
    _print_diagnostics(ctx)
    _print_ledger_summary(ctx)
    written = ctx.save()
    for path in written:
        print(f"telemetry: wrote {path}")


def _finalize_heartbeat(args, status: str) -> None:
    """Stamp the heartbeat's terminal marker so `telemetry top/watch`
    can tell this deliberate exit from a crash (pid gone, no marker)."""
    path = getattr(args, "heartbeat", None)
    if not path:
        return
    from repro.telemetry import finalize_heartbeat

    finalize_heartbeat(path, status)


def _finish_interrupted(ctx, stage: str) -> None:
    """Seal telemetry for a command cut short by SIGINT/SIGTERM.

    The manifest (when recording) is stamped ``interrupted`` so a
    partial run is never mistaken for a complete one.
    """
    if ctx.manifest is not None:
        ctx.manifest.extra["interrupted"] = True
        ctx.manifest.extra["interrupted_stage"] = stage
    _finish_telemetry(ctx)


def _counts_ok(command: str, args, *flags: str) -> bool:
    """Print a usage error for the first count flag below 1."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) < 1:
            print(f"{command}: {flag} must be >= 1", file=sys.stderr)
            return False
    return True


def _cmd_train(args) -> int:
    if not _counts_ok("train", args, "--iterations"):
        return 2
    env = make_env(args.workload, args.dataset,
                   cluster=_CLUSTERS[args.cluster], seed=args.seed)
    cls = DeepCAT if args.tuner == "deepcat" else CDBTune
    tuner = cls.from_env(env, seed=args.seed)
    print(
        f"offline-training {args.tuner} on {args.workload}-{args.dataset} "
        f"({args.iterations} iterations)..."
    )
    ctx = _telemetry_context(
        args, kind="offline-train", total_steps=args.iterations
    )
    with _sigterm_as_interrupt(), _profiled(args):
        try:
            log = tuner.train_offline(env, args.iterations, telemetry=ctx)
        except KeyboardInterrupt:
            saved = save_tuner(tuner, args.model)
            print(f"\ninterrupted: saved partially-trained {saved}")
            _finish_interrupted(ctx, "offline-train")
            _finalize_heartbeat(args, "interrupted")
            return _INTERRUPTED_RC
    saved = save_tuner(tuner, args.model)
    print(
        f"saved {saved}; best configuration seen offline "
        f"{log.best_duration_s:.1f}s (default {env.default_duration:.1f}s)"
    )
    _finish_telemetry(ctx)
    _finalize_heartbeat(args, "completed")
    return 0


def _print_sessions(sessions, numbered: bool) -> None:
    for i, session in enumerate(sessions):
        if numbered:
            print(f"--- session {i + 1}/{len(sessions)} ---")
        for step in session.steps:
            status = "ok" if step.success else "FAILED"
            extras = []
            if step.attempts > 1:
                extras.append(f"{step.attempts} attempts")
            if step.aborted:
                extras.append("watchdog-abort")
            if step.fallback:
                extras.append("fallback")
            if step.faults:
                extras.append("faults: " + ",".join(step.faults))
            suffix = f" [{'; '.join(extras)}]" if extras else ""
            print(
                f"step {step.step + 1}: {step.duration_s:8.1f}s "
                f"(reward {step.reward:+.2f}, {status}){suffix}"
            )
        if any(s.success for s in session.steps):
            print(
                f"best {session.best_duration_s:.1f}s "
                f"({session.speedup_over_default:.2f}x over default), "
                f"total tuning cost {session.total_tuning_seconds:.1f}s"
            )
        else:
            print(
                "no successful step in session; "
                f"total tuning cost {session.total_tuning_seconds:.1f}s"
            )


def _cmd_tune(args) -> int:
    """Serve one session or a ``--population``, or resume the members of
    the ``--resume`` checkpoint.  One member runs the sequential loop;
    more run in lockstep, across ``--shards`` worker processes when K > 1.
    """
    from repro.core.persistence import (
        PopulationCheckpointManager,
        load_population_checkpoint,
    )
    from repro.core.resilience import ResiliencePolicy

    if args.resume is None and args.model is None:
        print("tune: either --model or --resume is required",
              file=sys.stderr)
        return 2
    if not _counts_ok("tune", args, "--steps", "--checkpoint-every"):
        return 2
    if args.resume is not None:
        try:
            ck = load_population_checkpoint(args.resume)
        except OSError as exc:
            print(f"tune: {exc}", file=sys.stderr)
            return 1
        tuners, envs, sessions = ck.tuners, ck.envs, ck.sessions
        resiliences = ck.resiliences
        # keep snapshotting into the same file unless redirected
        ckpt_path = args.checkpoint if args.checkpoint else args.resume
    else:
        if args.population is None:
            seeds = [args.seed]
        elif args.population < 1:
            print("tune: --population must be >= 1", file=sys.stderr)
            return 2
        else:
            from repro.core.population import population_seed_plan

            seeds = population_seed_plan(args.seed, args.population)
        try:
            tuners = [load_tuner(args.model, seed=s) for s in seeds]
        except OSError as exc:
            print(f"tune: {exc}", file=sys.stderr)
            return 1
        if len(tuners) > 1 and not isinstance(tuners[0], DeepCAT):
            # a population stacks TD3's twin critics across its members
            print(f"tune: --population needs a DeepCAT model; {args.model} "
                  f"holds a {tuners[0].name} model", file=sys.stderr)
            return 2
        envs = [
            make_env(args.workload, args.dataset,
                     cluster=_CLUSTERS[args.cluster], seed=1000 + s,
                     fault_profile=args.fault_profile)
            for s in seeds
        ]
        # Resilience rides along with chaos: a fault-free tune keeps the
        # historical single-attempt behaviour unless faults are injected.
        resiliences = [
            ResiliencePolicy.default(seed=s)
            if args.fault_profile != "none" and not args.no_resilience
            else None
            for s in seeds
        ]
        sessions = [None] * len(seeds)
        ckpt_path = args.checkpoint
    numbered = args.population is not None or len(tuners) > 1
    if args.resume is not None:
        done = min(ck.next_steps)
        if done >= args.steps:
            print(f"nothing to do: {args.resume} already has {done} step(s)"
                  + (" in every session" if numbered else ""))
            _print_sessions(sessions, numbered)
            return 0
        what = (
            f"population of {len(tuners)}" if numbered
            else f"{sessions[0].workload}-{sessions[0].dataset}"
        )
        print(f"resuming {what} from {args.resume} "
              f"at step {done + 1}/{args.steps}")
    for tuner in tuners:
        _apply_twinq_flags(args, tuner)
    checkpoint = (
        PopulationCheckpointManager(
            ckpt_path, tuners, envs, resiliences=resiliences,
            every=args.checkpoint_every,
        )
        if ckpt_path
        else None
    )
    if numbered and args.shards < 1:
        print("tune: --shards must be >= 1", file=sys.stderr)
        return 2
    sharded = len(tuners) > 1 and args.shards > 1
    if sharded and args.ledger:
        print(
            "tune: note: --ledger records only parent-side costs under "
            "--shards (worker telemetry is process-local)",
            file=sys.stderr,
        )
    ctx = _telemetry_context(args, kind="online-tune", total_steps=args.steps)
    with _sigterm_as_interrupt(), _profiled(args):
        try:
            if len(tuners) == 1:
                sessions = [tuners[0].tune_online(
                    envs[0], steps=args.steps, time_budget_s=args.time_budget,
                    telemetry=ctx, resilience=resiliences[0],
                    session=sessions[0], checkpoint=checkpoint,
                )]
            elif sharded:
                from repro.parallel import ShardCrash, ShardedPopulation

                population = ShardedPopulation(
                    tuners, envs, shards=args.shards, telemetry=ctx,
                    resiliences=resiliences, sessions=sessions,
                )
                try:
                    sessions = population.tune(
                        steps=args.steps, time_budget_s=args.time_budget,
                        checkpoint=checkpoint,
                    )
                except ShardCrash as exc:
                    print(f"tune: shard failure: {exc}", file=sys.stderr)
                    if checkpoint is not None and checkpoint.saves:
                        print(
                            f"tune: resume from {checkpoint.path} with "
                            f"--resume {checkpoint.path}",
                            file=sys.stderr,
                        )
                    _finish_interrupted(ctx, "online-tune")
                    _finalize_heartbeat(args, "crashed")
                    return 1
            else:
                from repro.core.population import PopulationTuner

                sessions = PopulationTuner.from_deepcat(
                    tuners, envs, telemetry=ctx, resiliences=resiliences,
                    sessions=sessions,
                ).tune(
                    steps=args.steps, time_budget_s=args.time_budget,
                    checkpoint=checkpoint,
                )
        except KeyboardInterrupt:
            print("\ninterrupted", end="")
            if checkpoint is not None:
                what = "population" if numbered else "session"
                print(f": {what} checkpointed to {checkpoint.path}; "
                      f"resume with --resume {checkpoint.path}", end="")
            print()
            _finish_interrupted(ctx, "online-tune")
            _finalize_heartbeat(args, "interrupted")
            return _INTERRUPTED_RC
    _print_sessions(sessions, numbered)
    _finish_telemetry(ctx)
    _finalize_heartbeat(args, "completed")
    return 0


def _cmd_evaluate(args) -> int:
    env = make_env(args.workload, args.dataset,
                   cluster=_CLUSTERS[args.cluster], seed=args.seed)
    config = env.space.defaults()
    for item in args.set:
        if "=" not in item:
            print(f"bad --set {item!r}, expected KEY=VALUE", file=sys.stderr)
            return 2
        key, raw = item.split("=", 1)
        if key not in env.space:
            print(f"unknown parameter {key!r}", file=sys.stderr)
            return 2
        try:
            config[key] = _coerce(env.space[key], raw)
        except ValueError as exc:
            print(f"evaluate: --set {item}: {exc}", file=sys.stderr)
            return 2
    outcome = env.step(env.space.encode(config))
    result = outcome.result
    status = "OK" if result.success else f"FAILED: {result.failure_reason}"
    print(
        f"{args.workload}-{args.dataset} on {args.cluster}: "
        f"{result.duration_s:.1f}s [{status}]"
    )
    from repro.sim.timeline import render_timeline

    print(render_timeline(result))
    return 0


def _report_telemetry_context(args):
    """Like :func:`_telemetry_context` but for the report command.

    ``bench-report`` has no workload/dataset/seed flags, so the manifest
    records only the run kind and scale.
    """
    from repro.telemetry import NULL_CONTEXT, RunContext
    from repro.utils.logging import JsonlLogger

    if not (
        args.trace or args.metrics_out or args.manifest or args.events
        or getattr(args, "ledger", None)
    ):
        return NULL_CONTEXT
    ledger = None
    if getattr(args, "ledger", None):
        from repro.telemetry import CostLedger

        ledger = CostLedger(args.ledger)
    ctx = RunContext.recording(
        trace=args.trace,
        metrics=args.metrics_out,
        manifest=args.manifest,
        logger=JsonlLogger(args.events) if args.events else None,
        seed=0,
        kind="bench-report",
        ledger=ledger,
    )
    ctx.manifest.extra["scale"] = args.scale
    ctx.manifest.extra["jobs"] = args.jobs
    return ctx


def _cmd_bench_report(args) -> int:
    from repro.experiments.engine import (
        EngineTaskError,
        render_failure_report,
    )
    from repro.experiments.report import (
        build_report,
        engine_from_args,
        write_failure_report,
    )

    ctx = _report_telemetry_context(args)
    engine = engine_from_args(args, telemetry=ctx)
    with _sigterm_as_interrupt():
        try:
            report = build_report(args.scale, engine=engine)
        except KeyboardInterrupt:
            print("\ninterrupted: report not written "
                  "(completed sessions stay in the result cache)")
            _finish_interrupted(ctx, "bench-report")
            return _INTERRUPTED_RC
        except EngineTaskError as exc:
            # The grid ran to completion first; everything that
            # succeeded is cached, so a re-run is incremental.
            print(render_failure_report(exc.report), file=sys.stderr)
            print("report: tasks failed permanently; report not written "
                  "(rerun with --lenient to accept partial results)",
                  file=sys.stderr)
            write_failure_report(engine, args.failure_report)
            _finish_telemetry(ctx)
            return 1
    with open(args.output, "w") as fh:
        fh.write(report)
    print(f"wrote {args.output} at scale {args.scale!r}")
    print(f"engine: {engine.stats.summary()}")
    write_failure_report(engine, args.failure_report)
    _finish_telemetry(ctx)
    return 0


def _cmd_corpus(args) -> int:
    import numpy as np

    from repro.data import generate_corpus, save_corpus

    if not _counts_ok("corpus", args, "--samples"):
        return 2
    env = make_env(args.workload, args.dataset,
                   cluster=_CLUSTERS[args.cluster], seed=args.seed)
    corpus = generate_corpus(
        env,
        f"{args.workload}-{args.dataset}",
        args.samples,
        np.random.default_rng(args.seed),
        sampler=args.sampler,
    )
    save_corpus(corpus, args.output)
    print(
        f"wrote {args.output}: {len(corpus)} samples, "
        f"{corpus.failure_rate * 100:.1f}% failed, "
        f"best {corpus.best_duration_s:.1f}s"
    )
    return 0


def _cmd_telemetry(args) -> int:
    if args.action == "watch":
        return _cmd_telemetry_watch(args)
    if args.action == "top":
        return _cmd_telemetry_top(args)
    if args.action == "stitch":
        return _cmd_telemetry_stitch(args)
    if len(args.path) > 1:
        print("telemetry: summary/dump take exactly one path",
              file=sys.stderr)
        return 2
    path = args.path[0]
    if not os.path.isfile(path):
        print(f"{path}: no such file", file=sys.stderr)
        return 1
    from repro.telemetry.artifacts import ArtifactError, render_artifact

    try:
        text, notes = render_artifact(
            path, dump=args.action == "dump",
            min_duration_s=args.min_ms / 1e3,
        )
    except ArtifactError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        # Truncated traces, half-written JSON, unreadable files: one
        # clear line on stderr, exit 1, no traceback.
        print(f"{path}: cannot read artifact: {exc}", file=sys.stderr)
        return 1
    for note in notes:
        print(note, file=sys.stderr)
    print(text, end="")
    return 0


def _poll(args, render, once: bool, repaint: str = "") -> int:
    """Print ``render()``'s text, again every ``--interval`` seconds until
    interrupted unless ``once``; exit 3 on a stalled or crashed session
    under ``--fail-on-stall``."""
    import time

    prefix = ""
    try:
        while True:
            text, unhealthy = render()
            print(prefix + text, flush=True)
            if unhealthy and args.fail_on_stall:
                return 3
            if once:
                return 0
            prefix = repaint
            time.sleep(max(args.interval, 0.1))
    except KeyboardInterrupt:
        return 0


def _cmd_telemetry_watch(args) -> int:
    from repro.telemetry.artifacts import watch_line

    def render():
        line, status = watch_line(args.path[0], args.stale_after)
        return line, status in ("stalled", "crashed")

    try:
        return _poll(args, render, once=not args.follow)
    except ValueError as exc:
        print(f"watch: {exc}", file=sys.stderr)
        return 1


def _cmd_telemetry_top(args) -> int:
    from repro.telemetry.artifacts import render_top

    def render():
        text, unhealthy = render_top(args.path, args.stale_after)
        return text, unhealthy > 0

    # Clear and repaint so the table stays in place like top(1).
    return _poll(args, render, once=args.once, repaint="\x1b[2J\x1b[H")


def _cmd_telemetry_stitch(args) -> int:
    from repro.telemetry.artifacts import ArtifactError, stitch_report

    try:
        text = stitch_report(args.path, args.out)
    except ArtifactError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(text, end="")
    return 0


def _cmd_doctor(args) -> int:
    import json as _json

    from repro.telemetry.doctor import diagnose_run, render_diagnosis

    if not os.path.exists(args.path):
        print(f"doctor: {args.path}: no such file or directory",
              file=sys.stderr)
        return 1
    report = diagnose_run(args.path)
    if args.as_json:
        print(_json.dumps(report, indent=2, default=str))
    else:
        print(render_diagnosis(report, top=args.top), end="")
    if args.fail_on_findings and not report["healthy"]:
        return 4
    return 0


def _cmd_explain(args) -> int:
    from repro.telemetry.artifacts import ArtifactError, explain

    if args.compare and len(args.path) != 2:
        print("explain: --compare takes exactly two paths", file=sys.stderr)
        return 2
    try:
        text = explain(args.path, args.compare, args.top, args.knobs)
    except ArtifactError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"explain: {exc}", file=sys.stderr)
        return 1
    print(text, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "tune": _cmd_tune,
        "evaluate": _cmd_evaluate,
        "bench-report": _cmd_bench_report,
        "report": _cmd_bench_report,
        "corpus": _cmd_corpus,
        "telemetry": _cmd_telemetry,
        "explain": _cmd_explain,
        "doctor": _cmd_doctor,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
