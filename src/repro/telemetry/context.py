"""RunContext: one object carrying logger, tracer, metrics, and manifest.

The trainer/tuner/simulator APIs accept a single ``telemetry`` argument
instead of growing one keyword per concern.  The default
:data:`NULL_CONTEXT` wires null implementations of every pillar, so
instrumented hot paths cost one no-op method call when telemetry is off
— no branches, no allocation.

Typical use::

    ctx = RunContext.recording(
        trace="run.jsonl",          # + run.chrome.json written on save()
        metrics="run.prom",         # Prometheus text (.json => JSON)
        manifest="run.manifest.json",
        seed=7,
    )
    tuner.train_offline(env, 1500, telemetry=ctx)
    tuner.tune_online(env, steps=5, telemetry=ctx)
    ctx.save()
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.telemetry.diagnostics import (
    NULL_DIAGNOSTICS,
    DiagnosticsEngine,
    NullDiagnostics,
)
from repro.telemetry.ledger import NULL_LEDGER, CostLedger, NullLedger
from repro.telemetry.manifest import RunManifest
from repro.telemetry.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.tracing import NULL_TRACER, NullTracer, Tracer
from repro.utils.logging import NullLogger, TuningLogger

__all__ = ["RunContext", "NULL_CONTEXT", "ensure_context"]


class RunContext:
    """Carrier for the telemetry pillars of one tuning run.

    Parameters
    ----------
    logger:
        A :class:`~repro.utils.logging.TuningLogger` for discrete events
        (``NullLogger`` when omitted).
    tracer:
        Span tracer; pass a :class:`~repro.telemetry.tracing.Tracer` to
        record, default :class:`NullTracer`.
    metrics:
        A :class:`~repro.telemetry.metrics.MetricsRegistry`; default
        null registry.
    manifest:
        A :class:`~repro.telemetry.manifest.RunManifest` for provenance.
    diagnostics:
        A :class:`~repro.telemetry.diagnostics.DiagnosticsEngine`
        running learning-health detectors; default null engine (all
        hooks are no-ops, ``enabled`` is False).
    trace_path, metrics_path, manifest_path:
        Where :meth:`save` persists each pillar (unset => not written).
    """

    def __init__(
        self,
        logger: TuningLogger | None = None,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | NullRegistry | None = None,
        manifest: RunManifest | None = None,
        diagnostics: DiagnosticsEngine | NullDiagnostics | None = None,
        ledger: CostLedger | NullLedger | None = None,
        trace_path: str | Path | None = None,
        metrics_path: str | Path | None = None,
        manifest_path: str | Path | None = None,
    ):
        self.logger = logger if logger is not None else NullLogger()
        if tracer is None:
            tracer = Tracer() if trace_path is not None else NULL_TRACER
        self.tracer = tracer
        if metrics is None:
            metrics = (
                MetricsRegistry() if metrics_path is not None
                else NULL_REGISTRY
            )
        self.metrics = metrics
        self.manifest = manifest
        self.diagnostics = (
            diagnostics if diagnostics is not None else NULL_DIAGNOSTICS
        )
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self.trace_path = Path(trace_path) if trace_path else None
        self.metrics_path = Path(metrics_path) if metrics_path else None
        self.manifest_path = Path(manifest_path) if manifest_path else None

    # ----------------------------------------------------------- factories

    @classmethod
    def recording(
        cls,
        trace: str | Path | None = None,
        metrics: str | Path | None = None,
        manifest: str | Path | None = None,
        logger: TuningLogger | None = None,
        seed: int | None = None,
        kind: str = "run",
        diagnostics: DiagnosticsEngine | None = None,
        ledger: CostLedger | None = None,
    ) -> "RunContext":
        """A context that records everything, persisting what has a path.

        Unlike the raw constructor, tracer and registry are always live
        here — callers can inspect them in-process even without output
        files.  The diagnostics engine and ledger stay null unless
        passed explicitly (both are opt-in even on a recording context).
        """
        return cls(
            logger=logger,
            tracer=Tracer(),
            metrics=MetricsRegistry(),
            manifest=RunManifest(kind=kind, seed=seed),
            diagnostics=diagnostics,
            ledger=ledger,
            trace_path=trace,
            metrics_path=metrics,
            manifest_path=manifest,
        )

    # ----------------------------------------------------- delegate: spans

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    # ---------------------------------------------------- delegate: events

    def event(self, kind: str, **fields: Any) -> None:
        self.logger.event(kind, **fields)

    # --------------------------------------------------- delegate: metrics

    def count(
        self, name: str, amount: float = 1.0, help: str = "",
        **labels: Any,
    ) -> None:
        self.metrics.counter(name, help=help, labels=labels or None).inc(
            amount
        )

    def observe(
        self, name: str, value: float, help: str = "", **labels: Any
    ) -> None:
        self.metrics.histogram(
            name, help=help, labels=labels or None
        ).observe(value)

    def gauge_set(
        self, name: str, value: float, help: str = "", **labels: Any
    ) -> None:
        self.metrics.gauge(name, help=help, labels=labels or None).set(value)

    # ---------------------------------------------------- delegate: ledger

    def charge(self, account: str, amount_s: float, **kwargs: Any) -> None:
        self.ledger.charge(account, amount_s, **kwargs)

    def counterfactual(
        self, account: str, amount_s: float, **kwargs: Any
    ) -> None:
        self.ledger.counterfactual(account, amount_s, **kwargs)

    # ------------------------------------------------------------- outputs

    def finish(self) -> None:
        """Seal the manifest: wall-clock breakdown + end timestamp."""
        if self.manifest is not None:
            totals = self.tracer.totals()
            if totals:
                self.manifest.record_wall_clock(totals)
            self.manifest.finish()

    def save(self) -> list[Path]:
        """Persist every pillar that has a configured path.

        Returns the list of files written.  The trace is written twice:
        the JSONL tree at ``trace_path`` and a Chrome ``trace_event``
        file next to it (suffix ``.chrome.json``).
        """
        self.finish()
        written: list[Path] = []
        for path in (self.trace_path, self.metrics_path,
                     self.manifest_path):
            if path is not None and path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
        if self.trace_path is not None:
            self.tracer.save_jsonl(self.trace_path)
            written.append(self.trace_path)
            chrome = self.trace_path.with_suffix(".chrome.json")
            self.tracer.save_chrome_trace(chrome)
            written.append(chrome)
        if self.metrics_path is not None:
            if self.metrics_path.suffix == ".json":
                text = self.metrics.to_json_text() + "\n"
            else:
                text = self.metrics.to_prometheus_text()
            self.metrics_path.write_text(text, encoding="utf-8")
            written.append(self.metrics_path)
        if self.manifest_path is not None and self.manifest is not None:
            self.manifest.save(self.manifest_path)
            written.append(self.manifest_path)
        self.ledger.flush()
        if self.ledger.enabled and self.ledger.path is not None:
            written.append(Path(self.ledger.path))
        self.logger.flush()
        return written

    def close(self) -> None:
        self.save()
        self.ledger.close()
        self.logger.close()

    def __enter__(self) -> "RunContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # A context is shared infrastructure, not run state: copying a tuner
    # (e.g. ``fork_tuner`` deep-copies trained models) must alias the
    # same context, not duplicate lock-bearing registries/tracers; and
    # pickling one (a checkpoint, a shard's members) stores the null
    # context, so whoever loads the pickle attaches its own.
    def __copy__(self) -> "RunContext":
        return self

    def __deepcopy__(self, memo) -> "RunContext":
        return self

    def __reduce__(self):
        return ensure_context, (None,)


#: the shared disabled context — all pillars are no-ops
NULL_CONTEXT = RunContext()


def ensure_context(telemetry: RunContext | None) -> RunContext:
    """``telemetry`` itself, or the shared :data:`NULL_CONTEXT` for None."""
    return telemetry if telemetry is not None else NULL_CONTEXT
