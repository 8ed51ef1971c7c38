"""Telemetry: metrics, span tracing, and run provenance.

Three pillars, one carrier object:

* :mod:`repro.telemetry.metrics` — thread-safe counters / gauges /
  histograms with Prometheus-text and JSON exporters;
* :mod:`repro.telemetry.tracing` — hierarchical ``span()`` timing trees
  exportable as JSONL and Chrome ``trace_event``;
* :mod:`repro.telemetry.manifest` — run provenance (seed, git SHA,
  hyper-parameters, cluster spec, wall-clock breakdown);
* :mod:`repro.telemetry.diagnostics` — streaming learning-health
  detectors emitting severity-graded ``alert`` events;
* :mod:`repro.telemetry.bus` — per-worker JSONL event streams merged
  into one ordered timeline across ``--jobs N`` processes;
* :mod:`repro.telemetry.ledger` — streaming tuning-cost ledger with
  typed accounts and Twin-Q counterfactual (avoided-cost) entries;
* :mod:`repro.telemetry.stitch` — cross-process trace stitching into
  one Chrome/Perfetto file with a computed critical path;
* :mod:`repro.telemetry.doctor` — post-mortem diagnosis over a run
  directory (events + manifest + heartbeat);
* :mod:`repro.telemetry.artifacts` — reads and renders every artifact
  for ``repro telemetry`` and ``repro explain`` (loaded by those
  commands only, not by this package);
* :mod:`repro.telemetry.context` — :class:`RunContext` bundling all of
  the above plus the event logger, with a zero-overhead null default.

See ``docs/observability.md`` for the metric/span/event catalog.
"""

from repro.telemetry.bus import BusWriter, merge_timeline
from repro.telemetry.context import NULL_CONTEXT, RunContext, ensure_context
from repro.telemetry.diagnostics import (
    NULL_DIAGNOSTICS,
    Alert,
    DiagnosticsConfig,
    DiagnosticsEngine,
    NullDiagnostics,
)
from repro.telemetry.heartbeat import (
    HeartbeatWriter,
    default_stale_after,
    finalize_heartbeat,
    heartbeat_status,
    pid_alive,
    read_heartbeat,
    render_heartbeat,
)
from repro.telemetry.ledger import (
    LEDGER_SCHEMA,
    NULL_LEDGER,
    CostLedger,
    LedgerView,
    NullLedger,
    load_ledger,
    merge_ledgers,
)
from repro.telemetry.manifest import RunManifest, git_sha
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.stitch import (
    STITCH_SCHEMA,
    StitchResult,
    stitch_traces,
    write_chrome,
)
from repro.telemetry.tracing import (
    NullTracer,
    Span,
    Tracer,
    load_trace,
    render_span_tree,
)

__all__ = [
    "RunContext",
    "NULL_CONTEXT",
    "ensure_context",
    "RunManifest",
    "git_sha",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "NullTracer",
    "Span",
    "load_trace",
    "render_span_tree",
    "HeartbeatWriter",
    "read_heartbeat",
    "render_heartbeat",
    "heartbeat_status",
    "finalize_heartbeat",
    "pid_alive",
    "default_stale_after",
    "Alert",
    "DiagnosticsConfig",
    "DiagnosticsEngine",
    "NullDiagnostics",
    "NULL_DIAGNOSTICS",
    "BusWriter",
    "merge_timeline",
    "CostLedger",
    "LedgerView",
    "NullLedger",
    "NULL_LEDGER",
    "LEDGER_SCHEMA",
    "load_ledger",
    "merge_ledgers",
    "StitchResult",
    "STITCH_SCHEMA",
    "stitch_traces",
    "write_chrome",
]
