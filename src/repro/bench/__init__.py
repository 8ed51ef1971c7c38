"""Micro-benchmark harness: registered benchmarks, runner, gate.

The end-to-end benchmark of record is ``benchmarks/perf`` (offline
training, online tuning, populations, the report grid).  This package
times single hot operations, the layers an end-to-end run cannot
separate:

* :mod:`repro.bench.registry` — named benchmarks with lazy setup;
* :mod:`repro.bench.benches` — the suite (simulator step and batch,
  TD3 update, PER and RDPER sampling, Twin-Q accept loop, codec,
  cache round-trip, telemetry sinks, population stepping);
* :mod:`repro.bench.runner` — warmup + timed repetitions + allocation
  pass, emitting schema-versioned ``BENCH_*.json`` documents;
* :mod:`repro.bench.compare` — median-based regression gating between
  two bench documents (the ``repro bench compare`` exit code).
"""

from repro.bench.compare import (
    DEFAULT_THRESHOLD,
    BenchDelta,
    Comparison,
    compare_docs,
    render_comparison,
)
from repro.bench.registry import Benchmark, bench, get_benchmark, iter_benchmarks
from repro.bench.runner import run_benchmarks, run_one
from repro.bench.schema import (
    SCHEMA_VERSION,
    load_doc,
    make_doc,
    validate_doc,
)

__all__ = [
    "Benchmark",
    "bench",
    "get_benchmark",
    "iter_benchmarks",
    "run_benchmarks",
    "run_one",
    "SCHEMA_VERSION",
    "load_doc",
    "make_doc",
    "validate_doc",
    "BenchDelta",
    "Comparison",
    "compare_docs",
    "render_comparison",
    "DEFAULT_THRESHOLD",
]
