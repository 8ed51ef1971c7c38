"""Benchmark runner: warmup, timed repetitions, allocation pass.

Each benchmark runs in three stages:

1. **setup** — the factory builds all state (excluded from timing);
2. **timing** — ``warmup`` untimed calls, then ``repetitions`` timed
   ones (``time.perf_counter`` around the whole repetition);
3. **allocation** — one extra call under :mod:`tracemalloc` for the peak
   traced allocation.  A separate pass, because tracemalloc slows
   allocation-heavy code enough to poison the timing statistics.

Quantiles come from the timed repetitions only.  With small repetition
counts (CI smoke runs use 1) p10/p90 degenerate to min/max, which is
exactly what the compare tool expects: it gates on the median and uses
the spread only for context.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from typing import Any

from repro.bench.registry import Benchmark, iter_benchmarks
from repro.bench.schema import make_doc

__all__ = ["run_benchmarks", "peak_rss_kb"]


def peak_rss_kb() -> int | None:
    """Lifetime peak resident set size of this process, in KiB."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover
        peak //= 1024
    return int(peak)


def _quantile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list."""
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac


def run_one(
    benchmark: Benchmark,
    repetitions: int,
    warmup: int,
    track_alloc: bool = True,
) -> dict[str, Any]:
    """Measure one benchmark; returns its result record."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    run, cleanup = benchmark.setup()
    try:
        for _ in range(warmup):
            run()
        samples: list[float] = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            run()
            samples.append(time.perf_counter() - t0)

        alloc_peak = None
        if track_alloc:
            was_tracing = tracemalloc.is_tracing()
            if not was_tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
            run()
            _, alloc_peak = tracemalloc.get_traced_memory()
            if not was_tracing:
                tracemalloc.stop()
    finally:
        if cleanup is not None:
            cleanup()

    ordered = sorted(samples)
    median = _quantile(ordered, 0.5)
    return {
        "name": benchmark.name,
        "description": benchmark.description,
        "items": benchmark.items,
        "repetitions": repetitions,
        "warmup": warmup,
        "median_s": median,
        "p10_s": _quantile(ordered, 0.1),
        "p90_s": _quantile(ordered, 0.9),
        "min_s": ordered[0],
        "max_s": ordered[-1],
        "mean_s": sum(ordered) / len(ordered),
        "throughput_per_s": benchmark.items / median if median > 0 else None,
        "alloc_peak_bytes": alloc_peak,
        "peak_rss_kb": peak_rss_kb(),
    }


def run_benchmarks(
    benchmarks: list[Benchmark] | None = None,
    repetitions: int = 5,
    warmup: int = 1,
    track_alloc: bool = True,
    progress=None,
) -> dict[str, Any]:
    """Run a benchmark selection and return the bench document.

    ``benchmarks`` selects specific benchmarks (default: all).
    ``progress`` is an optional ``callable(benchmark)`` invoked before
    each measurement.
    """
    results = []
    for benchmark in benchmarks or iter_benchmarks():
        if progress is not None:
            progress(benchmark)
        results.append(
            run_one(
                benchmark,
                repetitions=repetitions,
                warmup=warmup,
                track_alloc=track_alloc,
            )
        )
    return make_doc(
        results,
        config={
            "repetitions": repetitions,
            "warmup": warmup,
            "track_alloc": track_alloc,
        },
    )
