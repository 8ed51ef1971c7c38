"""Benchmark registry: named micro-benchmarks with lazy setup.

A benchmark is a *factory*: calling it builds fresh state (environments,
trained agents, temp directories — all excluded from timing) and returns
the repetition callable.  The factory may instead return a ``(run,
cleanup)`` pair when it owns resources that outlive the measurement
(e.g. an on-disk cache directory).

``items`` is the number of inner operations one repetition performs;
the runner divides it by the median repetition time to report
throughput.  Batching matters: micro operations here run in micro- to
milliseconds, far below timer jitter, so a repetition must loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["Benchmark", "bench", "get_benchmark", "iter_benchmarks"]

#: factory return: one-repetition callable, optionally with a cleanup
SetupResult = (
    Callable[[], None] | tuple[Callable[[], None], Callable[[], None]]
)


@dataclass(frozen=True)
class Benchmark:
    name: str
    items: int
    factory: Callable[[], SetupResult]
    description: str = ""

    def setup(self) -> tuple[Callable[[], None], Callable[[], None] | None]:
        """Build run state; returns ``(run, cleanup?)``."""
        built = self.factory()
        if isinstance(built, tuple):
            return built
        return built, None


_REGISTRY: dict[str, Benchmark] = {}


def bench(name: str, items: int, description: str = ""):
    """Decorator registering a benchmark factory under ``name``."""
    if items < 1:
        raise ValueError("items must be >= 1")

    def decorate(factory: Callable[[], SetupResult]):
        if name in _REGISTRY:
            raise ValueError(f"benchmark {name!r} already registered")
        _REGISTRY[name] = Benchmark(
            name=name,
            items=items,
            factory=factory,
            description=description or (factory.__doc__ or "").strip(),
        )
        return factory

    return decorate


def _ensure_loaded() -> None:
    # Benchmark definitions live in repro.bench.benches; importing it
    # populates the registry exactly once.
    from repro.bench import benches  # noqa: F401


def get_benchmark(name: str) -> Benchmark:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown benchmark {name!r} (known: {known})") from None


def iter_benchmarks() -> list[Benchmark]:
    """All registered benchmarks, in name order."""
    _ensure_loaded()
    return sorted(_REGISTRY.values(), key=lambda b: b.name)
