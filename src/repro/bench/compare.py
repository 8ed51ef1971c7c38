"""Regression gating: diff a candidate bench file against a baseline.

The gate is on the **median**: a benchmark regresses when its candidate
median exceeds the baseline median by more than ``threshold`` (default
25%).  The p10/p90 spread is shown for context so a reviewer can tell a
tight, reproducible regression from noise, but it never changes the
verdict — thresholds belong in one knob, not a statistical model.

Benchmarks present on only one side are reported but never fail the
gate: an ``--only`` run measures a subset of the committed baseline,
and a new benchmark has no baseline entry yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["BenchDelta", "compare_docs", "render_comparison"]

DEFAULT_THRESHOLD = 0.25


@dataclass(frozen=True)
class BenchDelta:
    """Comparison of one benchmark across the two documents."""

    name: str
    baseline_median_s: float
    candidate_median_s: float
    ratio: float  # candidate / baseline; > 1 means slower
    regressed: bool

    @property
    def change_pct(self) -> float:
        return (self.ratio - 1.0) * 100.0


@dataclass(frozen=True)
class Comparison:
    deltas: list[BenchDelta]
    only_in_baseline: list[str]
    only_in_candidate: list[str]
    threshold: float

    @property
    def regressions(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_docs(
    candidate: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> Comparison:
    """Diff two valid bench documents (see :func:`~repro.bench.schema.load_doc`)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    base = {r["name"]: r for r in baseline["results"]}
    cand = {r["name"]: r for r in candidate["results"]}
    deltas: list[BenchDelta] = []
    for name in sorted(set(base) & set(cand)):
        b, c = base[name], cand[name]
        b_med, c_med = float(b["median_s"]), float(c["median_s"])
        ratio = c_med / b_med if b_med > 0 else float("inf")
        deltas.append(
            BenchDelta(
                name=name,
                baseline_median_s=b_med,
                candidate_median_s=c_med,
                ratio=ratio,
                regressed=ratio > 1.0 + threshold,
            )
        )
    return Comparison(
        deltas=deltas,
        only_in_baseline=sorted(set(base) - set(cand)),
        only_in_candidate=sorted(set(cand) - set(base)),
        threshold=threshold,
    )


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    return f"{seconds * 1e3:8.3f}ms"


def render_comparison(cmp: Comparison) -> str:
    """Human-readable comparison table plus verdict line."""
    lines = [
        f"{'benchmark':<24} {'baseline':>10} {'candidate':>10} "
        f"{'change':>8}  verdict"
    ]
    for d in cmp.deltas:
        verdict = (
            "REGRESSED"
            if d.regressed
            else ("improved" if d.ratio < 1.0 else "ok")
        )
        lines.append(
            f"{d.name:<24} {_fmt_s(d.baseline_median_s):>10} "
            f"{_fmt_s(d.candidate_median_s):>10} {d.change_pct:>+7.1f}%  "
            f"{verdict}"
        )
    for name in cmp.only_in_baseline:
        lines.append(f"{name:<24} {'(not measured in candidate)':>30}")
    for name in cmp.only_in_candidate:
        lines.append(f"{name:<24} {'(new: no baseline entry)':>30}")
    n_reg = len(cmp.regressions)
    lines.append(
        f"-- {len(cmp.deltas)} compared, {n_reg} regression(s) at "
        f">{cmp.threshold * 100:.0f}% median slowdown"
    )
    return "\n".join(lines)
