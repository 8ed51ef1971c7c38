#!/usr/bin/env python3
"""Paired parent-vs-change verdicts over benchmark runs.

Collect runs of both commits with identical benchmark code and settings,
alternating which side runs first, and save each side's standard output
(``run.py`` prints one ``{"record": ...}`` line per workload)::

    for seed in 0 1 2 3 4 5 6 7 8 9; do
      (cd parent && python3 benchmarks/perf/run.py --seed $seed) >> parent.log
      (cd change && python3 benchmarks/perf/run.py --seed $seed) >> change.log
    done   # swap the two lines on odd seeds
    python3 benchmarks/perf/compare.py parent.log change.log

A side is a log file, a file of record lines, or ``BENCH.json:SET`` for
one set of a results bundle.  Runs pair up by workload in file order.
For each (workload, end-to-end metric) one row reports both medians and
quartiles, the change's wins and a verdict:

* ``gain``: at least 10 pairs, the change better in at least 9/10 of
  them (ties count for neither side), and the medians further apart than
  the parent's interquartile range;
* ``regression``: the change's median worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: not a regression, but the parent's own spread (IQR as
  a share of its median) exceeds the bound, and not every change run
  beats every parent run;
* ``unchanged``: otherwise.

Two more rows per workload: ``digest`` (same seed, same output digest)
and ``failed_ratio`` (the change may not fail more).  Exit status 1 when
any row is a regression or fails.

``compare.py bundle OUT --set A a.log --set B b.log --traced t.log``
writes a results bundle (``results/BENCH_<sha>.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def read_records(source: str) -> list[dict]:
    """Records from a log / record file, or ``bundle.json:SET``."""
    path, _, set_name = source.partition(":")
    text = Path(path).read_text(encoding="utf-8")
    if set_name:
        return json.loads(text)["sets"][set_name]
    return parse_records(text)


def parse_records(text: str) -> list[dict]:
    """The ``{"record": ...}`` lines of ``run.py`` output, in order."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "record" in obj:
            records.append(obj["record"])
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """Verdict for one metric of one workload, plus the change's wins."""
    sign = 1.0 if better == "higher" else -1.0
    # ties count for neither side
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    n = min(len(parent), len(change))
    if (n >= MIN_PAIRS_FOR_GAIN and wins >= WIN_SHARE_FOR_GAIN * n
            and sign * (cm - pm) > p3 - p1):
        return "gain", wins
    if sign * (pm - cm) > bound * abs(pm):
        return "regression", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent: list[dict], change: list[dict], spec: dict
            ) -> list[dict]:
    by_workload: dict[str, list] = defaultdict(lambda: ([], []))
    for side, records in ((0, parent), (1, change)):
        for rec in records:
            if not rec.get("trace"):
                by_workload[rec["workload"]][side].append(rec)
    rows = []
    for workload, (ps, cs) in by_workload.items():
        n = min(len(ps), len(cs))
        ps, cs = ps[:n], cs[:n]
        if not n:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            result, wins = verdict(pv, cv, metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": name, "pairs": n,
                "parent": quartiles(pv), "change": quartiles(cv),
                "wins": wins, "verdict": result,
            })
        same_seed = [(p, c) for p, c in zip(ps, cs) if p["seed"] == c["seed"]]
        digests_ok = all(p["digest"] == c["digest"] for p, c in same_seed)
        rows.append({"workload": workload, "metric": "digest", "pairs":
                     len(same_seed), "verdict": "equal" if digests_ok
                     else "DIFFERENT"})
        p_fail = max(r["failed_ratio"] for r in ps)
        c_fail = max(r["failed_ratio"] for r in cs)
        rows.append({"workload": workload, "metric": "failed_ratio",
                     "pairs": n, "parent": (p_fail,) * 3,
                     "change": (c_fail,) * 3, "verdict": "unchanged"
                     if c_fail <= p_fail else "ROSE"})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':20s} {'metric':16s} {'pairs':>5s} "
             f"{'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
             f" {'wins':>5s}  verdict"]
    for r in rows:
        if "parent" in r:
            p, c = r["parent"], r["change"]
            ps = f"{p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]"
            cs = f"{c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]"
        else:
            ps = cs = ""
        wins = str(r.get("wins", ""))
        lines.append(f"{r['workload']:20s} {r['metric']:16s} {r['pairs']:5d} "
                     f"{ps:>32s} {cs:>32s} {wins:>5s}  {r['verdict']}")
    return "\n".join(lines)


def bundle(args) -> int:
    sets = {name: [r for f in files for r in read_records(f)]
            for name, *files in args.set}
    traced = [r for f in args.traced for r in read_records(f)]
    host = next(iter(r["host"] for rs in sets.values() for r in rs), {})
    out = {"git_sha": host.get("git_sha", "unknown"), "host": host,
           "sets": sets, "traced": traced}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n",
                              encoding="utf-8")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["bundle"]:
        p = argparse.ArgumentParser(prog="compare.py bundle")
        p.add_argument("out")
        p.add_argument("--set", nargs="+", action="append", default=[],
                       metavar=("NAME", "FILE"), required=True)
        p.add_argument("--traced", nargs="*", default=[])
        return bundle(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(
        description="Paired parent-vs-change benchmark verdicts.")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = p.parse_args(argv)
    spec = json.loads(Path(args.bench).read_text(encoding="utf-8"))
    rows = compare(read_records(args.parent), read_records(args.change), spec)
    print(render(rows))
    bad = {"regression", "DIFFERENT", "ROSE"}
    return 1 if any(r["verdict"] in bad for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
