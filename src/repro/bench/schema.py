"""The BENCH_*.json document: schema version, provenance, validation.

A bench file is self-describing: schema version first (so ``compare``
can refuse files it does not understand instead of mis-reading them),
then provenance (git SHA, host specs, run configuration), then one
result record per benchmark.  Timing fields are seconds; ``p10``/``p90``
bound the repetition spread so a compare can tell a real regression from
run-to-run noise.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import platform
from pathlib import Path
from typing import Any

from repro.telemetry.manifest import git_sha

__all__ = [
    "SCHEMA_VERSION",
    "ACCEPTED_VERSIONS",
    "host_info",
    "make_doc",
    "load_doc",
    "validate_doc",
]

# v2 added host.blas_threads so cross-host comparisons carry the
# parallelism that produced the numbers; v1 files (no multi-core
# provenance) remain loadable, as do records with fields this module
# does not read (older files tag each record with a ``kind``).
SCHEMA_VERSION = 2

#: schema versions ``load_doc``/``validate_doc`` accept
ACCEPTED_VERSIONS = (1, 2)

#: fields every result record must carry (validated on load)
RESULT_FIELDS = (
    "name",
    "items",
    "repetitions",
    "median_s",
    "p10_s",
    "p90_s",
    "throughput_per_s",
)


def host_info() -> dict[str, Any]:
    """Hardware/interpreter provenance for the bench document."""
    from repro.parallel.pinning import effective_blas_threads

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "blas_threads": effective_blas_threads(),
    }


def make_doc(
    results: list[dict[str, Any]], config: dict[str, Any]
) -> dict[str, Any]:
    """Assemble a schema-versioned bench document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "host": host_info(),
        "config": config,
        "results": results,
    }


def validate_doc(doc: Any) -> list[str]:
    """Return every schema problem found (empty list == valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    version = doc.get("schema_version")
    if version not in ACCEPTED_VERSIONS:
        problems.append(
            f"schema_version is {version!r}, expected one of "
            f"{list(ACCEPTED_VERSIONS)}"
        )
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        problems.append("results is missing or empty")
        return problems
    seen: set[str] = set()
    for i, rec in enumerate(results):
        if not isinstance(rec, dict):
            problems.append(f"results[{i}] is not an object")
            continue
        missing = [f for f in RESULT_FIELDS if f not in rec]
        if missing:
            problems.append(
                f"results[{i}] ({rec.get('name', '?')}) missing "
                f"fields: {', '.join(missing)}"
            )
        name = rec.get("name")
        if isinstance(name, str):
            if name in seen:
                problems.append(f"duplicate benchmark name {name!r}")
            seen.add(name)
    return problems


def load_doc(path: str | Path) -> dict[str, Any]:
    """Load and validate a bench file; raises ``ValueError`` on problems."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValueError(f"{path}: no such bench file") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    problems = validate_doc(doc)
    if problems:
        detail = "; ".join(problems)
        raise ValueError(f"{path}: invalid bench document: {detail}")
    return doc
