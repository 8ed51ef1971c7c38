"""Streaming tuning-cost ledger with counterfactual attribution.

DeepCAT's pitch is *cost*-efficiency, yet a session historically reported a
single scalar (the TCT).  The ledger turns that scalar into an append-only,
schema-versioned JSONL stream that charges every unit of tuning cost to a
typed account:

``evaluation``
    the final (kept) attempt of an online step, or an offline evaluation.
``warmup``
    offline evaluations spent before the agent starts acting.
``retry``
    a burnt attempt plus its backoff delay (mirrors the session's
    ``extra_cost`` accumulation bit-for-bit).
``watchdog_abort``
    a final attempt that the watchdog cut short (charged at the watchdog's
    ``charged_s``).
``fallback``
    a step evaluated under the safety guard's fallback config.
``recommendation``
    actor+Twin-Q wall time for a step.
``task`` / ``cache_saving``
    experiment-engine accounts: per-task compute charged at the parent, and
    the estimated seconds a cache hit avoided (counterfactual).
``screening``
    Twin-Q counterfactual — the estimated evaluation seconds avoided by
    screening the actor's raw recommendation, per the paper's Eq.(1)
    duration model (see :func:`repro.core.twinq.screening_saving`).

Charges are *observations of* cost, counterfactuals are *avoided* cost; they
are stored in one stream, discriminated by ``kind``.

Exactness contract
------------------
``total_tuning_seconds()`` reproduces a session's
``OnlineSession.total_tuning_seconds`` **bit-exactly** for single-member
runs.  IEEE-754 addition is commutative but not associative, so a naive
``sum()`` over entries would drift in the last ulp; instead the reduction
replays the session's own grouping: per step, retries fold onto the final
attempt in write order (mirroring ``extra_cost += ...``), the per-step
costs left-fold in step order, and the grand total is
``evaluation_total + recommendation_total`` — the same shape as
``TuningSession.total_tuning_seconds``.

Like every other telemetry pillar the ledger is a pure observer: a run with
``--ledger`` is bit-identical to one without (enforced by the
``-m determinism`` suite).
"""

from __future__ import annotations

import errno
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable

from ..utils.jsonl import JsonlWriter, read_jsonl

__all__ = [
    "LEDGER_SCHEMA",
    "CHARGE_ACCOUNTS",
    "COUNTERFACTUAL_ACCOUNTS",
    "CostLedger",
    "LedgerView",
    "NullLedger",
    "NULL_LEDGER",
    "load_ledger",
    "merge_ledgers",
]

LEDGER_SCHEMA = "tuning-cost-ledger-v1"

#: Accounts that represent real (paid) cost.
CHARGE_ACCOUNTS = (
    "evaluation",
    "warmup",
    "retry",
    "watchdog_abort",
    "fallback",
    "recommendation",
    "task",
)

#: Accounts that represent estimated avoided cost.
COUNTERFACTUAL_ACCOUNTS = ("screening", "cache_saving")

#: Accounts whose charges terminate a step (the kept attempt).  ``retry``
#: charges accumulate onto whichever of these closes the same step.
_FINAL_ACCOUNTS = frozenset({"evaluation", "watchdog_abort", "fallback"})

# Keys owned by the envelope; metadata may not shadow them.
_RESERVED = frozenset(
    {"kind", "account", "amount_s", "seq", "source", "ts", "step", "member", "phase"}
)


def _clean_meta(meta: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in meta.items() if k not in _RESERVED}


class _LedgerTotals:
    """Shared reduction logic over a list of entry dicts.

    Both the live :class:`CostLedger` and the read-back :class:`LedgerView`
    answer the same questions; they differ only in where the entries come
    from.
    """

    entries: list[dict[str, Any]]

    def charges(self) -> list[dict[str, Any]]:
        return [e for e in self.entries if e.get("kind") == "charge"]

    def counterfactuals(self) -> list[dict[str, Any]]:
        return [e for e in self.entries if e.get("kind") == "counterfactual"]

    def totals(self) -> dict[str, dict[str, Any]]:
        """Per-account ``{count, seconds}`` over charge entries."""
        out: dict[str, dict[str, Any]] = {}
        for e in self.charges():
            acc = out.setdefault(str(e["account"]), {"count": 0, "seconds": 0.0})
            acc["count"] += 1
            acc["seconds"] += float(e["amount_s"])
        return out

    def counterfactual_totals(self) -> dict[str, dict[str, Any]]:
        """Per-account ``{count, seconds}`` over counterfactual entries."""
        out: dict[str, dict[str, Any]] = {}
        for e in self.counterfactuals():
            acc = out.setdefault(str(e["account"]), {"count": 0, "seconds": 0.0})
            acc["count"] += 1
            acc["seconds"] += float(e["amount_s"])
        return out

    def total_charged(self) -> float:
        """Plain sum of all charges — display only, not the exact TCT."""
        return sum(float(e["amount_s"]) for e in self.charges())

    @property
    def saved_by_screening(self) -> float:
        return sum(
            float(e["amount_s"])
            for e in self.counterfactuals()
            if e.get("account") == "screening"
        )

    @property
    def cache_savings(self) -> float:
        return sum(
            float(e["amount_s"])
            for e in self.counterfactuals()
            if e.get("account") == "cache_saving"
        )

    def total_tuning_seconds(self, member: int | None = None) -> float:
        """Exact replay of ``TuningSession.total_tuning_seconds``.

        Filters online-phase charges, optionally to one population member.
        Retry charges fold onto their step's final attempt in write order
        (the session's ``extra_cost`` accumulation); per-step costs then
        left-fold in first-appearance order; recommendation charges fold
        separately; the result is ``eval_total + rec_total`` — the same
        association the session itself used, hence bit-equality.

        For multi-member ledgers pass ``member`` to reproduce one member's
        session; without it the members' steps interleave and the total is
        only accurate to float reassociation.
        """

        def keep(e: dict[str, Any]) -> bool:
            if e.get("kind") != "charge" or e.get("phase") != "online":
                return False
            return member is None or e.get("member") == member

        extra: dict[Any, float] = {}
        final: dict[Any, float] = {}
        order: list[Any] = []
        rec_total = 0.0
        for e in self.entries:
            if not keep(e):
                continue
            key = (e.get("member"), e.get("step"))
            account = e.get("account")
            amount = float(e["amount_s"])
            if account == "recommendation":
                rec_total += amount
            elif account == "retry":
                extra[key] = extra.get(key, 0.0) + amount
            elif account in _FINAL_ACCOUNTS:
                if key not in final:
                    order.append(key)
                final[key] = amount
        eval_total = 0.0
        for key in order:
            eval_total += float(final[key] + extra.get(key, 0.0))
        return eval_total + rec_total


class CostLedger(_LedgerTotals):
    """Live, streaming ledger.

    ``path`` may be ``None`` for an in-memory ledger (tests, per-member
    sub-ledgers that get absorbed into a parent).  With a path the file is
    opened lazily on the first entry, a schema header line is written, and
    every entry is appended + flushed immediately so a crashed run leaves a
    readable ledger behind.
    """

    enabled = True

    def __init__(self, path: str | Path | None = None, source: str = "run") -> None:
        self.path = Path(path) if path is not None else None
        self.source = source
        self.entries: list[dict[str, Any]] = []
        self._seq = 0
        self._out: JsonlWriter | None = None
        if self.path is not None:
            self._out = JsonlWriter(
                self.path,
                truncate=True,
                header=lambda: {
                    "schema": LEDGER_SCHEMA,
                    "kind": "ledger-header",
                    "source": source,
                    "ts": time.time(),
                    "pid": os.getpid(),
                },
                sort_keys=True,
            )

    # -- recording -----------------------------------------------------

    def charge(
        self,
        account: str,
        amount_s: float,
        *,
        step: int | None = None,
        member: int | None = None,
        phase: str = "online",
        **meta: Any,
    ) -> dict[str, Any]:
        return self._record("charge", account, amount_s, step, member, phase, meta)

    def counterfactual(
        self,
        account: str,
        amount_s: float,
        *,
        step: int | None = None,
        member: int | None = None,
        phase: str = "online",
        **meta: Any,
    ) -> dict[str, Any]:
        return self._record(
            "counterfactual", account, amount_s, step, member, phase, meta
        )

    def _record(
        self,
        kind: str,
        account: str,
        amount_s: float,
        step: int | None,
        member: int | None,
        phase: str,
        meta: dict[str, Any],
    ) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "kind": kind,
            "account": str(account),
            "amount_s": float(amount_s),
            "seq": self._seq,
            "source": self.source,
            "ts": time.time(),
            "phase": phase,
        }
        if step is not None:
            entry["step"] = int(step)
        if member is not None:
            entry["member"] = int(member)
        entry.update(_clean_meta(meta))
        self._seq += 1
        self.entries.append(entry)
        self._write(entry)
        return entry

    def absorb(self, entries: Iterable[dict[str, Any]]) -> int:
        """Re-record entries from another ledger (e.g. a worker's).

        Envelope fields other than ``seq`` are preserved — notably the
        child's ``source`` and ``ts`` — so attribution survives the merge;
        ``seq`` is re-assigned in this ledger's stream.
        """
        n = 0
        for e in entries:
            if e.get("kind") not in ("charge", "counterfactual"):
                continue
            entry = dict(e)
            entry["seq"] = self._seq
            self._seq += 1
            self.entries.append(entry)
            self._write(entry)
            n += 1
        return n

    # -- persistence ---------------------------------------------------

    def _write(self, entry: dict[str, Any]) -> None:
        if self._out is not None:
            self._out.write(entry)

    def flush(self) -> None:
        if self._out is not None:
            self._out.flush()

    def close(self) -> None:
        if self._out is not None:
            self._out.close()

    @contextmanager
    def deferred(self):
        """Suspend per-entry flushes; one flush at block exit.

        File content and entry order are unchanged — a deferred run's
        ledger is byte-identical to an undeferred one — only the flush
        syscall cadence is batched (the population emits one flush per
        lockstep round instead of one per member).
        """
        if self._out is None:
            yield self
            return
        with self._out.deferred():
            yield self


class NullLedger(_LedgerTotals):
    """Disabled ledger: every operation is a no-op."""

    enabled = False
    path = None
    source = "null"

    def __init__(self) -> None:
        self.entries: list[dict[str, Any]] = []

    def charge(self, account: str, amount_s: float, **kwargs: Any) -> dict[str, Any]:
        return {}

    def counterfactual(
        self, account: str, amount_s: float, **kwargs: Any
    ) -> dict[str, Any]:
        return {}

    def absorb(self, entries: Iterable[dict[str, Any]]) -> int:
        return 0

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    @contextmanager
    def deferred(self):
        yield self


NULL_LEDGER = NullLedger()


class LedgerView(_LedgerTotals):
    """Read-back view over a persisted (or merged) ledger."""

    def __init__(
        self, entries: list[dict[str, Any]], source: str = "?", path: Path | None = None
    ) -> None:
        self.entries = entries
        self.source = source
        self.path = path


def load_ledger(path: str | Path) -> LedgerView:
    """Load a ledger JSONL file, validating the schema header if present.

    Malformed lines are skipped (a crashed writer may leave a torn tail);
    a missing file, or a header carrying a different schema string, is an
    error.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(
            errno.ENOENT, os.strerror(errno.ENOENT), str(path)
        )
    entries: list[dict[str, Any]] = []
    source = "?"
    for record in read_jsonl(path)[0]:
        if record.get("kind") == "ledger-header":
            schema = record.get("schema")
            if schema != LEDGER_SCHEMA:
                raise ValueError(
                    f"{path}: unsupported ledger schema {schema!r} "
                    f"(expected {LEDGER_SCHEMA!r})"
                )
            source = str(record.get("source", source))
        elif record.get("kind") in ("charge", "counterfactual"):
            entries.append(record)
    return LedgerView(entries, source=source, path=path)


def merge_ledgers(paths: Iterable[str | Path]) -> LedgerView:
    """Concatenate several ledger files into one view (file order)."""
    entries: list[dict[str, Any]] = []
    for p in paths:
        entries.extend(load_ledger(p).entries)
    return LedgerView(entries, source="merged")
