"""Layer-attributed span tracing for the benchmark's ``--trace`` runs.

A :class:`Recorder` wraps the public entry points of each layer of the
tuner (codec, placement, simulator, environments, nn, agents, replay,
Twin-Q, the online/offline/population loops, persistence, telemetry
sinks) by patching the class attributes and the module-level bindings
at their call sites.  Every wrapped call appends one span
``[name, start, end, parent]`` to an in-memory list; nothing is written
until :meth:`Recorder.save_jsonl` runs at the end of the benchmark.

A layer's *self time* is its span duration minus the part of that
interval its child spans cover (:func:`self_times`), so the self times
of all spans add up to the wall clock the root spans cover; whatever the
root spans do not cover is reported as ``unattributed_s``.

Spans are recorded only in the process that created the recorder: a
worker forked from it (the experiment engine's process pool) runs the
original functions, because its spans could never be collected.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

#: (span name, "module:attribute path") of every patched entry point.
#: Names ending in a dotted class path patch the class attribute;
#: plain names patch the module-level binding at that call site.
TARGETS: tuple[tuple[str, str], ...] = (
    ("config.decode", "repro.config.space:ConfigurationSpace.decode"),
    ("config.decode_batch", "repro.config.space:ConfigurationSpace.decode_batch"),
    ("config.decode_batch", "repro.config.space:ConfigurationSpace.decode_columns"),
    ("cluster.plan_executors", "repro.sim.engine:plan_executors"),
    ("cluster.plan_executors_batch", "repro.sim.batch:plan_executors_batch"),
    ("sim.evaluate", "repro.sim.engine:SparkSimulator.evaluate"),
    ("sim.evaluate_batch", "repro.sim.engine:SparkSimulator.evaluate_batch"),
    ("sim.evaluate_batch", "repro.envs.population:evaluate_population"),
    ("envs.step", "repro.envs.tuning_env:TuningEnv.step"),
    ("envs.vector_step", "repro.envs.population:VectorTuningEnv.step"),
    ("envs.make_env", "repro.factory:make_env"),
    ("nn.forward", "repro.nn.network:Sequential.forward"),
    ("nn.forward", "repro.nn.network:Sequential.__call__"),
    ("nn.backward", "repro.nn.network:Sequential.backward"),
    ("nn.adam", "repro.nn.optim:Adam.step"),
    ("nn.stacked_forward", "repro.nn.population:StackedSequential.forward"),
    ("agents.update", "repro.agents.td3:TD3Agent.update"),
    ("agents.act", "repro.agents.td3:TD3Agent.act"),
    ("agents.min_q", "repro.agents.td3:TD3Agent.min_q"),
    ("agents.min_q", "repro.agents.td3:TD3Agent.twin_q_batch"),
    ("agents.pop_query", "repro.agents.population:PopulationTD3View.act"),
    ("agents.pop_query", "repro.agents.population:PopulationTD3View.min_q"),
    ("agents.pop_query", "repro.agents.population:PopulationTD3View.twin_q_rows"),
    ("replay.push", "repro.replay.rdper:RewardDrivenReplayBuffer.push"),
    ("replay.sample", "repro.replay.rdper:RewardDrivenReplayBuffer.sample"),
    ("twinq", "repro.core.online:twin_q_optimize"),
    ("core.offline", "repro.core.offline:OfflineTrainer.train"),
    ("core.online", "repro.core.online:OnlineTuner.tune"),
    ("core.population", "repro.core.population:PopulationTuner.__init__"),
    ("core.population", "repro.core.population:PopulationTuner.begin"),
    ("core.population", "repro.core.population:PopulationTuner.run_round"),
    ("core.population", "repro.core.population:PopulationTuner.finish"),
    ("persistence.load_tuner", "repro.core.persistence:load_tuner"),
    ("persistence.save_tuner", "repro.core.persistence:save_tuner"),
    ("telemetry.ledger", "repro.telemetry.ledger:CostLedger.charge"),
    ("telemetry.ledger", "repro.telemetry.ledger:CostLedger.counterfactual"),
    ("telemetry.event", "repro.utils.logging:JsonlLogger.event"),
)


# -- counters observed from results (same boundaries as the spans) --------


def _sim_results(counters, args, results) -> None:
    if not isinstance(results, list):
        results = [results]
    counters["sim.results"] += len(results)
    counters["sim.failed"] += sum(1 for r in results if not r.success)


def _sim_rows(counters, args, results) -> None:
    counters["sim.evaluate_batch.rows"] += len(results)
    _sim_results(counters, args, results)


def _high_fraction(counters, args, batch) -> None:
    buffer = args[0]
    counters["replay.high_sum"] += float(
        np.mean(batch.rewards >= buffer.reward_threshold)
    )


def _twinq_outcome(counters, args, outcome) -> None:
    counters["twinq.candidates"] += outcome.iterations
    counters["twinq.accepted"] += bool(outcome.accepted)


OBSERVERS = {
    "repro.sim.engine:SparkSimulator.evaluate": _sim_results,
    "repro.sim.engine:SparkSimulator.evaluate_batch": _sim_rows,
    "repro.envs.population:evaluate_population": _sim_rows,
    "repro.replay.rdper:RewardDrivenReplayBuffer.sample": _high_fraction,
    "repro.core.online:twin_q_optimize": _twinq_outcome,
}


def _resolve(target: str):
    """``"module:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Recorder:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: one ``[name, start, end, parent index]`` per finished call
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.recording = False
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call while :attr:`recording`."""
        spans, stack, counters = self.spans, self._stack, self.counters
        pid = self.pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording or os.getpid() != pid:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every entry point in :data:`TARGETS` (idempotent)."""
        if self._undo:
            return
        for name, target in TARGETS:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original,
                                           OBSERVERS.get(target)))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    @contextlib.contextmanager
    def active(self):
        """Record spans for the duration of the block."""
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    def save_jsonl(self, path) -> None:
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent), self_s in zip(self.spans, own):
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "self_s": self_s,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover (clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and summed ``self_s``."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry["calls"] += 1
        entry["self_s"] += own
    return dict(totals)
