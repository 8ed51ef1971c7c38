"""Fine-tune lanes: a population's stacked TD3 blocks on one thread per
CPU give the same members as one lane and as sequential sessions.

Lanes are derived, never set: ``min(blocks, usable CPUs)``, with the
CPU count read from ``os.sched_getaffinity`` (patched here so the
tests do not depend on the host), and only while BLAS runs one thread.
Each test builds members whose replay already holds a batch, so every
round runs a block per four members.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.agents.base import AgentHyperParams
from repro.core import population as population_module
from repro.core.deepcat import DeepCAT
from repro.core.persistence import (
    PopulationCheckpointManager,
    load_population_checkpoint,
)
from repro.core.population import PopulationTuner
from repro.core.result import sessions_equal
from repro.parallel import pinning
from repro.factory import make_env
from repro.replay.base import Transition
from repro.replay.rdper import RewardDrivenReplayBuffer

STEPS = 3
NETS = ("actor", "critic1", "critic2",
        "actor_target", "critic1_target", "critic2_target")
OPTS = ("actor_opt", "critic1_opt", "critic2_opt")


def _members(n):
    """``n`` DeepCATs (batch 16) whose replay holds 20 transitions."""
    envs = [make_env("TS", "D2", seed=1000 + s) for s in range(n)]
    tuners = []
    for s, env in enumerate(envs):
        tuner = DeepCAT.from_env(env, seed=s, buffer_capacity=512,
                                 hp=AgentHyperParams(batch_size=16))
        rng = np.random.default_rng(s ^ 0xABCDEF)
        dim, act = env.state.shape[0], env.space.dim
        for _ in range(20):
            tuner.buffer.push(Transition(
                state=rng.uniform(size=dim), action=rng.uniform(size=act),
                reward=float(rng.uniform(-1.0, 1.0)),
                next_state=rng.uniform(size=dim),
            ))
        tuners.append(tuner)
    return tuners, envs


def _population(n, **kwargs):
    tuners, envs = _members(n)
    return PopulationTuner.from_deepcat(tuners, envs, fine_tune_updates=2,
                                        **kwargs)


def _state(pop) -> dict:
    """The stacked storage, and every member's update count and
    generator states."""
    view = pop.view
    state = {}
    for name in NETS:
        state[f"{name}.data"] = getattr(view, name).data.tobytes()
        state[f"{name}.grad"] = getattr(view, name).grad.tobytes()
    for name in OPTS:
        state[f"{name}.m"] = getattr(view, name).m.tobytes()
        state[f"{name}.v"] = getattr(view, name).v.tobytes()
    for i, m in enumerate(pop.members):
        agent = m.tuner.agent
        state[f"{i}.updates_done"] = agent.updates_done
        for name, rng in (("smooth", agent._smooth_rng),
                          ("agent", agent._rng),
                          ("noise", agent.noise._rng),
                          ("buffer", m.tuner.buffer._rng),
                          ("tuner", m.tuner._rng)):
            state[f"{i}.rng.{name}"] = rng.bit_generator.state
    return state


@pytest.fixture
def cpus(monkeypatch):
    """Report ``n`` usable CPUs, whatever the host has."""
    def report(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
    return report


@pytest.fixture
def lane_threads(monkeypatch):
    """Names of the threads that ran a lane."""
    names = set()
    original = population_module._lane

    def spy(*args):
        names.add(threading.current_thread().name)
        return original(*args)

    monkeypatch.setattr(population_module, "_lane", spy)
    return names


def _bounded(fn, timeout_s=300.0):
    """``fn()`` on a daemon thread: a hang fails the test, it does not
    stall the suite."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:  # re-raised on the test's thread
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"lanes still running after {timeout_s}s"
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.mark.determinism
def test_more_lanes_than_cpus_match_one_lane_and_sequential(
    cpus, lane_threads
):
    """Four lanes on a host reporting four CPUs (whatever it has), with
    the interpreter switching threads every 10 µs."""
    cpus(4)
    lanes = _population(16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sessions = _bounded(lambda: lanes.tune(steps=STEPS))
    finally:
        sys.setswitchinterval(interval)
    assert len(lane_threads) == 4
    assert sum(n.startswith("repro-lane") for n in lane_threads) == 3

    one = _population(16)
    one._cpus = 1
    assert all(sessions_equal(a, b)
               for a, b in zip(sessions, one.tune(steps=STEPS)))
    assert _state(lanes) == _state(one)

    tuners, envs = _members(16)
    sequential = [
        tuner.tune_online(env, steps=STEPS, fine_tune_updates=2)
        for tuner, env in zip(tuners, envs)
    ]
    assert all(sessions_equal(a, b) for a, b in zip(sessions, sequential))


def test_lane_threads_end_with_tune_finish_and_a_failed_round(
    cpus, lane_threads, monkeypatch
):
    cpus(2)
    baseline = threading.active_count()
    _population(8).tune(steps=2)
    assert threading.active_count() == baseline
    assert any(n.startswith("repro-lane") for n in lane_threads)

    pop = _population(8)
    pop.begin(2)
    pop.run_round(0)
    assert threading.active_count() == baseline + 1  # alive between rounds
    pop.run_round(1)
    pop.finish(2)
    assert threading.active_count() == baseline

    # Members 1 (block 0, this thread's lane) and 5 (block 1, a lane
    # thread) fail; the first failure in member order is raised, after
    # both lanes have stopped.
    pop = _population(8)
    failing = {id(pop.members[i].tuner.buffer): i for i in (1, 5)}
    sample = RewardDrivenReplayBuffer.sample

    def broken(self, *args, **kwargs):
        if id(self) in failing:
            raise RuntimeError(f"member {failing[id(self)]}")
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(RewardDrivenReplayBuffer, "sample", broken)
    with pytest.raises(RuntimeError, match="member 1"):
        pop.tune(steps=2)
    assert threading.active_count() == baseline


def test_a_tuner_between_rounds_pickles_without_its_lanes(cpus):
    cpus(2)
    pop = _population(8)
    pop.begin(2)
    pop.run_round(0)
    assert pop._lanes is not None
    twin = pickle.loads(pickle.dumps(pop))
    assert twin._lanes is None
    for p in (pop, twin):
        p.run_round(1)
        p.finish(2)
    assert all(sessions_equal(a, b)
               for a, b in zip(pop.sessions, twin.sessions))


@pytest.mark.determinism
def test_interrupt_in_a_lane_then_resume_is_bit_identical(
    cpus, monkeypatch, tmp_path
):
    """A ``KeyboardInterrupt`` raised by a member's replay sample on a
    lane thread, in the third round's fine-tune, leaves the checkpoint of
    two whole rounds; resuming it gives the uninterrupted sessions."""
    cpus(2)
    steps = 4
    full = _population(8).tune(steps=steps)

    tuners, envs = _members(8)
    pop = PopulationTuner.from_deepcat(tuners, envs, fine_tune_updates=2)
    target = pop.members[5].tuner.buffer  # block 1: lane 1
    calls = {"n": 0}
    sample = RewardDrivenReplayBuffer.sample

    def interrupted(self, *args, **kwargs):
        if self is target:
            calls["n"] += 1
            if calls["n"] == 5:  # round 3, update 1 (2 updates per round)
                assert threading.current_thread().name.startswith(
                    "repro-lane")
                raise KeyboardInterrupt
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(RewardDrivenReplayBuffer, "sample", interrupted)
    ckpt = tmp_path / "pop.ckpt"
    manager = PopulationCheckpointManager(ckpt, tuners, envs)
    with pytest.raises(KeyboardInterrupt):
        pop.tune(steps=steps, checkpoint=manager)
    monkeypatch.setattr(RewardDrivenReplayBuffer, "sample", sample)

    saved = load_population_checkpoint(ckpt)
    assert saved.next_steps == [2] * 8
    resumed = PopulationTuner.from_deepcat(
        saved.tuners, saved.envs, fine_tune_updates=2,
        sessions=saved.sessions,
    ).tune(steps=steps)
    assert all(sessions_equal(a, b) for a, b in zip(resumed, full))


def test_blas_pools_are_looked_up_once_per_tune(cpus, monkeypatch):
    """Four rounds of two blocks scan ``/proc/self/maps`` once per
    ``tune()``, not once per round."""
    cpus(2)
    monkeypatch.setattr(pinning, "_threadpoolctl", lambda: None)
    scans = []
    original = pinning._openblas_pools

    def counting():
        scans.append(1)
        return original()

    monkeypatch.setattr(pinning, "_openblas_pools", counting)
    _population(8).tune(steps=4)
    assert len(scans) == 1
    _population(8).tune(steps=4)
    assert len(scans) == 2


def test_unpinned_blas_runs_one_thread_during_the_blocks_only(
    unpinned_python
):
    """In a process whose environment sets no BLAS thread count, the
    blocks run with BLAS at one thread, and the caller's count is back
    after ``tune()``."""
    out = unpinned_python("""
import json, os, threading
os.sched_getaffinity = lambda pid: {0, 1}
from repro.agents.population import PopulationTD3View
from repro.parallel.pinning import effective_blas_threads
from test_population_lanes import _population

during, names = [], set()
update_block = PopulationTD3View.update_block

def spy(self, *args, **kwargs):
    names.add(threading.current_thread().name)
    if threading.current_thread() is threading.main_thread():
        during.append(effective_blas_threads())
    return update_block(self, *args, **kwargs)

PopulationTD3View.update_block = spy
before = effective_blas_threads()
_population(8).tune(steps=2)
print(json.dumps({"before": before, "during": sorted(set(during)),
                  "after": effective_blas_threads(),
                  "lanes": len(names)}))
""")
    assert out["lanes"] == 2
    assert out["during"] == [1]
    assert out["after"] == out["before"]
    if len(os.sched_getaffinity(0)) > 1:
        assert out["before"] > 1


