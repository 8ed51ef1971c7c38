"""Tuning-cost ledger: typed accounts, exactness, purity, explain CLI.

Three contracts:

* **Exactness** — ``CostLedger.total_tuning_seconds()`` equals the
  session's ``total_tuning_seconds`` *bit-for-bit*, across fault
  profiles, retries, watchdog aborts, and fallbacks (no double
  charging, no float drift).
* **Purity** — a ``--ledger`` run is bit-identical to an unledgered
  one (``-m determinism``).
* **Attribution** — screening counterfactuals are non-zero exactly
  when Twin-Q accepts an optimized action, and ``repro explain``
  renders every ledger this suite produces.
"""

from __future__ import annotations

import copy
import json
import time

import pytest

from repro.cli import main
from repro.core.deepcat import DeepCAT
from repro.core.resilience import ResiliencePolicy
from repro.core.result import sessions_equal
from repro.factory import make_env
from repro.telemetry import (
    CostLedger,
    LEDGER_SCHEMA,
    NULL_LEDGER,
    RunContext,
    load_ledger,
    merge_ledgers,
)


@pytest.fixture(scope="module")
def trained():
    env = make_env("TS", "D1", seed=5)
    tuner = DeepCAT.from_env(env, seed=5)
    tuner.train_offline(env, 60)
    return tuner


def _tune(trained, *, seed=1005, profile="flaky", steps=5, ledger=None,
          resilience_seed=3, q_threshold=None):
    tuner = copy.deepcopy(trained)
    if q_threshold is not None:
        tuner.q_threshold = q_threshold
    env = make_env("TS", "D1", seed=seed, fault_profile=profile)
    ctx = RunContext(ledger=ledger) if ledger is not None else None
    resilience = (
        ResiliencePolicy.default(seed=resilience_seed)
        if profile != "none" else None
    )
    session = tuner.tune_online(
        env, steps=steps, telemetry=ctx, resilience=resilience
    )
    return session


class TestLedgerPrimitives:
    def test_charge_envelope_and_totals(self):
        led = CostLedger()
        led.charge("evaluation", 10.0, step=0, tuner="T")
        led.charge("retry", 2.5, step=0, attempt=1)
        led.counterfactual("screening", 1.5, step=0)
        assert [e["seq"] for e in led.entries] == [0, 1, 2]
        totals = led.totals()
        assert totals["evaluation"] == {"count": 1, "seconds": 10.0}
        assert totals["retry"] == {"count": 1, "seconds": 2.5}
        assert led.total_charged() == 12.5
        assert led.saved_by_screening == 1.5
        assert led.counterfactual_totals()["screening"]["count"] == 1

    def test_meta_cannot_shadow_envelope(self):
        led = CostLedger(source="run")
        e = led.charge(
            "evaluation", 1.0, step=3, seq=99, source="evil", ts=-1.0
        )
        assert e["seq"] == 0 and e["source"] == "run" and e["ts"] > 0
        assert e["amount_s"] == 1.0 and e["step"] == 3

    def test_streaming_roundtrip(self, tmp_path):
        path = tmp_path / "run.ledger.jsonl"
        led = CostLedger(path, source="run")
        led.charge("evaluation", 7.0, step=0, config={"k": 1})
        led.counterfactual("cache_saving", 3.0, phase="engine")
        led.close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == LEDGER_SCHEMA
        assert header["kind"] == "ledger-header"
        view = load_ledger(path)
        assert view.source == "run"
        assert len(view.entries) == 2
        assert view.total_charged() == 7.0
        assert view.cache_savings == 3.0
        assert view.entries[0]["config"] == {"k": 1}

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "ledger-header", "schema": "other-v9"})
            + "\n"
        )
        with pytest.raises(ValueError, match="other-v9"):
            load_ledger(path)

    def test_load_skips_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        led = CostLedger(path)
        led.charge("evaluation", 5.0, step=0)
        led.close()
        with path.open("a") as fh:
            fh.write('{"kind": "charge", "acc')
        assert len(load_ledger(path).entries) == 1

    def test_absorb_preserves_source_reassigns_seq(self, tmp_path):
        child = CostLedger(source="task-0001")
        child.charge("evaluation", 4.0, step=0)
        parent = CostLedger(source="engine")
        parent.charge("task", 1.0, phase="engine")
        n = parent.absorb(child.entries)
        assert n == 1
        absorbed = parent.entries[-1]
        assert absorbed["source"] == "task-0001"
        assert absorbed["seq"] == 1
        assert parent.total_charged() == 5.0

    def test_merge_ledgers(self, tmp_path):
        for i in range(2):
            led = CostLedger(tmp_path / f"{i}.ledger.jsonl", source=f"t{i}")
            led.charge("evaluation", float(i + 1), step=0)
            led.close()
        view = merge_ledgers(sorted(tmp_path.glob("*.ledger.jsonl")))
        assert view.total_charged() == 3.0
        assert {e["source"] for e in view.entries} == {"t0", "t1"}

    def test_null_ledger_is_inert(self):
        assert not NULL_LEDGER.enabled
        assert NULL_LEDGER.charge("evaluation", 1.0) == {}
        assert NULL_LEDGER.counterfactual("screening", 1.0) == {}
        assert NULL_LEDGER.entries == []
        assert NULL_LEDGER.total_tuning_seconds() == 0.0


class TestExactness:
    """sum(ledger) == session TCT, bit-for-bit — the tentpole contract."""

    @pytest.mark.parametrize("profile,seed,rseed", [
        ("flaky", 1005, 3),
        ("flaky", 1042, 7),
        ("hostile", 1005, 3),
        ("hostile", 1077, 11),
        ("none", 1005, 0),
    ])
    def test_ledger_equals_session_tct(self, trained, profile, seed, rseed):
        led = CostLedger()
        session = _tune(
            trained, seed=seed, profile=profile, ledger=led,
            resilience_seed=rseed,
        )
        assert led.total_tuning_seconds() == session.total_tuning_seconds
        # and no charge was lost or double-booked: one final charge and
        # one recommendation charge per step
        finals = [
            e for e in led.charges()
            if e["account"] in ("evaluation", "watchdog_abort", "fallback")
        ]
        recs = [
            e for e in led.charges() if e["account"] == "recommendation"
        ]
        assert len(finals) == len(session.steps)
        assert len(recs) == len(session.steps)

    def test_retry_charges_mirror_extra_cost(self, trained):
        led = CostLedger()
        session = _tune(trained, profile="hostile", ledger=led)
        retried = [s for s in session.steps if s.attempts > 1]
        if not retried:
            pytest.skip("no retries under this seed")
        for s in retried:
            step_retries = [
                e for e in led.charges()
                if e["account"] == "retry" and e.get("step") == s.step
            ]
            assert len(step_retries) == s.attempts - 1

    def test_roundtrip_preserves_exactness(self, trained, tmp_path):
        path = tmp_path / "run.ledger.jsonl"
        led = CostLedger(path)
        session = _tune(trained, ledger=led)
        led.close()
        view = load_ledger(path)
        assert view.total_tuning_seconds() == session.total_tuning_seconds


class TestScreeningCounterfactual:
    def test_zero_without_acceptance(self, trained):
        # The default Q_th (0.4) is far above this tiny model's critic
        # estimates, so no optimized action is ever accepted.
        led = CostLedger()
        _tune(trained, ledger=led)
        assert led.saved_by_screening == 0.0

    def test_positive_with_reachable_threshold(self, trained):
        led = CostLedger()
        _tune(trained, ledger=led, q_threshold=-0.005)
        assert led.saved_by_screening > 0.0
        screened = [
            e for e in led.counterfactuals()
            if e["account"] == "screening"
        ]
        for e in screened:
            assert e["final_q"] > e["original_q"]
            assert e["amount_s"] > 0.0

    def test_no_twin_q_never_screens(self, trained):
        led = CostLedger()
        tuner = copy.deepcopy(trained)
        tuner.use_twin_q = False
        env = make_env("TS", "D1", seed=1005, fault_profile="flaky")
        tuner.tune_online(
            env, steps=5, telemetry=RunContext(ledger=led),
            resilience=ResiliencePolicy.default(seed=3),
        )
        assert led.saved_by_screening == 0.0
        assert not led.counterfactuals()


class TestPopulationLedger:
    def test_per_member_totals_match_sessions(self, trained):
        from repro.core.population import PopulationTuner

        led = CostLedger()
        tuners = [copy.deepcopy(trained) for _ in range(3)]
        envs = [
            make_env("TS", "D1", seed=1005 + i, fault_profile="flaky")
            for i in range(3)
        ]
        resiliences = [ResiliencePolicy.default(seed=i) for i in range(3)]
        pop = PopulationTuner.from_deepcat(
            tuners, envs, telemetry=RunContext(ledger=led),
            resiliences=resiliences,
        )
        sessions = pop.tune(steps=3)
        for i, session in enumerate(sessions):
            assert (
                led.total_tuning_seconds(member=i)
                == session.total_tuning_seconds
            ), f"member {i} ledger drifted from its session TCT"


class TestOfflineLedger:
    def test_warmup_vs_evaluation_split(self):
        env = make_env("TS", "D1", seed=5)
        tuner = DeepCAT.from_env(env, seed=5)
        led = CostLedger()
        iterations = tuner.agent.hp.warmup_steps + 5
        tuner.train_offline(
            env, iterations, telemetry=RunContext(ledger=led)
        )
        totals = led.totals()
        assert totals["warmup"]["count"] == tuner.agent.hp.warmup_steps
        assert totals["evaluation"]["count"] == 5
        assert all(
            e.get("phase") == "offline" for e in led.charges()
        )


@pytest.mark.determinism
class TestLedgerPurity:
    def test_ledgered_run_bit_identical(self, trained, tmp_path):
        base = _tune(trained)
        ledgered = _tune(
            trained, ledger=CostLedger(tmp_path / "run.ledger.jsonl")
        )
        assert sessions_equal(base, ledgered)

    def test_cli_ledger_flag_bit_identical(self, tmp_path):
        model = str(tmp_path / "m.npz")
        assert main(
            ["train", "--workload", "WC", "--iterations", "80",
             "--model", model]
        ) == 0
        common = [
            "tune", "--workload", "WC", "--model", model, "--steps", "3",
            "--fault-profile", "hostile", "--seed", "7",
        ]
        a = str(tmp_path / "a.ckpt")
        b = str(tmp_path / "b.ckpt")
        assert main(common + ["--checkpoint", a]) == 0
        assert main(
            common + [
                "--checkpoint", b,
                "--ledger", str(tmp_path / "run.ledger.jsonl"),
            ]
        ) == 0
        from repro.core.persistence import load_population_checkpoint

        [session_a] = load_population_checkpoint(a).sessions
        [session_b] = load_population_checkpoint(b).sessions
        assert sessions_equal(session_a, session_b)
        view = load_ledger(tmp_path / "run.ledger.jsonl")
        assert view.total_tuning_seconds() == session_b.total_tuning_seconds


class TestExplainCli:
    def _ledger(self, trained, tmp_path, name, **kwargs):
        path = tmp_path / name
        led = CostLedger(path)
        _tune(trained, ledger=led, **kwargs)
        led.close()
        return str(path)

    def test_explain_exits_zero_and_reports(self, trained, tmp_path, capsys):
        path = self._ledger(
            trained, tmp_path, "run.ledger.jsonl", q_threshold=-0.005
        )
        assert main(["explain", path]) == 0
        out = capsys.readouterr().out
        assert "charges by account" in out
        assert "saved_by_screening" in out
        assert "evaluation" in out
        assert "per-knob cost attribution" in out

    def test_explain_compare(self, trained, tmp_path, capsys):
        a = self._ledger(trained, tmp_path, "a.ledger.jsonl")
        b = self._ledger(
            trained, tmp_path, "b.ledger.jsonl", q_threshold=-0.005
        )
        assert main(["explain", a, b, "--compare"]) == 0
        out = capsys.readouterr().out
        assert "ledger diff" in out
        assert "delta" in out
        assert main(["explain", a, "--compare"]) == 2

    def test_explain_directory(self, trained, tmp_path, capsys):
        sub = tmp_path / "ledgers"
        sub.mkdir()
        led = CostLedger(sub / "t.ledger.jsonl", source="task-0000")
        led.charge("evaluation", 5.0, step=0)
        led.close()
        assert main(["explain", str(tmp_path)]) == 0
        assert "charge(s)" in capsys.readouterr().out

    def test_explain_missing(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "nope.jsonl")]) == 1


class TestOverheadGate:
    #: Reference online step: the median of a 5-step tune_online from a
    #: 120-iteration WC model, 15.925 ms / 5 steps, measured on a 1-vCPU
    #: x86-64 host (the retired online-tune macro's last baseline entry).
    #: A constant, not a live measurement: a warm in-process tune shrinks
    #: to sub-millisecond and would make the budget track interpreter
    #: cache state instead of ledger cost.
    STEP_S = 3.185e-3

    def test_charge_cycle_under_two_percent_of_online_step(self, tmp_path):
        # Mirrors the diagnostics gate: a streamed charge+counterfactual
        # cycle must stay below 2% of an online step so --ledger is
        # always-on-safe.
        led = CostLedger(tmp_path / "bench.ledger.jsonl")
        config = {f"knob.{i}": i for i in range(12)}
        # Best-of-5 batches: the streamed path flushes per entry, so a
        # single I/O load spike on a shared runner must not fail the
        # gate; a genuine regression slows every batch.
        n, batches = 500, []
        for _ in range(5):
            t0 = time.perf_counter()
            for i in range(n):
                led.charge(
                    "evaluation", 80.0, step=i, tuner="T", success=True,
                    attempts=1, config=config,
                )
                led.charge("recommendation", 0.001, step=i, tuner="T")
                led.counterfactual(
                    "screening", 0.5, step=i, original_q=0.1, final_q=0.4
                )
            batches.append((time.perf_counter() - t0) / n)
        cycle_s = min(batches)
        led.close()
        assert cycle_s < 0.02 * self.STEP_S, (
            f"ledger cycle {cycle_s * 1e6:.1f}us exceeds 2% of "
            f"online step {self.STEP_S * 1e3:.3f}ms"
        )
