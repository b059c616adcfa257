"""Unit tests for the deterministic fault-injection harness."""

import json

import pytest

from repro.faults import (
    CRASH_EXIT_CODE,
    FAULTS_ENV_VAR,
    FaultPlan,
    truncate_tail,
)

pytestmark = pytest.mark.faults


class TestFaultPlanDecisions:
    def test_no_faults_by_default(self):
        plan = FaultPlan()
        assert plan.action("anything") is None
        assert plan.crashes_for(["a", "b", "c"]) == []
        assert plan.hangs_for(["a", "b", "c"]) == []

    def test_decisions_are_deterministic(self):
        keys = [f"job-{i}" for i in range(200)]
        a = FaultPlan(seed=7, crash_prob=0.3, hang_prob=0.2)
        b = FaultPlan(seed=7, crash_prob=0.3, hang_prob=0.2)
        assert a.crashes_for(keys) == b.crashes_for(keys)
        assert a.hangs_for(keys) == b.hangs_for(keys)
        assert [a.action(k) for k in keys] == [b.action(k) for k in keys]

    def test_seed_changes_the_selection(self):
        keys = [f"job-{i}" for i in range(200)]
        a = FaultPlan(seed=1, crash_prob=0.3)
        b = FaultPlan(seed=2, crash_prob=0.3)
        assert a.crashes_for(keys) != b.crashes_for(keys)

    def test_probability_roughly_respected(self):
        keys = [f"job-{i}" for i in range(2000)]
        plan = FaultPlan(seed=0, crash_prob=0.25)
        frac = len(plan.crashes_for(keys)) / len(keys)
        assert 0.2 < frac < 0.3

    def test_crash_wins_over_hang(self):
        plan = FaultPlan(seed=0, crash_prob=1.0, hang_prob=1.0)
        assert plan.action("k") == "crash"

    def test_attempts_past_budget_are_clean(self):
        plan = FaultPlan(seed=0, crash_prob=1.0)
        assert plan.action("k", attempt=1) == "crash"
        assert plan.action("k", attempt=2) is None  # max_attempt=1 default

    def test_max_attempt_extends_faulting(self):
        plan = FaultPlan(seed=0, crash_prob=1.0, max_attempt=3)
        assert [plan.action("k", attempt=a) for a in (1, 2, 3, 4)] == [
            "crash", "crash", "crash", None,
        ]

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(hang_prob=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(hang_seconds=-1.0)

    def test_inject_noop_when_clean(self):
        # Must not exit or sleep for an unfaulted key.
        FaultPlan(seed=0).inject("k")


class TestFaultPlanSerialisation:
    def test_dict_round_trip(self):
        plan = FaultPlan(seed=3, crash_prob=0.2, hang_prob=0.1, hang_seconds=5.0)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_env_round_trip(self):
        plan = FaultPlan(seed=9, crash_prob=0.4)
        env = {FAULTS_ENV_VAR: plan.to_env()}
        assert FaultPlan.from_env(env) == plan

    def test_env_unset_or_blank_is_none(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({FAULTS_ENV_VAR: "  "}) is None

    def test_env_payload_is_plain_json(self):
        doc = json.loads(FaultPlan(seed=1, crash_prob=0.5).to_env())
        assert doc["seed"] == 1 and doc["crash_prob"] == 0.5

    def test_parse_shorthand(self):
        plan = FaultPlan.parse("crash=0.2,hang=0.1,seed=3,hang_seconds=2,max_attempt=2")
        assert plan == FaultPlan(
            seed=3, crash_prob=0.2, hang_prob=0.1, hang_seconds=2.0, max_attempt=2
        )

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash")

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE not in (0, 1, 2)


class TestTruncateTail:
    def test_chops_exactly_n_bytes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"0123456789")
        assert truncate_tail(path, 4) == 6
        assert path.read_bytes() == b"012345"

    def test_truncating_past_start_empties(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"abc")
        assert truncate_tail(path, 99) == 0
        assert path.read_bytes() == b""

    def test_rejects_negative(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"abc")
        with pytest.raises(ValueError):
            truncate_tail(path, -1)

