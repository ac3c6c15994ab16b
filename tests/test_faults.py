"""Unit tests for the shared fault-DSL helpers and recovery budgets
(``repro.core.faults``)."""

from __future__ import annotations

import pytest

from repro.core.faults import (
    FaultPlanError,
    FaultTolerance,
    deterministic_uniform,
    split_plan,
)


class TestFaultPlanParsing:
    def test_multi_spec_plan(self):
        chunks = split_plan(
            "fail:task@dispatch=0;hang:task@round=2,duration=3;"
            " corrupt:task ; die:task@task=0"
        )
        assert chunks == [
            ("fail", "task", {"dispatch": "0"}),
            ("hang", "task", {"round": "2", "duration": "3"}),
            ("corrupt", "task", {}),
            ("die", "task", {"task": "0"}),
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "",                       # nothing at all
            ";;",                     # only separators
            "fail",                   # no site
            "fail:task@dispatch",     # missing '='
        ],
    )
    def test_malformed_plans_raise(self, text):
        with pytest.raises(FaultPlanError):
            split_plan(text)

    def test_fault_plan_error_is_value_error(self):
        # argparse `type=` integration relies on this.
        assert issubclass(FaultPlanError, ValueError)


class TestDeterministicDraws:
    @staticmethod
    def _fires(seed, coords):
        return [
            deterministic_uniform(seed, 0, "task", sorted(c.items())) < 0.5
            for c in coords
        ]

    def test_probabilistic_draws_replay_exactly(self):
        coords = [{"dispatch": d, "task": t} for d in range(20)
                  for t in range(2)]
        first = self._fires(7, coords)
        second = self._fires(7, coords)
        assert first == second
        assert any(first) and not all(first)  # p=0.5 actually thins

    def test_different_seeds_give_different_trajectories(self):
        coords = [{"dispatch": d} for d in range(64)]
        assert self._fires(1, coords) != self._fires(2, coords)


class TestFaultTolerance:
    def test_defaults_are_valid(self):
        tol = FaultTolerance()
        assert tol.task_deadline == 120.0
        assert tol.task_retries == 2

    def test_backoff_is_bounded_exponential(self):
        tol = FaultTolerance(backoff_base=0.1, backoff_cap=0.5)
        assert tol.backoff(1) == pytest.approx(0.1)
        assert tol.backoff(2) == pytest.approx(0.2)
        assert tol.backoff(3) == pytest.approx(0.4)
        assert tol.backoff(4) == pytest.approx(0.5)  # capped
        assert tol.backoff(10) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_deadline": 0.0},
            {"task_deadline": -1.0},
            {"task_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_cap": -0.1},
        ],
    )
    def test_invalid_budgets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultTolerance(**kwargs)

    def test_none_deadline_disables_deadlines(self):
        assert FaultTolerance(task_deadline=None).task_deadline is None
