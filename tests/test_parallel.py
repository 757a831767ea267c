"""Determinism suite for the parallel Monte-Carlo backend.

The contract under test: a sampling report is a pure function of the
root seed and the work's identity — the same for ``workers=1`` and
``workers=N``, unchanged when unrelated pairs are added, with early
stopping never flipping a verdict and worker-side metrics merging to
exactly the sequential totals.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro import obs
from repro.adversary.deterministic import FirstEnabledAdversary
from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import check_statement
from repro.errors import VerificationError
from repro.models import ExperimentSetup, get_model
from repro.parallel import (
    derive_seed,
    fork_available,
    merge_metrics_snapshot,
    metrics_snapshot,
    occurrence_indices,
    resolve_workers,
)
from repro.probability.stats import BernoulliSummary
from repro.proofs.statements import ArrowStatement, StateClass
from repro.proofs.verifier import (
    ArrowCheckReport,
    PairCheck,
    check_arrow_by_sampling,
    measure_time_to_target,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel backend needs the fork method"
)


def zero_time(state):
    return Fraction(0)


START = StateClass("Start", lambda s: s == "start")
GOAL = StateClass("Goal", lambda s: s == "goal")
NEVER = StateClass("Never", lambda s: False)


@pytest.fixture(scope="module")
def setup3() -> ExperimentSetup:
    return get_model("lr").build(3, random_seeds=(1,))


class TestSeedDerivation:
    def test_same_identity_same_seed(self):
        assert derive_seed(7, "adv", "state", 0) == derive_seed(
            7, "adv", "state", 0
        )

    def test_any_part_changes_the_seed(self):
        base = derive_seed(7, "adv", "state", 0)
        assert derive_seed(8, "adv", "state", 0) != base
        assert derive_seed(7, "bdv", "state", 0) != base
        assert derive_seed(7, "adv", "state2", 0) != base
        assert derive_seed(7, "adv", "state", 1) != base

    def test_part_boundaries_are_unambiguous(self):
        assert derive_seed(7, "ab", "c") != derive_seed(7, "a", "bc")

    def test_occurrence_indices_count_duplicates(self):
        assert occurrence_indices(["a", "b", "a", "a", "b"]) == [
            0, 0, 1, 2, 1,
        ]

    def test_resolve_workers_validates(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers(None) >= 1
        with pytest.raises(VerificationError):
            resolve_workers(0)


class TestWorkerCountInvariance:
    """Same root seed => byte-identical reports for 1 and 4 workers."""

    def check(self, coin_walk, workers, **kwargs):
        statement = ArrowStatement(START, GOAL, 0, Fraction(1, 2), "all")
        return check_arrow_by_sampling(
            coin_walk,
            statement,
            [("first", FirstEnabledAdversary())],
            ["start"],
            zero_time,
            seed=11,
            samples_per_pair=60,
            max_steps=300,
            workers=workers,
            **kwargs,
        )

    def test_small_automaton_byte_identical(self, coin_walk):
        sequential = self.check(coin_walk, workers=1)
        parallel = self.check(coin_walk, workers=4)
        assert json.dumps(sequential.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_lehmann_rabin_byte_identical(self, setup3):
        statement = lr.leaf_statements()["A.14"]
        reports = [
            check_statement(
                statement, setup3, seed=5, samples_per_pair=12,
                random_starts=2, max_steps=200, workers=workers,
            )
            for workers in (1, 4)
        ]
        dumps = [
            json.dumps(report.to_dict(), sort_keys=True)
            for report in reports
        ]
        assert dumps[0] == dumps[1]

    def test_added_pairs_leave_existing_streams_alone(self, setup3):
        statement = lr.leaf_statements()["A.14"]

        def pair_dicts(random_starts):
            report = check_statement(
                statement, setup3, seed=5, samples_per_pair=10,
                random_starts=random_starts, max_steps=200,
            )
            return {
                (c["adversary"], c["start_state"]): c
                for c in report.to_dict()["checks"]
            }

        small = pair_dicts(0)
        large = pair_dicts(3)
        assert set(small) <= set(large)
        for key, check in small.items():
            assert large[key] == check


class TestEarlyStop:
    def run(self, automaton, statement, early_stop, cap=200):
        return check_arrow_by_sampling(
            automaton,
            statement,
            [("first", FirstEnabledAdversary())],
            ["start"],
            zero_time,
            seed=17,
            samples_per_pair=cap,
            max_steps=300,
            early_stop=early_stop,
        )

    def test_supported_pair_stops_early_same_verdict(self, coin_walk):
        statement = ArrowStatement(START, GOAL, 0, Fraction(1, 2), "all")
        early = self.run(coin_walk, statement, early_stop=True)
        full = self.run(coin_walk, statement, early_stop=False)
        assert (early.refuted, early.supported) == (
            full.refuted, full.supported,
        )
        assert early.worst.summary.trials < full.worst.summary.trials
        assert full.worst.summary.trials == 200

    def test_refuted_pair_stops_early_same_verdict(self, coin_walk):
        statement = ArrowStatement(START, NEVER, 0, Fraction(1, 2), "all")
        early = self.run(coin_walk, statement, early_stop=True, cap=100)
        full = self.run(coin_walk, statement, early_stop=False, cap=100)
        assert early.refuted and full.refuted
        assert early.worst.summary.trials < 100

    def test_early_stop_identical_across_worker_counts(self, coin_walk):
        statement = ArrowStatement(START, GOAL, 0, Fraction(1, 2), "all")

        def run(workers):
            return check_arrow_by_sampling(
                coin_walk, statement,
                [("first", FirstEnabledAdversary())], ["start"], zero_time,
                seed=23, samples_per_pair=500, max_steps=300,
                early_stop=True, workers=workers,
            )

        assert run(1).to_dict() == run(4).to_dict()


class TestObsMerge:
    def run_recorded(self, setup3, workers):
        statement = lr.leaf_statements()["A.14"]
        with obs.recording() as registry:
            check_statement(
                statement, setup3, seed=5, samples_per_pair=10,
                random_starts=1, max_steps=200, workers=workers,
            )
        return registry.metrics.snapshot()

    def test_worker_metrics_merge_to_sequential_totals(self, setup3):
        sequential = self.run_recorded(setup3, workers=1)
        parallel = self.run_recorded(setup3, workers=2)
        assert parallel == sequential
        assert parallel["counters"]["verifier.pairs"] > 0
        assert parallel["counters"]["sampler.samples"] > 0

    def test_snapshot_round_trip(self):
        from repro.obs.metrics import Metrics

        source = Metrics()
        source.counter("a.count").inc(3)
        source.gauge("a.gauge").set(7)
        source.histogram("a.hist").observe(1.0)
        source.histogram("a.hist").observe(2.0)
        merged = Metrics()
        merge_metrics_snapshot(merged, metrics_snapshot(source))
        assert merged.snapshot() == source.snapshot()


class TestTimeToTarget:
    def measure(self, coin_walk, workers, samples=5):
        return measure_time_to_target(
            coin_walk,
            "first",
            FirstEnabledAdversary(),
            ["start", "middle"],
            lambda s: s == "goal",
            zero_time,
            seed=9,
            samples=samples,
            max_steps=2_000,
            workers=workers,
        )

    def test_samples_distributed_evenly(self, coin_walk):
        report = self.measure(coin_walk, workers=1, samples=5)
        # 5 samples over 2 starts rounds up to 3 each: no start is
        # silently over-weighted in the mean.
        assert [c.samples for c in report.per_start] == [3, 3]
        data = report.to_dict()
        assert data["samples"] == 6
        assert [c["samples"] for c in data["per_start"]] == [3, 3]
        assert sum(c["reached"] for c in data["per_start"]) == len(
            report.times
        )

    def test_identical_across_worker_counts(self, coin_walk):
        sequential = self.measure(coin_walk, workers=1, samples=8)
        parallel = self.measure(coin_walk, workers=3, samples=8)
        assert sequential.times == parallel.times
        assert sequential.to_dict() == parallel.to_dict()


class TestWorstTieBreak:
    def report(self, order):
        statement = ArrowStatement(START, GOAL, 0, Fraction(1, 2), "all")
        checks = tuple(
            PairCheck(
                adversary_name=name,
                start_state="start",
                summary=BernoulliSummary(1, 2),
                truncated=0,
            )
            for name in order
        )
        return ArrowCheckReport(
            statement=statement, checks=checks, confidence=0.99
        )

    def test_ties_break_on_name_not_list_order(self):
        forward = self.report(["alpha", "beta"])
        backward = self.report(["beta", "alpha"])
        assert forward.worst.adversary_name == "alpha"
        assert backward.worst.adversary_name == "alpha"
        assert forward.summary_line() == backward.summary_line()
