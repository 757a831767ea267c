"""Unit tests for the confidence-bound machinery."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from scipy import stats as scipy_stats

from repro.errors import VerificationError
from repro.probability.stats import (
    BernoulliSummary,
    _binomial_cdf,
    _cp_lower,
    _cp_upper,
    clopper_pearson_lower,
    clopper_pearson_upper,
)
from repro.proofs.statements import ArrowStatement, StateClass
from repro.proofs.verifier import ArrowCheckReport, PairCheck


# ----------------------------------------------------------------------
# Reference Clopper-Pearson: the original fixed 200-step bisection, with
# three lgamma calls per CDF term at every step, kept frozen.  The
# memoised bounds must return its float bits exactly.
# benchmarks/bench_stats.py imports it from here as its timing base.
# ----------------------------------------------------------------------


def _reference_cdf(k: int, n: int, p: float) -> float:
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    total = 0.0
    log_p = math.log(p)
    log_q = math.log(1.0 - p)
    for i in range(k + 1):
        log_term = (
            math.lgamma(n + 1)
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + i * log_p
            + (n - i) * log_q
        )
        total += math.exp(log_term)
    return min(1.0, total)


def reference_lower(successes: int, trials: int, confidence: float) -> float:
    """The original ``clopper_pearson_lower``."""
    if successes == 0:
        return 0.0
    alpha = 1.0 - confidence
    estimate = successes / trials
    low, high = 0.0, estimate if estimate > 0 else 1.0
    high = max(high, 1e-12)
    for _ in range(200):
        mid = (low + high) / 2.0
        if 1.0 - _reference_cdf(successes - 1, trials, mid) < alpha:
            low = mid
        else:
            high = mid
    return low


def reference_upper(successes: int, trials: int, confidence: float) -> float:
    """The original ``clopper_pearson_upper``."""
    if successes == trials:
        return 1.0
    alpha = 1.0 - confidence
    low, high = successes / trials, 1.0
    for _ in range(200):
        mid = (low + high) / 2.0
        if _reference_cdf(successes, trials, mid) < alpha:
            high = mid
        else:
            low = mid
    return high


#: ``herman-verify``'s bounds (n=2000, confidence 0.99) as ``k: (lower,
#: upper)`` in ``float.hex``, computed by the reference bisection.
HERMAN_GOLDENS = {
    1989: ("0x1.fa8354368a8bdp-1", "0x1.fec6e6e51b023p-1"),
    1990: ("0x1.fadb250e1e18ep-1", "0x1.fef0fe37f2e5cp-1"),
    1993: ("0x1.fbe9c8b787a00p-1", "0x1.ff672599a0700p-1"),
    1994: ("0x1.fc4724f9cf25fp-1", "0x1.ff8ae7cb2857cp-1"),
    1995: ("0x1.fca6a99aa63e7p-1", "0x1.ffac1d8c3c373p-1"),
}


def _clear_cp_cache() -> None:
    _cp_lower.cache_clear()
    _cp_upper.cache_clear()


def _bounds_hex(successes: int, trials: int, confidence: float):
    summary = BernoulliSummary(successes, trials)
    return (
        clopper_pearson_lower(summary, confidence).hex(),
        clopper_pearson_upper(summary, confidence).hex(),
    )


def _reference_hex(successes: int, trials: int, confidence: float):
    return (
        reference_lower(successes, trials, confidence).hex(),
        reference_upper(successes, trials, confidence).hex(),
    )


class TestBernoulliSummary:
    def test_estimate(self):
        assert BernoulliSummary(30, 100).estimate == 0.3

    def test_rejects_zero_trials(self):
        with pytest.raises(VerificationError):
            BernoulliSummary(0, 0)

    def test_rejects_successes_above_trials(self):
        with pytest.raises(VerificationError):
            BernoulliSummary(11, 10)

    def test_rejects_negative_successes(self):
        with pytest.raises(VerificationError):
            BernoulliSummary(-1, 10)


class TestClopperPearson:
    def test_zero_successes_lower_is_zero(self):
        assert clopper_pearson_lower(BernoulliSummary(0, 50)) == 0.0

    def test_all_successes_upper_is_one(self):
        assert clopper_pearson_upper(BernoulliSummary(50, 50)) == 1.0

    def test_lower_matches_scipy_beta(self):
        # Clopper-Pearson lower bound = Beta(k, n-k+1) quantile at alpha.
        k, n, confidence = 30, 100, 0.99
        expected = scipy_stats.beta.ppf(1 - confidence, k, n - k + 1)
        actual = clopper_pearson_lower(BernoulliSummary(k, n), confidence)
        assert math.isclose(actual, expected, abs_tol=1e-6)

    def test_upper_matches_scipy_beta(self):
        k, n, confidence = 30, 100, 0.99
        expected = scipy_stats.beta.ppf(confidence, k + 1, n - k)
        actual = clopper_pearson_upper(BernoulliSummary(k, n), confidence)
        assert math.isclose(actual, expected, abs_tol=1e-6)

    def test_bounds_bracket_estimate(self):
        summary = BernoulliSummary(25, 80)
        assert (
            clopper_pearson_lower(summary)
            < summary.estimate
            < clopper_pearson_upper(summary)
        )


class TestClopperPearsonBitIdentity:
    """The memoised bounds return the reference bisection's float bits."""

    @pytest.mark.parametrize("confidence", [0.9, 0.99, 0.999])
    def test_every_k_up_to_n_30(self, confidence):
        _clear_cp_cache()
        for n in range(1, 31):
            for k in range(n + 1):
                assert _bounds_hex(k, n, confidence) == _reference_hex(
                    k, n, confidence
                ), (k, n)

    def test_every_k_at_n_120(self):
        _clear_cp_cache()
        for k in range(121):
            assert _bounds_hex(k, 120, 0.99) == _reference_hex(k, 120, 0.99), k

    @pytest.mark.parametrize("k", sorted(HERMAN_GOLDENS))
    def test_herman_goldens(self, k):
        _clear_cp_cache()
        assert _bounds_hex(k, 2000, 0.99) == HERMAN_GOLDENS[k]

    @pytest.mark.parametrize("n", [10**3, 10**6])
    def test_tiny_lower_bound(self, n):
        # Bisection from (0, 1/n] halves its way down to ~1e-8 at n=10^6,
        # well past the ~55 steps a bound in [1/2, 1) needs.
        _clear_cp_cache()
        for confidence in (0.9, 0.99, 0.999):
            actual = clopper_pearson_lower(BernoulliSummary(1, n), confidence)
            assert 0.0 < actual < 1.0 / n
            assert actual.hex() == reference_lower(1, n, confidence).hex()

    @pytest.mark.parametrize("n", [1, 7, 2000])
    def test_k_0_and_k_n_early_returns(self, n):
        _clear_cp_cache()
        assert clopper_pearson_lower(BernoulliSummary(0, n), 0.99) == 0.0
        assert clopper_pearson_upper(BernoulliSummary(n, n), 0.99) == 1.0


class TestClopperPearsonMemo:
    def test_invalid_confidence_raises_on_every_call(self):
        summary = BernoulliSummary(5, 10)
        clopper_pearson_lower(summary, 0.99)
        clopper_pearson_upper(summary, 0.99)
        for bound in (clopper_pearson_lower, clopper_pearson_upper):
            for _ in range(2):
                with pytest.raises(VerificationError):
                    bound(summary, confidence=1.0)

    def test_cache_is_bounded_and_hit_on_repeats(self):
        _clear_cp_cache()
        summary = BernoulliSummary(17, 40)
        for bound, cached in (
            (clopper_pearson_lower, _cp_lower),
            (clopper_pearson_upper, _cp_upper),
        ):
            assert cached.cache_info().maxsize is not None
            first = bound(summary, 0.99)
            assert bound(summary, 0.99) == first
            info = cached.cache_info()
            assert (info.hits, info.misses) == (1, 1)


class TestDecisions:
    """A report's verdict reads the Clopper-Pearson bounds of its pairs."""

    @staticmethod
    def report(successes, trials, claimed, confidence=0.99):
        anywhere = StateClass("Any", lambda s: True)
        statement = ArrowStatement(anywhere, anywhere, 0, claimed, "all")
        check = PairCheck(
            "adv", "s", BernoulliSummary(successes, trials), truncated=0
        )
        return ArrowCheckReport(statement, (check,), confidence)

    def test_refutes_clearly_false_claim(self):
        # 5/1000 successes refutes "probability >= 1/2".
        assert self.report(5, 1000, Fraction(1, 2)).refuted

    def test_does_not_refute_consistent_claim(self):
        assert not self.report(130, 1000, Fraction(1, 8)).refuted

    def test_supports_clearly_true_claim(self):
        assert self.report(900, 1000, Fraction(1, 2)).supported

    def test_support_is_stronger_than_not_refuted(self):
        report = self.report(55, 100, Fraction(1, 2))
        assert not report.refuted
        assert not report.supported


class TestNumericHelpers:
    @pytest.mark.parametrize("k,n,p", [(3, 10, 0.3), (0, 5, 0.9), (7, 8, 0.5)])
    def test_binomial_cdf_matches_scipy(self, k, n, p):
        assert math.isclose(
            _binomial_cdf(k, n, p),
            scipy_stats.binom.cdf(k, n, p),
            abs_tol=1e-9,
        )

    def test_binomial_cdf_degenerate_cases(self):
        assert _binomial_cdf(-1, 10, 0.5) == 0.0
        assert _binomial_cdf(10, 10, 0.5) == 1.0
        assert _binomial_cdf(3, 10, 0.0) == 1.0
        assert _binomial_cdf(3, 10, 1.0) == 0.0
