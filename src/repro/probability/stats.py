"""Statistical estimators and confidence bounds for Monte-Carlo runs.

The paper's statements ``U --t-->_p U'`` are *lower bounds* on a success
probability, universally quantified over an adversary schema.  When we
test such a statement by sampling executions under a concrete adversary,
we need one-sided confidence bounds on the underlying Bernoulli
parameter: a statement survives the test when the *lower* confidence
bound under the most damaging adversary we tried still reaches ``p``,
and is refuted when even the *upper* bound stays below it (see
:class:`~repro.proofs.verifier.ArrowCheckReport`).

The bounds are exact Clopper-Pearson: valid for every sample size,
with no normal approximation.  They are memoised per ``(successes,
trials, confidence)``: reports re-derive them on every verdict access,
from a handful of distinct counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List

from repro.errors import VerificationError


@dataclass(frozen=True)
class BernoulliSummary:
    """Summary of ``trials`` independent success/failure observations."""

    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise VerificationError("a Bernoulli summary needs at least one trial")
        if not 0 <= self.successes <= self.trials:
            raise VerificationError(
                f"successes {self.successes} out of range for {self.trials} trials"
            )

    @property
    def estimate(self) -> float:
        """The maximum-likelihood point estimate of the success rate."""
        return self.successes / self.trials


def clopper_pearson_lower(
    summary: BernoulliSummary, confidence: float = 0.99
) -> float:
    """The exact (Clopper-Pearson) one-sided lower confidence bound.

    Computed by bisection on the binomial tail, so it needs no normal
    approximation and is valid for every sample size.  Memoised; see
    :func:`_cp_lower` for the cost and why the result is exact.
    """
    _check_confidence(confidence)
    return _cp_lower(summary.successes, summary.trials, confidence)


def clopper_pearson_upper(
    summary: BernoulliSummary, confidence: float = 0.99
) -> float:
    """The exact one-sided upper confidence bound (memoised likewise)."""
    _check_confidence(confidence)
    return _cp_upper(summary.successes, summary.trials, confidence)


@functools.lru_cache(maxsize=4096)
def _cp_lower(successes: int, trials: int, confidence: float) -> float:
    """The lower bound: the p solving P[Bin(trials, p) >= successes] = alpha.

    Returns the same float bits as a plain 200-step bisection that
    calls :func:`_binomial_cdf` at every step, for three reasons:

    * the log-binomial coefficients do not depend on ``p``, so they are
      computed once, and every term is still summed in the same
      left-to-right order (see :func:`_cdf_from_coefficients`);
    * a step is a pure function of ``(low, high)``, so the first step
      that changes neither is a fixed point that every later step would
      repeat; the loop stops there, with ``range(200)`` still the cap;
    * the bound is a pure function of its arguments, so the memo
      returns what a fresh call would.

    Cost of a miss: ``successes`` ``lgamma`` triples once, then one
    ``exp`` per term at each step until the fixed point, about 55-60
    steps for a bound in [1/2, 1) and more for tiny bounds.  A hit
    costs one dict lookup.  ``successes >= 1`` puts the bound in
    ``(0, successes / trials]``.
    """
    if successes == 0:
        return 0.0
    alpha = 1.0 - confidence
    coefficients = _log_binomial_coefficients(successes - 1, trials)
    low, high = 0.0, successes / trials
    for _ in range(200):
        mid = (low + high) / 2.0
        if 1.0 - _cdf_from_coefficients(coefficients, trials, mid) < alpha:
            if mid == low:
                break
            low = mid
        else:
            if mid == high:
                break
            high = mid
    return low


@functools.lru_cache(maxsize=4096)
def _cp_upper(successes: int, trials: int, confidence: float) -> float:
    """The upper bound: the p solving P[Bin(trials, p) <= successes] = alpha.

    Exact, and costed, as :func:`_cp_lower` (``successes + 1`` terms).
    """
    if successes == trials:
        return 1.0
    alpha = 1.0 - confidence
    coefficients = _log_binomial_coefficients(successes, trials)
    low, high = successes / trials, 1.0
    for _ in range(200):
        mid = (low + high) / 2.0
        if _cdf_from_coefficients(coefficients, trials, mid) < alpha:
            if mid == high:
                break
            high = mid
        else:
            if mid == low:
                break
            low = mid
    return high


# ----------------------------------------------------------------------
# Numerical helpers (no scipy dependency in the hot path)
# ----------------------------------------------------------------------


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise VerificationError(f"confidence must be in (0, 1), got {confidence}")


def _binomial_cdf(k: int, n: int, p: float) -> float:
    """P[Bin(n, p) <= k], computed stably in log space."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return _cdf_from_coefficients(_log_binomial_coefficients(k, n), n, p)


def _log_binomial_coefficients(k: int, n: int) -> List[float]:
    """``log C(n, i)`` for ``i = 0..k``, via ``lgamma``."""
    log_n_factorial = math.lgamma(n + 1)
    return [
        log_n_factorial - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        for i in range(k + 1)
    ]


def _cdf_from_coefficients(coefficients: List[float], n: int, p: float) -> float:
    """P[Bin(n, p) <= len(coefficients) - 1], given the log coefficients.

    Each term is ``exp(coef + i*log_p + (n-i)*log_q)``, added to the
    running sum in index order: the float operations, and so the bits,
    of summing ``exp(lgamma(n+1) - lgamma(i+1) - lgamma(n-i+1) +
    i*log_p + (n-i)*log_q)`` left to right.
    """
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    total = 0.0
    log_p = math.log(p)
    log_q = math.log(1.0 - p)
    exp = math.exp
    for i, coefficient in enumerate(coefficients):
        total += exp(coefficient + i * log_p + (n - i) * log_q)
    return min(1.0, total)
