"""Statistical estimators and confidence bounds for Monte-Carlo runs.

The paper's statements ``U --t-->_p U'`` are *lower bounds* on a success
probability, universally quantified over an adversary schema.  When we
test such a statement by sampling executions under a concrete adversary,
we need one-sided confidence bounds on the underlying Bernoulli
parameter: a statement survives the test when the *lower* confidence
bound under the most damaging adversary we tried still reaches ``p`` (or
at least does not refute it, see :func:`refutes_lower_bound`).

Three interval constructions are provided — Hoeffding, Wilson, and exact
Clopper-Pearson — because they trade tightness against assumptions and
the benchmarks report all three.  The Clopper-Pearson bounds are
memoised per ``(successes, trials, confidence)``: reports re-derive
them on every verdict access, from a handful of distinct counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

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

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[bool]) -> "BernoulliSummary":
        """Summarise an iterable of boolean trial outcomes."""
        successes = 0
        trials = 0
        for outcome in outcomes:
            trials += 1
            if outcome:
                successes += 1
        return cls(successes=successes, trials=trials)


def hoeffding_lower_bound(summary: BernoulliSummary, confidence: float = 0.99) -> float:
    """A one-sided lower bound from Hoeffding's inequality.

    With probability at least ``confidence`` over the sampling, the true
    success probability is at least the returned value.  Distribution
    free, and therefore the most conservative of the three bounds.
    """
    _check_confidence(confidence)
    slack = math.sqrt(math.log(1.0 / (1.0 - confidence)) / (2.0 * summary.trials))
    return max(0.0, summary.estimate - slack)


def hoeffding_upper_bound(summary: BernoulliSummary, confidence: float = 0.99) -> float:
    """The symmetric one-sided upper bound from Hoeffding's inequality."""
    _check_confidence(confidence)
    slack = math.sqrt(math.log(1.0 / (1.0 - confidence)) / (2.0 * summary.trials))
    return min(1.0, summary.estimate + slack)


def wilson_interval(
    summary: BernoulliSummary, confidence: float = 0.99
) -> Tuple[float, float]:
    """The two-sided Wilson score interval.

    Tighter than Hoeffding for moderate sample sizes and well behaved at
    the boundary rates 0 and 1.
    """
    _check_confidence(confidence)
    z = _normal_quantile(0.5 + confidence / 2.0)
    n = summary.trials
    p_hat = summary.estimate
    denominator = 1.0 + z * z / n
    centre = (p_hat + z * z / (2.0 * n)) / denominator
    half_width = (
        z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / denominator
    )
    return max(0.0, centre - half_width), min(1.0, centre + half_width)


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


def refutes_lower_bound(
    summary: BernoulliSummary, claimed: float, confidence: float = 0.999
) -> bool:
    """True when the sample statistically refutes ``P[success] >= claimed``.

    A claimed arrow statement is refuted only when the exact *upper*
    confidence bound falls strictly below the claimed probability — the
    sound direction for testing a universally quantified lower bound
    with a concrete adversary.
    """
    return clopper_pearson_upper(summary, confidence) < claimed


def supports_lower_bound(
    summary: BernoulliSummary, claimed: float, confidence: float = 0.99
) -> bool:
    """True when the lower confidence bound meets the claimed probability.

    Stronger than merely "not refuted": the observed data alone certify
    the bound for this adversary at the given confidence.
    """
    return clopper_pearson_lower(summary, confidence) >= claimed


@dataclass(frozen=True)
class MeanSummary:
    """Summary statistics for a sample of bounded real observations."""

    count: int
    mean: float
    variance: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MeanSummary":
        """Summarise a nonempty sequence of observations."""
        if not values:
            raise VerificationError("cannot summarise an empty sample")
        n = len(values)
        mean = sum(values) / n
        if n > 1:
            variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        else:
            variance = 0.0
        return cls(
            count=n,
            mean=mean,
            variance=variance,
            minimum=min(values),
            maximum=max(values),
        )

    def hoeffding_mean_upper(
        self, value_range: float, confidence: float = 0.99
    ) -> float:
        """One-sided Hoeffding upper bound on the true mean.

        ``value_range`` must bound the support width of each
        observation (for a time-to-goal capped at ``T`` it is ``T``).
        Used to check the paper's expected-time bound of 63.
        """
        _check_confidence(confidence)
        if value_range <= 0:
            raise VerificationError("value_range must be positive")
        slack = value_range * math.sqrt(
            math.log(1.0 / (1.0 - confidence)) / (2.0 * self.count)
        )
        return self.mean + slack


# ----------------------------------------------------------------------
# Numerical helpers (no scipy dependency in the hot path)
# ----------------------------------------------------------------------


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise VerificationError(f"confidence must be in (0, 1), got {confidence}")


def _normal_quantile(q: float) -> float:
    """Inverse standard-normal CDF via the Acklam rational approximation."""
    if not 0.0 < q < 1.0:
        raise VerificationError(f"quantile argument must be in (0, 1), got {q}")
    # Coefficients for the central and tail regions.
    a = (
        -3.969683028665376e01,
        2.209460984245205e02,
        -2.759285104469687e02,
        1.383577518672690e02,
        -3.066479806614716e01,
        2.506628277459239e00,
    )
    b = (
        -5.447609879822406e01,
        1.615858368580409e02,
        -1.556989798598866e02,
        6.680131188771972e01,
        -1.328068155288572e01,
    )
    c = (
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e00,
        -2.549732539343734e00,
        4.374664141464968e00,
        2.938163982698783e00,
    )
    d = (
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e00,
        3.754408661907416e00,
    )
    p_low = 0.02425
    if q < p_low:
        r = math.sqrt(-2.0 * math.log(q))
        return (
            ((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]
        ) / ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    if q > 1.0 - p_low:
        r = math.sqrt(-2.0 * math.log(1.0 - q))
        return -(
            ((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]
        ) / ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    r = q - 0.5
    s = r * r
    return (
        (((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s + a[5]) * r
    ) / (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s + 1.0)


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
