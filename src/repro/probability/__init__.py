"""Finite probability substrate: spaces, distributions, and statistics.

The paper's model (Definition 2.1) uses finite probability spaces
``(Omega, 2^Omega, P)`` as transition targets; :mod:`repro.probability`
implements them with exact rational arithmetic, together with the
one-sided confidence machinery used when arrow statements are tested by
sampling.
"""

from repro.probability.sequential import (
    SequentialProbabilityRatioTest,
    SprtResult,
    SprtVerdict,
    sprt_for_claim,
)
from repro.probability.space import (
    FiniteDistribution,
    ProbabilitySpace,
    as_fraction,
)
from repro.probability.stats import (
    BernoulliSummary,
    clopper_pearson_lower,
    clopper_pearson_upper,
)

__all__ = [
    "FiniteDistribution",
    "ProbabilitySpace",
    "as_fraction",
    "BernoulliSummary",
    "SequentialProbabilityRatioTest",
    "SprtResult",
    "SprtVerdict",
    "sprt_for_claim",
    "clopper_pearson_lower",
    "clopper_pearson_upper",
]
