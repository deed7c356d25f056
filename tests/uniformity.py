"""Chi-square uniformity test for the sampler tests (needs scipy)."""

from dataclasses import dataclass
from typing import Sequence

CHI2_FALSE_ALARM = 1e-6


@dataclass(frozen=True)
class ChiSquareResult:
    """Pearson statistic against the uniform null, with its pass threshold."""

    statistic: float
    threshold: float
    dof: int
    passed: bool


def chi_square(observed: Sequence[int]) -> ChiSquareResult:
    """Test observed outcome counts against the uniform distribution.

    Passes when the Pearson statistic stays below the 1 - 1e-6 quantile of
    the chi-square law with len(observed) - 1 degrees of freedom, a roughly
    5-sigma false-alarm rate chosen so that repeated CI runs do not flake.
    Requires at least 100 draws per outcome.
    """
    counts = list(observed)
    n_outcomes = len(counts)
    if n_outcomes < 2:
        raise ValueError("need at least 2 outcomes")
    total = sum(counts)
    if total < 100 * n_outcomes:
        raise ValueError(f"insufficient draws: {total} < 100 * {n_outcomes}")
    mean = total / n_outcomes
    statistic = sum((c - mean) ** 2 for c in counts) / mean
    from scipy.stats import chi2

    threshold = float(chi2.ppf(1 - CHI2_FALSE_ALARM, n_outcomes - 1))
    return ChiSquareResult(
        statistic=statistic,
        threshold=threshold,
        dof=n_outcomes - 1,
        passed=statistic < threshold,
    )
