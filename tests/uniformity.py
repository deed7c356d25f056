"""Chi-square uniformity test for the sampler tests, in pure Python."""

import math
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
    threshold = chi2_upper_quantile(CHI2_FALSE_ALARM, n_outcomes - 1)
    return ChiSquareResult(
        statistic=statistic,
        threshold=threshold,
        dof=n_outcomes - 1,
        passed=statistic < threshold,
    )


def chi2_upper_tail(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with a positive integer dof, x > 0.

    For integer dof the tail is a finite sum: with y = x/2,
    e^-y * sum_a y^a / a! over a = 0, 1, ..., dof/2 - 1 for even dof, and
    erfc(sqrt(y)) plus the same sum over a = 1/2, 3/2, ..., dof/2 - 1 (a!
    read as Gamma(a + 1)) for odd dof. Each term is formed in log space, so
    none overflows at large dof.
    """
    y = x / 2
    total = 0.0 if dof % 2 == 0 else math.erfc(math.sqrt(y))
    a = (dof % 2) / 2
    while a <= dof / 2 - 1:
        total += math.exp(a * math.log(y) - y - math.lgamma(a + 1))
        a += 1
    return total


def chi2_upper_quantile(tail: float, dof: int) -> float:
    """The x with chi2_upper_tail(x, dof) = tail, 0 < tail < 1, by bisection
    down to adjacent floats."""
    lo, hi = 0.0, dof + 10.0
    while chi2_upper_tail(hi, dof) > tail:
        lo, hi = hi, 2 * hi
    while True:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            return hi
        if chi2_upper_tail(mid, dof) > tail:
            lo = mid
        else:
            hi = mid
