"""Quantile rule that labels each weight with its salient or unsalient group.

Cutoffs are z-scores of cumulative Gaussian quantiles; each element's
uncentered |w| is compared with mu + sigma*z, where mu and sigma are the
layer's fitted mean and standard deviation. Labels 0..n_uns-1 are the
unsalient shells (inner to outer) and n_uns the salient tail; they are also
the symbols of the packed group-index stream. For a layer with mean near
zero each shell then targets an equal share of the mass and the salient set
holds the distribution tails; a nonzero mean shifts the realized fractions
away from those targets. `LayerObjective` applies the rule at each share.
"""

import numpy as np

from .errors import DomainError
from .weight_stats import GaussianFit, probit

# Probit arguments are clamped below this to keep the top cutoff finite
# when the salient share is 0.
_MAX_QUANTILE = 1.0 - 1e-12


def compute_cutoffs(p_sal: float, n_uns: int) -> list[float]:
    """z-scores bounding the unsalient subsets for a given salient share.

    The k-th cutoff is probit((1 + k*p_uns)/2) for k = 1..n_uns, with the
    argument clamped just below 1 so p_sal = 0 stays finite.
    """
    if n_uns < 1:
        raise DomainError(f"need at least one unsalient subset, got {n_uns}")
    if not 0.0 <= p_sal < 1.0:
        raise DomainError(f"salient share must lie in [0, 1), got {p_sal}")
    p_uns = (1.0 - p_sal) / n_uns
    cutoffs = [probit(min((1.0 + k * p_uns) / 2.0, _MAX_QUANTILE))
               for k in range(1, n_uns + 1)]
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise DomainError("quantile cutoffs collapsed; salient share too close to 1")
    return cutoffs


def magnitude_thresholds(fit: GaussianFit, cutoffs) -> np.ndarray:
    """Group bounds mu + sigma*z on uncentered |w|; none (inf) for a zero-sigma fit."""
    if fit.sigma == 0.0:
        return np.full(len(cutoffs), np.inf)
    return fit.mu + fit.sigma * np.asarray(cutoffs, dtype=np.float64)


def magnitude_labels(magnitudes: np.ndarray, thresholds, out=None) -> np.ndarray:
    """Label (uint8) = number of ascending thresholds |w| exceeds; a tie goes to the lower.
    The labels are added into `out`, uint8 zeros of |w|'s shape, if given."""
    labels = np.zeros(magnitudes.shape, dtype=np.uint8) if out is None else out
    for t in np.asarray(thresholds):  # a Python float would be rounded to |w|'s dtype first
        labels += (magnitudes > t).view(np.uint8)
    return labels
