"""Quantile-based split of a layer into one salient and N disjoint unsalient subsets.

Cutoffs are z-scores of cumulative Gaussian quantiles; each element's
uncentered |w| is compared with mu + sigma*z, where mu and sigma are the
layer's fitted mean and standard deviation. For a layer with mean near zero
each unsalient subset then targets an equal share of the mass and the
salient set holds the distribution tails; a nonzero mean shifts the realized
fractions away from those targets.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .weight_stats import GaussianFit, probit

# Probit arguments are clamped below this to keep the top cutoff finite
# when the salient share is 0.
_MAX_QUANTILE = 1.0 - 1e-12


@dataclass(frozen=True)
class PartitionSpec:
    """Cutoff parameters that produced a partition."""

    p_sal: float
    n_uns: int
    z_cutoffs: tuple[float, ...]
    mu: float
    sigma: float


@dataclass
class LayerPartition:
    """Per-element group labels for one layer.

    Label values 0 .. n_uns-1 are the unsalient subsets 1 .. n_uns (inner to
    outer magnitude shell); label n_uns marks salient elements. The same
    integers double as the symbols of the packed group-index stream.
    """

    labels: np.ndarray  # (m, n) int8
    spec: PartitionSpec

    @property
    def n_uns(self) -> int:
        return self.spec.n_uns

    @property
    def salient_label(self) -> int:
        return self.spec.n_uns

    def salient_mask(self) -> np.ndarray:
        return self.labels == self.salient_label


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


def magnitude_labels(magnitudes: np.ndarray, thresholds) -> np.ndarray:
    """Label = number of (ascending) thresholds |w| exceeds; a tie goes to the lower group."""
    labels = np.zeros(magnitudes.shape, dtype=np.int8)
    for t in thresholds:
        labels += (magnitudes > t).view(np.int8)
    return labels


def partition(matrix, fit: GaussianFit, p_sal: float, n_uns: int) -> LayerPartition:
    """Label every element of the matrix with its magnitude group.

    An element is salient iff |w| exceeds the outermost cutoff; unsalient
    subset k covers mu + sigma*z^(k-1) < |w| <= mu + sigma*z^(k), with the
    innermost subset absorbing everything below the first cutoff. Ties at a
    cutoff go to the lower subset. A zero-sigma layer degenerates to a
    single unsalient group with the salient share forced to 0.
    """
    if fit.sigma == 0.0:
        p_sal = 0.0
    cutoffs = compute_cutoffs(p_sal, n_uns)
    labels = magnitude_labels(np.abs(matrix.data, dtype=np.float64),
                              magnitude_thresholds(fit, cutoffs))
    spec = PartitionSpec(p_sal=p_sal, n_uns=n_uns, z_cutoffs=tuple(cutoffs),
                         mu=fit.mu, sigma=fit.sigma)
    return LayerPartition(labels=labels, spec=spec)
