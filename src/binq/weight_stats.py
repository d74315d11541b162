"""Per-layer weight statistics: Gaussian fit, histograms, KL divergence, probit.

The probit is `statistics.NormalDist().inv_cdf`, Wichura's AS241 (1988): on 60,000 points
of [1e-12, 1 - 1e-12] it is within 5 ulps of mpmath's. The CDF stays erfc-based: the erf
that `NormalDist.cdf` uses loses the left tail that `kl_divergence` sums.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bit_packer import CHUNK
from .errors import DomainError

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GaussianFit:
    """Sample mean and population standard deviation of a weight matrix."""

    mu: float
    sigma: float

    def cdf(self, x: float) -> float:
        """Normal CDF of the fitted distribution at x. At sigma = 0 it is P(X < x), which is
        not a true CDF: the point mass at mu counts only past mu, as a histogram's [a, b)
        bins count mu in the bin that starts at it."""
        if self.sigma == 0.0:
            return 0.0 if x <= self.mu else 1.0
        return normal_cdf((x - self.mu) / self.sigma)


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray    # bin edges, strictly increasing, len = bins + 1
    counts: np.ndarray   # nonnegative integers, len = bins
    total: int

    def probabilities(self) -> np.ndarray:
        return self.counts.astype(np.float64) / float(self.total)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc (accurate in both tails)."""
    return 0.5 * math.erfc(-z / _SQRT2)


def probit(p: float) -> float:
    """Inverse standard normal CDF for 0 < p < 1 (AS241, within 5 ulps where measured)."""
    if not 0.0 < p < 1.0:  # also rejects NaN
        raise DomainError(f"probit requires 0 < p < 1, got {p}")
    import statistics  # here, not at import: it loads decimal, fractions and random
    return statistics.NormalDist().inv_cdf(p)


def fit_gaussian(matrix) -> GaussianFit:
    """Fit mu (sample mean) and sigma (population standard deviation), with no float64 copy.
    A float64 sum of finite float32 values cannot overflow, so a non-finite mean means a
    non-finite weight: `ValueError`, as `WeightMatrix.require_finite` raises. A one-weight
    or constant layer fits sigma = 0; `WeightMatrix` holds no empty one."""
    data = matrix.data
    with np.errstate(invalid="ignore"):  # inf - inf
        mu = float(np.mean(data, dtype=np.float64))
    if not math.isfinite(mu):
        raise ValueError("tensor contains non-finite values")
    return GaussianFit(mu=mu, sigma=math.sqrt(squared_deviation_sum(data, mu) / data.size))


def squared_deviation_sum(data: np.ndarray, mu: float = 0.0, buf=None) -> float:
    """Sum of (x - mu)^2 in float64 over contiguous float32 `data`, bitwise `np.sum` of the
    float64 array it never makes: pieces of at most CHUNK, split as numpy's pairwise sum splits
    n (at n // 2 rounded down to a multiple of 8), are squared in `buf` (made if None) and
    summed by `np.sum`. It recurses here, not in a closure, which would hold `buf` in a cycle."""
    flat, n = data.reshape(-1), data.size
    buf = np.empty(min(CHUNK, n)) if buf is None else buf
    if n > CHUNK:
        half = n // 2 - n // 2 % 8
        return (squared_deviation_sum(flat[:half], mu, buf)
                + squared_deviation_sum(flat[half:], mu, buf))
    part = np.subtract(flat, mu, out=buf[:n], dtype=np.float64)
    return float(np.sum(np.square(part, out=part)))


def default_bin_count(m: int, n: int) -> int:
    """Histogram resolution scaled to the layer size: at least 2 bins, at most 512."""
    return max(2, min(512, int(math.ceil(math.sqrt(m * n)))))


def histogram(matrix, bins: int) -> Histogram:
    """Equal-width histogram over [min, max] counting every element once.

    Constant data gets its degenerate range padded by 4 * bins machine-epsilon
    steps, so the edges stay strictly increasing at any bin count. Float64 bounds give
    float64 edges, against which numpy bins the float32 data as it binned a float64 copy.
    A bin depends only on the edges: each call bins CHUNK // 4 elements, in 0.7 MB.
    """
    if bins < 2:
        raise DomainError(f"need at least 2 bins, got {bins}")
    flat, step = matrix.data.reshape(-1), CHUNK // 4
    lo, hi = np.float64(flat.min()), np.float64(flat.max())
    if lo == hi:
        pad = 4 * bins * np.spacing(max(abs(lo), 1.0))
        lo, hi = lo - pad, hi + pad
    counts, edges = np.histogram(flat[:step], bins=bins, range=(lo, hi))
    for i in range(step, flat.size, step):
        counts += np.histogram(flat[i:i + step], bins=bins, range=(lo, hi))[0]
    return Histogram(edges=edges, counts=counts, total=int(counts.sum()))


def kl_discrete(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence sum(p * ln(p/q)) in nats; zero-probability bins contribute 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.maximum(np.asarray(q, dtype=np.float64), 1e-300)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def kl_divergence(observed: Histogram, fit: GaussianFit) -> float:
    """KL divergence of the observed bin masses against the fitted Gaussian.

    Gaussian bin masses come from CDF differences over the histogram edges,
    which is exact for the fitted model even with wide bins. At sigma = 0 it is
    a point mass in the bin that holds mu (`GaussianFit.cdf`), so a constant layer scores 0.
    """
    if observed.total <= 0:
        raise DomainError("histogram has no samples")
    cdf_vals = np.array([fit.cdf(float(e)) for e in observed.edges])
    q = np.diff(cdf_vals)
    return kl_discrete(observed.probabilities(), q)


def outlier_fraction(matrix, fit: GaussianFit) -> float:
    """Fraction of entries beyond mu +/- 3 sigma, in float64 a chunk at a time; 0 at sigma = 0."""
    flat = matrix.data.reshape(-1)
    beyond = sum(np.count_nonzero(np.abs(np.subtract(flat[i:i + CHUNK], fit.mu, dtype=np.float64))
                                  > 3.0 * fit.sigma) for i in range(0, flat.size, CHUNK))
    return beyond / flat.size
