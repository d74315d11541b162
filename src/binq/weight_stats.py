"""Per-layer weight statistics: Gaussian fit, histograms, KL divergence, probit.

The probit here is a rational approximation polished with one Newton step
against an erfc-based normal CDF, which keeps |cdf(probit(p)) - p| below
1e-9 across (0, 1) without pulling in scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Coefficients of the Acklam rational approximation to the inverse normal CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianFit:
    """Sample mean and population standard deviation of a weight matrix."""

    mu: float
    sigma: float

    def cdf(self, x: float) -> float:
        """Normal CDF of the fitted distribution at x (step function if sigma=0)."""
        if self.sigma == 0.0:
            return 0.0 if x < self.mu else 1.0
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


def normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def probit(p: float) -> float:
    """Inverse standard normal CDF.

    Valid for 0 < p < 1; the result z satisfies |cdf(z) - p| < 1e-9.
    """
    if not (0.0 < p < 1.0) or math.isnan(p):
        raise DomainError(f"probit requires 0 < p < 1, got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        z = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        z = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    else:
        q = p - 0.5
        r = q * q
        z = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    # One Newton step takes the ~1e-9 approximation error down to float rounding.
    err = normal_cdf(z) - p
    z -= err / normal_pdf(z)
    return z


def fit_gaussian(matrix) -> GaussianFit:
    """Fit mu (sample mean) and sigma (population standard deviation)."""
    data = matrix.data
    if data.size < 2:
        raise DomainError("gaussian fit needs at least 2 samples")
    mu = float(np.mean(data, dtype=np.float64))
    dev = np.subtract(data, mu, dtype=np.float64)  # one float64 copy, squared in place
    var = float(np.mean(np.square(dev, out=dev)))
    return GaussianFit(mu=mu, sigma=math.sqrt(max(var, 0.0)))


def default_bin_count(m: int, n: int) -> int:
    """Histogram resolution scaled to the layer size, capped at 512 bins."""
    return min(512, int(math.ceil(math.sqrt(m * n))))


def histogram(matrix, bins: int) -> Histogram:
    """Equal-width histogram over [min, max] counting every element once.

    Constant data gets its degenerate range padded by a machine-epsilon step
    so the edges stay strictly increasing.
    """
    if bins < 2:
        raise DomainError(f"need at least 2 bins, got {bins}")
    data = np.asarray(matrix.data, dtype=np.float64).ravel()
    if data.size == 0:
        raise DomainError("cannot histogram an empty matrix")
    lo = float(data.min())
    hi = float(data.max())
    if lo == hi:
        pad = np.spacing(max(abs(lo), 1.0))
        lo, hi = lo - pad, hi + pad
    counts, edges = np.histogram(data, bins=bins, range=(lo, hi))
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
    which is exact for the fitted model even with wide bins.
    """
    if observed.total <= 0:
        raise DomainError("histogram has no samples")
    cdf_vals = np.array([fit.cdf(float(e)) for e in observed.edges])
    q = np.diff(cdf_vals)
    return kl_discrete(observed.probabilities(), q)


def outlier_fraction(matrix, fit: GaussianFit) -> float:
    """Fraction of entries beyond mu +/- 3 sigma."""
    if fit.sigma == 0.0:
        return 0.0
    dev = np.abs(matrix.data.astype(np.float64) - fit.mu)
    return float(np.mean(dev > 3.0 * fit.sigma))
