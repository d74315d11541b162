"""2-bit quantization of the salient subset.

Row-wise scales and a relaxed code matrix are fitted by alternating exact
coordinate updates, then the relaxed values are snapped to centers of an
exponentially adapted level grid. Both half-steps minimize the residual
exactly, so the relaxed residual never increases across iterations.
"""

from dataclasses import dataclass

import numpy as np

from .config import QuantConfig
from .errors import DomainError

# The row-wise fit stops once no row scale moves by more than this.
FIT_ATOL = 1e-8


@dataclass
class SalientQuant:
    """Quantized salient subset: per-row scales plus codes into a level table.

    codes follow row-major traversal of the salient positions; the
    reconstruction at member (i, j) is scales[i] * centers[codes].
    """

    scales: np.ndarray    # (m,) float16, as a .bvq stores them
    codes: np.ndarray     # (S,) uint8
    centers: np.ndarray   # (2**n_bits,) float64
    mu_b: float
    sigma_b: float


def fit_rowwise(rows: np.ndarray, w: np.ndarray, m: int, iters: int, atol: float = 0.0):
    """Alternate row-scale and clipped-relaxation updates on the salient members.

    rows[i] and w[i] are the row and float64 value of the i-th member, in
    row-major order of the (m, n) layer. Returns (scales, relaxed) where
    relaxed holds one value in [-1, 1] per member. Rows whose relaxed row
    has zero energy keep scale 0 and their members stay at relaxed value 0.
    atol > 0 stops early once no row scale moves by more than atol (the
    updates are then at a fixed point for all practical purposes).
    """
    if iters < 1:
        raise DomainError(f"iters must be >= 1, got {iters}")
    relaxed = np.sign(w)
    scales = np.zeros(m, dtype=np.float64)
    product = np.empty_like(relaxed)

    for _ in range(iters):
        prev = scales
        num = np.bincount(rows, weights=np.multiply(w, relaxed, out=product), minlength=m)
        den = np.bincount(rows, weights=np.multiply(relaxed, relaxed, out=product), minlength=m)
        scales = np.divide(num, den, out=np.zeros(m), where=den > 0.0)
        row_scale = scales.take(rows)
        # Members of a zero-scale row keep their value, already in [-1, 1].
        np.divide(w, row_scale, out=relaxed, where=row_scale != 0.0)
        np.maximum(np.minimum(relaxed, 1.0, out=relaxed), -1.0, out=relaxed)
        if atol > 0.0 and (scales.size == 0
                           or np.abs(np.subtract(scales, prev, out=prev)).max() < atol):
            break

    return scales, relaxed


def level_grid(mu: float, sigma: float, n_bits: int, alpha: float):
    """Exponentially spaced quantization levels and their midpoints.

    2**n_bits + 1 linearly spaced anchors d in [-1, 1] map to
    mu + sigma * sign(d) * (alpha * exp(|d|) - 1); centers are midpoints of
    consecutive levels. sigma = 0 collapses every level onto mu.
    """
    if n_bits < 1:
        raise DomainError(f"n_bits must be >= 1, got {n_bits}")
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    d = np.linspace(-1.0, 1.0, 2 ** n_bits + 1)
    levels = mu + sigma * np.sign(d) * (alpha * np.exp(np.abs(d)) - 1.0)
    centers = 0.5 * (levels[:-1] + levels[1:])
    return levels, centers


def adaptive_levels(relaxed: np.ndarray, n_bits: int, alpha: float):
    """Level grid anchored at the mean/std of the nonzero relaxed values.

    Returns (levels, centers, mu_b, sigma_b).
    """
    nonzero = relaxed[relaxed != 0.0]
    if nonzero.size == 0:
        raise DomainError("adaptive levels need at least one nonzero relaxed value")
    mu_b = float(np.mean(nonzero))
    sigma_b = float(np.std(nonzero))
    return (*level_grid(mu_b, sigma_b, n_bits, alpha), mu_b, sigma_b)


def assign_codes(relaxed: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center code per member; ties break to the lower index."""
    dist = np.abs(relaxed[:, None] - np.asarray(centers, dtype=np.float64)[None, :])
    return np.argmin(dist, axis=1).astype(np.uint8)


def store_scales(values: np.ndarray) -> np.ndarray:
    """Round scale factors to their stored binary16.

    Raises DomainError for a scale that rounds to inf, past 65504.
    """
    with np.errstate(over="ignore"):
        stored = np.asarray(values, dtype=np.float16)
    if np.isinf(stored).any():
        raise DomainError(f"scale {np.max(np.abs(values)):.6g} overflows binary16, "
                          "whose largest finite value is 65504")
    return stored


def quantize_salient(rows: np.ndarray, w: np.ndarray, m: int,
                     config: QuantConfig) -> SalientQuant:
    """Salient path on members gathered as `fit_rowwise` takes them: fit, levels, codes.

    After codes are assigned, each row scale is refitted once with the same
    exact update the relaxation loop uses, now against the discrete center
    values; without this closing step the center mapping rescales every row
    by a factor the relaxed-stage scales were never fitted for. Row scales
    are rounded to their stored binary16 so the result is exactly
    what an artifact would hold. An empty salient set yields zero scales,
    no codes, and a degenerate all-zero center table.
    """
    _, relaxed = fit_rowwise(rows, w, m, iters=config.iters, atol=FIT_ATOL)
    if relaxed.size and np.any(relaxed != 0.0):
        _, centers, mu_b, sigma_b = adaptive_levels(relaxed, config.n_bits, config.alpha)
    else:
        centers = np.zeros(2 ** config.n_bits, dtype=np.float64)
        mu_b = sigma_b = 0.0
    codes = assign_codes(relaxed, centers)

    quantized = centers[codes]
    num = np.bincount(rows, weights=w * quantized, minlength=m)
    den = np.bincount(rows, weights=quantized * quantized, minlength=m)
    scales = np.divide(num, den, out=np.zeros(m), where=den > 0.0)
    return SalientQuant(scales=store_scales(scales),
                        codes=codes, centers=centers,
                        mu_b=mu_b, sigma_b=sigma_b)
