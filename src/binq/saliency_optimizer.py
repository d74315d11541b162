"""Per-layer search for the salient share that minimizes reconstruction error.

The objective J is the hybrid quantization residual normalized by the
layer's squared Frobenius norm. A bounded Brent search (parabolic steps
with golden-section fallback) minimizes J over [0, p_sal_max]; because the
quantile cutoffs move in discrete steps J need not be unimodal, so the
search result is additionally compared against both interval endpoints and
the overall best is returned. An evaluation builds no layer (`LayerObjective`).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import QuantConfig
from .errors import DomainError, OptimizationError
from .partitioner import compute_cutoffs, magnitude_labels, magnitude_thresholds, partition
from .salient_quantizer import quantize_salient, store_scales
from .tensor_store import QuantizedLayer
from .unsalient_binarizer import binarize_unsalient, shell_scalars
from .weight_stats import GaussianFit

_GOLDEN = 0.3819660112501051
_SQRT_EPS = 1.4901161193847656e-08


@dataclass(frozen=True)
class ObjectiveEval:
    """One evaluation of the normalized reconstruction objective."""

    p_sal: float
    j: float
    salient_residual: float
    unsalient_residuals: tuple[float, ...]
    denom: float


def hybrid_quantize(matrix, fit: GaussianFit, p_sal: float,
                    config: QuantConfig) -> QuantizedLayer:
    """Partition at a fixed salient share and quantize both branches.

    Shell scalars are rounded to the configured storage width, matching
    what an artifact would hold, so residuals are storage-faithful.
    """
    part = partition(matrix, fit, p_sal, config.n_uns)
    scalars, signs = binarize_unsalient(matrix, part)
    mask = part.salient_mask()
    salient = quantize_salient(np.nonzero(mask)[0], matrix.data[mask].astype(np.float64),
                               matrix.m, config)
    return QuantizedLayer(name=matrix.name, role=matrix.role, m=matrix.m,
                          n=matrix.n, labels=part.labels, salient=salient,
                          scalars=store_scales(scalars, config.scale_width),
                          signs=signs, p_sal_used=part.spec.p_sal,
                          p_sal_max=config.resolve_p_sal_max(matrix.role),
                          config=config)


def score_layer(matrix, layer: QuantizedLayer, denom: float) -> ObjectiveEval:
    """Objective of a quantized layer: its residual over denom = ||W||^2.

    The residual of each group is summed over its members in row-major order.
    """
    sq = np.square(matrix.data.astype(np.float64) - layer.dense()).ravel()
    labels = layer.labels.ravel()
    res = [float(np.sum(np.compress(labels == k, sq)))
           for k in range(layer.config.n_uns + 1)]
    sal_res, uns_res = res[-1], tuple(res[:-1])
    return ObjectiveEval(p_sal=layer.p_sal_used, j=(sal_res + sum(uns_res)) / denom,
                         salient_residual=sal_res, unsalient_residuals=uns_res,
                         denom=denom)


class LayerObjective:
    """The objective of one layer at any salient share p in [0, p_sal_max].

    |w| is taken once and the salient tail at the cap (row, value and |w| of
    each element above its cutoff) gathered once. At p the shells are picked
    from |w| and the salient members from the tail, both in row-major order,
    so each residual is summed exactly as `score_layer` sums it on the layer
    `hybrid_quantize` would build.
    """

    def __init__(self, matrix, fit: GaussianFit, config: QuantConfig):
        self.denom = matrix.squared_norm()
        if self.denom == 0.0:
            raise DomainError("objective undefined for an all-zero matrix")
        self.matrix, self.fit, self.config = matrix, fit, config
        self.p_cap = config.resolve_p_sal_max(matrix.role)
        self.mag = np.abs(matrix.data, dtype=np.float64).ravel()
        cap_cut = magnitude_thresholds(fit, compute_cutoffs(self.p_cap, config.n_uns))[-1]
        self.tail = self._gather_tail(cap_cut)

    def _gather_tail(self, cut: float):
        mask = self.mag > cut
        values = np.compress(mask, self.matrix.data).astype(np.float64)
        return cut, np.flatnonzero(mask) // self.matrix.n, values, np.compress(mask, self.mag)

    def __call__(self, p_sal: float) -> ObjectiveEval:
        if not 0.0 <= p_sal <= self.p_cap:
            raise DomainError(f"p_sal={p_sal} outside [0, {self.p_cap}]")
        t = magnitude_thresholds(self.fit, compute_cutoffs(p_sal, self.config.n_uns))
        if t[-1] < self.tail[0]:  # the cutoffs fall with p only up to rounding
            self.tail = self._gather_tail(t[-1])
        labels, width = magnitude_labels(self.mag, t), self.config.scale_width
        uns_res = tuple(float(np.sum(np.square(s - float(store_scales(a, width)))))
                        for s, a in shell_scalars(self.mag, labels, self.config.n_uns))
        _, rows, w, tail_mag = self.tail
        keep = tail_mag > t[-1]
        rows, w = np.compress(keep, rows), np.compress(keep, w)
        sal = quantize_salient(rows, w, self.matrix.m, self.config)
        approx = sal.scales.astype(np.float64)[rows] * sal.centers[sal.codes]
        sal_res = float(np.sum(np.square(w - approx)))
        return ObjectiveEval(p_sal=p_sal, j=(sal_res + sum(uns_res)) / self.denom,
                             salient_residual=sal_res, unsalient_residuals=uns_res,
                             denom=self.denom)


def evaluate_objective(matrix, fit: GaussianFit, p_sal: float, config: QuantConfig,
                       objective: LayerObjective | None = None) -> ObjectiveEval:
    """Normalized residual of the layer `hybrid_quantize` would build at p_sal.

    A caller evaluating many shares passes the `LayerObjective` built from these arguments.
    """
    if objective is None:
        objective = LayerObjective(matrix, fit, config)
    elif objective.matrix is not matrix or (objective.fit, objective.config) != (fit, config):
        raise DomainError("objective was built for another layer, fit or config")
    return objective(p_sal)


def _checked_eval(f, x: float) -> float:
    fx = f(x)
    if not math.isfinite(fx):
        raise OptimizationError(f"objective returned non-finite value {fx} at {x}")
    return fx


def brent_minimize(f, lo: float, hi: float, tol: float, max_iters: int,
                   full_output: bool = False):
    """Bounded scalar minimization: parabolic steps with golden-section fallback.

    Stops once the bracket width drops to tol (or the classic proximity
    criterion fires, or max_iters evaluations are spent). The function is
    never evaluated outside [lo, hi]. Returns (x, f(x)); with full_output,
    (x, f(x), iterations).
    """
    if not lo < hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = _checked_eval(f, x)
    d = e = 0.0
    iters = 0
    while iters < max_iters:
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 4.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            break

        use_golden = True
        if abs(e) > tol1:
            # Parabola through (x, fx), (w, fw), (v, fv).
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and p > q * (a - x) and p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if x < mid else -tol1
                use_golden = False
        if use_golden:
            e = (a if x >= mid else b) - x
            d = _GOLDEN * e

        step = d if abs(d) >= tol1 else math.copysign(tol1, d)
        u = min(max(x + step, a), b)
        fu = _checked_eval(f, u)
        iters += 1

        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu

    if full_output:
        return x, fx, iters
    return x, fx


def optimize_saliency(matrix, fit: GaussianFit, config: QuantConfig) -> float:
    """Best salient share in [0, p_sal_max] under the normalized objective.

    The layer's `LayerObjective` is built once; every evaluation calls it and
    is memoized on the share rounded to 1e-6 and clamped to the cap. The
    Brent result is compared against both endpoints, so the returned share
    is never worse than either bound; ties prefer the smaller (cheaper)
    share.
    """
    p_cap = config.resolve_p_sal_max(matrix.role)
    if not 0.0 < p_cap < 1.0:
        raise DomainError(f"p_sal_max must lie in (0, 1), got {p_cap}")
    if fit.sigma == 0.0:
        return 0.0

    objective = LayerObjective(matrix, fit, config)
    cache: dict[float, float] = {}

    def share(p: float) -> float:
        # Rounding can carry a cap with more than six decimals above itself.
        return min(round(min(max(p, 0.0), p_cap), 6), p_cap)

    def j_of(p: float) -> float:
        key = share(p)
        if key not in cache:
            cache[key] = evaluate_objective(matrix, fit, key, config, objective).j
        return cache[key]

    x_int, f_int = brent_minimize(j_of, 0.0, p_cap, tol=1e-4 * p_cap, max_iters=50)
    candidates = [(j_of(0.0), 0.0), (j_of(p_cap), p_cap), (f_int, share(x_int))]
    best_j = min(j for j, _ in candidates)
    best_p = min(p for j, p in candidates if j <= best_j)
    return best_p


def sweep_thresholds(matrix, fit: GaussianFit, thresholds, config: QuantConfig):
    """Objective evaluated directly at each saliency threshold (no search)."""
    thresholds = [float(t) for t in thresholds]
    for t in thresholds:
        if not 0.0 < t < 1.0:
            raise DomainError(f"threshold {t} outside (0, 1)")
    if not thresholds:
        return []
    objective = LayerObjective(matrix, fit, replace(config, p_sal_max=max(thresholds)))
    return [objective(t) for t in thresholds]
