"""Per-layer search for the salient share that minimizes reconstruction error.

The objective J is the hybrid quantization residual normalized by the
layer's squared Frobenius norm. A bounded Brent search (parabolic steps
with golden-section fallback) minimizes J over [0, p_sal_max]; because the
quantile cutoffs move in discrete steps J need not be unimodal, so the
search result is additionally compared against both interval endpoints and
the overall best is returned. `LayerObjective` both scores a share and builds
the quantized layer at it; an evaluation builds no layer.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter

import numpy as np

from .config import QuantConfig
from .errors import DomainError, OptimizationError
from .partitioner import compute_cutoffs, magnitude_labels, magnitude_thresholds
from .salient_quantizer import quantize_salient, store_scales
from .tensor_store import QuantizedLayer
from .unsalient_binarizer import shell_scalars
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


class LayerObjective:
    """The objective of one layer at any salient share p in [0, p_sal_max], and its layer.

    |w| is taken once (float32, exact) and the salient tail at the cap (row,
    value and |w| of each element above its cutoff) gathered once. At p the
    shells are picked from |w| and the salient members from the tail, both in
    row-major order; `__call__` scores exactly the layer that `layer` builds
    from them. ||W||^2 is taken at the first evaluation.
    """

    def __init__(self, matrix, fit: GaussianFit, config: QuantConfig):
        self.matrix, self.fit, self.config = matrix, fit, config
        self.p_cap = config.resolve_p_sal_max(matrix.role)
        self.mag = np.abs(matrix.data).ravel()
        cap_cut = magnitude_thresholds(fit, compute_cutoffs(self.p_cap, config.n_uns))[-1]
        self.tail = self._gather_tail(cap_cut)

    @cached_property
    def denom(self) -> float:
        denom = self.matrix.squared_norm()
        if denom == 0.0:
            raise DomainError("objective undefined for an all-zero matrix")
        return denom

    def _gather_tail(self, cut: float):
        mask = self.mag > cut
        values = np.compress(mask, self.matrix.data).astype(np.float64)
        return cut, np.flatnonzero(mask) // self.matrix.n, values, np.compress(mask, self.mag)

    def _at(self, p_sal: float):
        """Flat labels at p, and the salient members (rows, w) with their fit."""
        if not 0.0 <= p_sal <= self.p_cap:
            raise DomainError(f"p_sal={p_sal} outside [0, {self.p_cap}]")
        t = magnitude_thresholds(self.fit, compute_cutoffs(p_sal, self.config.n_uns))
        if t[-1] < self.tail[0]:  # the cutoffs fall with p only up to rounding
            self.tail = self._gather_tail(t[-1])
        _, rows, w, tail_mag = self.tail
        keep = tail_mag > t[-1]
        rows, w = np.compress(keep, rows), np.compress(keep, w)
        salient = quantize_salient(rows, w, self.matrix.m, self.config)
        return magnitude_labels(self.mag, t), rows, w, salient

    def __call__(self, p_sal: float) -> ObjectiveEval:
        denom = self.denom
        labels, rows, w, sal = self._at(p_sal)
        width = self.config.scale_width
        uns_res = tuple(float(np.sum(np.square(s - float(store_scales(a, width)))))
                        for s, a in shell_scalars(self.mag, labels, self.config.n_uns))
        approx = sal.scales.astype(np.float64)[rows] * sal.centers[sal.codes]
        sal_res = float(np.sum(np.square(w - approx)))
        return ObjectiveEval(p_sal=p_sal, j=(sal_res + sum(uns_res)) / denom,
                             salient_residual=sal_res, unsalient_residuals=uns_res,
                             denom=denom)

    def layer(self, p_sal: float) -> QuantizedLayer:
        """The quantized layer at p, whose residual is J(p).

        A sign is True for +1, also for an exact zero. map drops each shell
        once its scalar is taken, so that one shell is held at a time.
        """
        labels, _, _, salient = self._at(p_sal)
        n_uns, m = self.config.n_uns, self.matrix
        scalars = list(map(itemgetter(1), shell_scalars(self.mag, labels, n_uns)))
        signs = (m.data >= 0.0).ravel()[labels < n_uns]
        return QuantizedLayer(name=m.name, role=m.role, m=m.m, n=m.n,
                              labels=labels.reshape(m.m, m.n), salient=salient,
                              scalars=store_scales(scalars, self.config.scale_width),
                              signs=signs, p_sal_used=p_sal, p_sal_max=self.p_cap,
                              config=self.config)


def evaluate_objective(matrix, fit: GaussianFit, p_sal: float, config: QuantConfig,
                       objective: LayerObjective | None = None) -> ObjectiveEval:
    """Normalized residual of the layer `LayerObjective.layer` builds at p_sal.

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


def optimize_saliency(matrix, fit: GaussianFit, config: QuantConfig,
                      objective: LayerObjective | None = None, full_output: bool = False):
    """Best salient share in [0, p_sal_max] under the normalized objective.

    Every evaluation calls `objective` (by default one built from the
    arguments) and is memoized on the share rounded to 1e-6 and clamped to
    the cap. The Brent result is compared against both endpoints, so the
    returned share is never worse than either bound; ties prefer the
    smaller (cheaper) share, so a zero-sigma fit, under which every share
    builds the same layer, gives 0. Returns the share; with full_output,
    (share, its J).
    """
    p_cap = config.resolve_p_sal_max(matrix.role)
    if not 0.0 < p_cap < 1.0:
        raise DomainError(f"p_sal_max must lie in (0, 1), got {p_cap}")
    if objective is None:
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
    # A cap with more than six decimals was evaluated at its rounding only.
    if full_output and best_p not in cache:
        cache[best_p] = evaluate_objective(matrix, fit, best_p, config, objective).j
    return (best_p, cache[best_p]) if full_output else best_p


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
