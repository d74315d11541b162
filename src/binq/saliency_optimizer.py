"""Per-layer search for the salient share that minimizes reconstruction error.

The objective J is the hybrid quantization residual normalized by the
layer's squared Frobenius norm. A bounded Brent search (parabolic steps
with golden-section fallback) minimizes J over [0, p_sal_max]; because the
quantile cutoffs move in discrete steps J need not be unimodal, so the
search result is additionally compared against both interval endpoints and
the overall best evaluation is returned. `LayerObjective` owns the share
range and is the one place J is computed: an evaluation fits only the groups
no earlier one fitted and builds no layer. The layer at a scored share is
built from the stored groups; a share never scored (a pinned share) builds
its layer unscored, picking its shells from all of |w|. Both fit their
groups on the layer's threads, with the same bits on any number.
"""

import collections
import math
import threading
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .config import QuantConfig
from .errors import DomainError, OptimizationError
from .partitioner import compute_cutoffs, magnitude_labels, magnitude_thresholds
from .salient_quantizer import quantize_salient, store_scales
from .tensor_store import QuantizedLayer
from .unsalient_binarizer import shell_residual, shell_scalar
from .weight_stats import GaussianFit

_GOLDEN = 0.3819660112501051
_SQRT_EPS = 1.4901161193847656e-08


@dataclass(frozen=True)
class ObjectiveEval:
    """One evaluation of the normalized reconstruction objective."""

    p_sal: float
    j: float


class _Group(NamedTuple):
    """A shell's unrounded mean |w| or the salient fit, its residual (or None) and size."""
    fit: object
    residual: float | None
    count: int


def _below32(values) -> np.ndarray:
    """float64 values rounded down to float32: float32 x > t exactly when x > _below32(t)."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # past +-F32_MAX both roundings reach +-inf
        near = values.astype(np.float32)
        return np.where(near > values, np.nextafter(near, np.float32(-np.inf)), near)


def _run(jobs, threads: int) -> list:
    """Each job's result, in order. Up to `threads` threads, this one included, each
    take the next job not yet taken, and all are joined before this returns. The
    exception of the first job in order that raised is re-raised here, as one
    thread running the jobs in order would raise it; jobs not yet taken are dropped.
    A thread that cannot start leaves its jobs to those that did."""
    todo, results, failed = collections.deque(enumerate(jobs)), [None] * len(jobs), {}

    def work():
        while True:
            try:
                i, job = todo.popleft()
            except IndexError:
                return
            try:
                results[i] = job()
            except BaseException as exc:  # every job before i is taken and ends
                failed[i] = exc
                todo.clear()

    helpers = []
    try:
        for _ in range(min(threads, len(jobs)) - 1):
            helper = threading.Thread(target=work)
            try:
                helper.start()
            except RuntimeError:  # "can't start new thread": fit on fewer
                break
            helpers.append(helper)
        work()
    finally:  # also when this thread is interrupted
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]
    return results


class LayerObjective:
    """The objective of one layer at any salient share p in [0, p_sal_max], and its layer.

    Group k, shell k or the salient tail k = n_uns, holds the |w| in
    (t_{k-1}(p), t_k(p)], with t_{-1} = -inf and t_{n_uns} = inf. Each cutoff
    t_k(p) falls as p grows; `_edges` clips it into its range over [0, cap]
    (moving it only where rounding breaks that order), so group k lies in its
    window, the |w| in (t_{k-1}(cap), t_k(0)], at every share. A window is
    gathered from |w| (float32, exact, taken once) in row-major order at its
    first use, the salient one with each member's row and float64 w; |w| is
    compared in float32 with each cutoff rounded down, which splits it
    exactly as the float64 cutoff does. A group is fixed by its key, the
    number of window members above each of its two cutoffs: `__call__`
    fits (shell mean and residual, salient fit and residual) and stores
    each distinct group once, and `layer` at a scored share takes all its
    groups from there, labelling |w| only for the index stream. At a share
    never scored (a pinned share) `layer` picks each shell's mean and size
    from the labels and gathers only the salient window: no shell residual,
    no ||W||^2. To score a pinned share, call the objective before `layer`.
    ||W||^2 is taken at the first score. An all-zero layer, whose residual is
    0 as well, scores J = 0 rather than 0/0.

    Both fit their groups as jobs on `threads` threads, the salient group
    first as the largest. A job reads |w| and its own window and writes only
    its own `windows[k]` and `results[k]`, and J sums the groups in a fixed
    order afterwards, so any thread count gives the same bits.
    """

    def __init__(self, matrix, fit: GaussianFit, config: QuantConfig, threads: int = 1):
        self.p_cap = config.resolve_p_sal_max(matrix.role)
        # The cap in the config, so that its layers' configs survive a .bvq round trip.
        self.matrix, self.fit, self.config = matrix, fit, replace(config, p_sal_max=self.p_cap)
        self.threads = threads
        self.mag = np.abs(matrix.data).ravel()
        # Each cutoff's range over [0, cap]: its values at the cap and at 0, in order.
        self.lo, self.hi = np.sort([self._cutoffs(self.p_cap), self._cutoffs(0.0)], axis=0)
        self.windows: list = [None] * (config.n_uns + 1)
        # Each group's results by key, and the groups of each scored share.
        self.results: list[dict] = [{} for _ in self.windows]
        self.scored: dict[float, list[_Group]] = {}

    @cached_property
    def denom(self) -> float:
        return self.matrix.squared_norm()

    def _cutoffs(self, p_sal: float) -> np.ndarray:
        """The float64 cutoffs -inf, t_0(p), ..., t_{n_uns-1}(p), inf."""
        t = magnitude_thresholds(self.fit, compute_cutoffs(p_sal, self.config.n_uns))
        return np.concatenate(([-np.inf], t, [np.inf]))

    def _edges(self, p_sal: float) -> np.ndarray:
        """The cutoffs at p, each clipped into its range over [0, cap]."""
        if not 0.0 <= p_sal <= self.p_cap:
            raise DomainError(f"p_sal={p_sal} outside [0, {self.p_cap}]")
        return np.clip(self._cutoffs(p_sal), self.lo, self.hi)

    def _gather(self, k: int) -> list:
        """Group k's window, the |w| in (lo[k], hi[k + 1]], with the salient rows and w."""
        lo, hi = _below32([self.lo[k], self.hi[k + 1]])
        # An infinite bound passes every |w| the other does; two layer-sized masks, not three.
        mask = self.mag <= hi if lo == -np.inf else self.mag > lo
        if -np.inf < lo and hi < np.inf:
            mask &= self.mag <= hi
        if k < self.config.n_uns:
            return [np.compress(mask, self.mag)]
        at = np.flatnonzero(mask)  # the salient few: one mask pass, then three gathers
        return [self.mag[at], at // self.matrix.n, self.matrix.data.take(at).astype(np.float64)]

    def _group(self, k: int, bounds) -> _Group:
        """Group k at the float32 cutoffs `bounds`, from its window: fitted once per key."""
        if self.windows[k] is None:
            self.windows[k] = self._gather(k)
        window = self.windows[k]
        # The masks above each cutoff; their counts are the key.
        above = [window[0] > t for t in bounds[k:k + 2]]
        key = tuple(np.count_nonzero(a) for a in above)
        results = self.results[k]
        if key not in results:
            keep = np.greater(*above, out=np.empty(window[0].shape, dtype=bool))
            del above  # the masks are not held while the group is fitted
            if k < self.config.n_uns:
                shell = np.compress(keep, window[0]).astype(np.float64)
                mean = shell_scalar(shell)
                results[key] = _Group(mean, shell_residual(shell, store_scales(mean)), shell.size)
            else:
                rows, w = (np.compress(keep, a) for a in window[1:])
                sal = quantize_salient(rows, w, self.matrix.m, self.config)
                approx = sal.scales.astype(np.float64)[rows] * sal.centers[sal.codes]
                results[key] = _Group(sal, float(np.sum(np.square(w - approx))), rows.size)
        return results[key]

    def __call__(self, p_sal: float) -> ObjectiveEval:
        """J(p): the salient residual plus the shells' sum, in that order, over ||W||^2."""
        denom, n_uns = self.denom, self.config.n_uns
        bounds = _below32(self._edges(p_sal))
        salient, *shells = _run([partial(self._group, k, bounds) for k in (n_uns, *range(n_uns))],
                                self.threads)
        self.scored[p_sal] = [*shells, salient]
        residual = salient.residual + sum(g.residual for g in shells)
        return ObjectiveEval(p_sal, residual / denom if denom else 0.0)

    def layer(self, p_sal: float) -> QuantizedLayer:
        """The quantized layer at p, whose residual is J(p). |w| is labelled in two
        halves, then the groups not yet fitted (salient first) and the sign stream
        (1 for +1, also for an exact zero) are made, each as one job on the layer's threads."""
        bounds = _below32(self._edges(p_sal))
        n_uns, m, mag = self.config.n_uns, self.matrix, self.mag
        labels, cut = np.zeros(mag.shape, dtype=np.uint8), mag.size // 2
        _run([partial(magnitude_labels, mag[half], bounds[1:-1], labels[half])
              for half in (slice(cut), slice(cut, None))], self.threads)

        scored = self.scored.get(p_sal)

        def shell(k: int) -> _Group:  # stored if scored; else its mean and size, from all |w|
            if scored is not None:
                return scored[k]
            members = np.compress(labels == k, mag).astype(np.float64)
            return _Group(shell_scalar(members), None, members.size)

        salient, *groups, sign_bits = _run(
            [partial(self._group, n_uns, bounds), *(partial(shell, k) for k in range(n_uns)),
             lambda: np.packbits((m.data >= 0.0).ravel()[labels < n_uns])], self.threads)
        groups.append(salient)
        return QuantizedLayer(name=m.name, role=m.role, m=m.m, n=m.n,
                              counts=np.array([g.count for g in groups], dtype=np.int64),
                              labels=labels.reshape(m.m, m.n), salient=groups[-1].fit,
                              scalars=store_scales([g.fit for g in groups[:-1]]),
                              sign_bits=sign_bits, p_sal_used=p_sal, config=self.config)


def evaluate_objective(matrix, fit: GaussianFit, p_sal: float, config: QuantConfig,
                       objective: LayerObjective) -> ObjectiveEval:
    """J(p_sal) of `objective`, which must be built from these arguments. The search
    evaluates through here, so a tracer wrapping this function sees each evaluation."""
    config = replace(config, p_sal_max=config.resolve_p_sal_max(matrix.role))  # as built
    if objective.matrix is not matrix or (objective.fit, objective.config) != (fit, config):
        raise DomainError("objective was built for another layer, fit or config")
    return objective(p_sal)


def _checked_eval(f, x: float) -> float:
    fx = f(x)
    if not math.isfinite(fx):
        raise OptimizationError(f"objective returned non-finite value {fx} at {x}")
    return fx


def brent_minimize(f, lo: float, hi: float, tol: float, max_iters: int):
    """Bounded scalar minimization: parabolic steps with golden-section fallback.

    Stops once the bracket width drops to tol (or the classic proximity
    criterion fires, or max_iters evaluations are spent). The function is
    never evaluated outside [lo, hi]. Returns (x, f(x)).
    """
    if not lo < hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = _checked_eval(f, x)
    d = e = 0.0
    for _ in range(max_iters):
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

    return x, fx


def optimize_saliency(objective: LayerObjective) -> ObjectiveEval:
    """The best evaluation of `objective` over its shares [0, p_sal_max].

    Every evaluation is memoized on the share rounded to 1e-6 and clamped to
    the cap; the cap itself is scored unrounded. The Brent result is
    compared against both endpoints, so the returned share is never worse
    than either bound; ties prefer the smaller (cheaper) share, so a
    zero-sigma fit, under which every share builds the same layer, gives 0.
    """
    p_cap, cache = objective.p_cap, {}

    def share(p: float) -> float:
        # The cap is scored unrounded: rounding can carry it below or above itself.
        return p_cap if p >= p_cap else min(round(max(p, 0.0), 6), p_cap)

    def evaluate(p: float) -> ObjectiveEval:
        key = share(p)
        if key not in cache:
            cache[key] = evaluate_objective(objective.matrix, objective.fit, key,
                                            objective.config, objective)
        return cache[key]

    x_int, _ = brent_minimize(lambda p: evaluate(p).j, 0.0, p_cap, tol=1e-4 * p_cap,
                              max_iters=50)
    return min((evaluate(0.0), evaluate(p_cap), evaluate(x_int)),
               key=lambda ev: (ev.j, ev.p_sal))


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
