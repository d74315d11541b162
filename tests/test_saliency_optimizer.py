import math
import sys
import threading
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import binq.saliency_optimizer as so
from binq import (DomainError, OptimizationError, QuantConfig, Role, WeightMatrix,
                  quantize_layer)
from binq.partitioner import compute_cutoffs, magnitude_thresholds
from binq.bit_packer import CHUNK
from binq.salient_quantizer import SalientQuant
from binq.saliency_optimizer import (LayerObjective, brent_minimize, evaluate_objective,
                                     optimize_saliency, sweep_thresholds)
from binq.tensor_store import _layer_record
from binq.weight_stats import GaussianFit, fit_gaussian
from conftest import (capped_layer, gaussian_matrix, outlier_matrix, score_layer,
                      straddling_outlier_matrix)


def golden_iteration_bound(lo, hi, tol):
    return math.ceil(math.log((hi - lo) / tol) / math.log(1 / 0.6180339887498949)) + 2


def counted(f):
    """f, and the list of the points it is called at."""
    calls = []
    return (lambda x: calls.append(x) or f(x)), calls


def best_share(mat, config):
    """The share the search picks on a layer's own fit."""
    return optimize_saliency(LayerObjective(mat, fit_gaussian(mat), config)).p_sal


class TestBrentMinimize:
    def test_quadratic_interior(self):
        f, calls = counted(lambda x: (x - 0.3) ** 2)
        x, fx = brent_minimize(f, 0.0, 1.0, tol=1e-8, max_iters=100)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-10)
        # parabolic steps converge far faster than the golden-section bound
        assert len(calls) - 1 <= golden_iteration_bound(0.0, 1.0, 1e-8)

    def test_monotone_boundary_minimum(self):
        f, calls = counted(lambda x: x)
        x, fx = brent_minimize(f, 0.0, 1.0, tol=1e-8, max_iters=100)
        assert x == pytest.approx(0.0, abs=1e-6)
        assert len(calls) - 1 <= golden_iteration_bound(0.0, 1.0, 1e-8)

    def test_wiggly_function_vs_grid(self):
        f = lambda x: abs(x - 0.25) + 0.1 * math.sin(40 * x)
        x, fx = brent_minimize(f, 0.0, 1.0, tol=1e-8, max_iters=200)
        grid = np.linspace(0.0, 1.0, 10_000)
        grid_best = min(f(g) for g in grid)
        assert fx <= grid_best + 1e-3

    def test_never_evaluates_outside_bracket(self):
        seen = []

        def f(x):
            seen.append(x)
            return (x - 0.7) ** 2

        brent_minimize(f, 0.2, 0.9, tol=1e-10, max_iters=200)
        assert all(0.2 <= x <= 0.9 for x in seen)

    def test_nonfinite_rejected(self):
        with pytest.raises(OptimizationError):
            brent_minimize(lambda x: float("nan"), 0.0, 1.0, tol=1e-6, max_iters=50)

    def test_invalid_bracket(self):
        with pytest.raises(DomainError):
            brent_minimize(lambda x: x, 1.0, 0.0, tol=1e-6, max_iters=50)

    def test_respects_max_iters(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.cos(20 * x)

        brent_minimize(f, 0.0, 1.0, tol=1e-15, max_iters=7)
        assert len(calls) <= 8  # initial evaluation plus max_iters steps


class TestEvaluateObjective:
    def test_constant_matrix_zero_error(self):
        mat = WeightMatrix("t", Role.LANGUAGE, np.full((16, 16), 3.0, np.float32))
        objective = LayerObjective(mat, fit_gaussian(mat), QuantConfig())
        for p in (0.0, 0.005, 0.01):
            ev = objective(p)
            assert ev.j == pytest.approx(0.0, abs=1e-12)

    def test_zero_share_equals_pure_binarization(self):
        mat = gaussian_matrix(2, shape=(32, 32))
        objective = LayerObjective(mat, fit_gaussian(mat), QuantConfig(n_uns=1, p_sal_max=0.05))
        ev = objective(0.0)
        # independent evaluation: sign * mean|w| with the stored-scale rounding
        w = mat.data.astype(np.float64)
        a = float(np.float16(np.abs(w).mean()))
        expected = float(np.sum((w - a * np.where(w >= 0, 1, -1)) ** 2) / np.sum(w * w))
        assert ev.j == pytest.approx(expected, rel=1e-12)
        assert objective.scored[0.0][-1].residual == 0.0

    def test_outliers_reward_isolation(self):
        # 1% of entries at +/-6 sigma: isolating them must beat leaving them
        # in the outermost binarized subset.
        mat = outlier_matrix(0, shape=(128, 128), sigma=0.02, frac=0.01,
                             magnitude=6.0)
        objective = LayerObjective(mat, fit_gaussian(mat), QuantConfig(p_sal_max=0.05))
        j0, j1 = objective(0.0).j, objective(0.01).j
        assert j1 < j0

    def test_all_zero_matrix_scores_zero(self):
        # ||W||^2 = 0 and so is the residual: J is 0 at every share, not 0/0.
        mat = WeightMatrix("t", Role.LANGUAGE, np.zeros((4, 4), np.float32))
        objective = LayerObjective(mat, fit_gaussian(mat), QuantConfig())
        assert [objective(p).j for p in (0.0, 0.005, objective.p_cap)] == [0.0, 0.0, 0.0]

    def test_share_outside_cap_rejected(self):
        mat = gaussian_matrix(3)
        with pytest.raises(DomainError):
            LayerObjective(mat, fit_gaussian(mat), QuantConfig(p_sal_max=0.05))(0.5)

    def test_objective_of_another_layer_rejected(self):
        mat, other = gaussian_matrix(3), gaussian_matrix(4)
        fit, config = fit_gaussian(mat), QuantConfig(p_sal_max=0.05)
        objective = LayerObjective(mat, fit, config)
        assert evaluate_objective(mat, fit, 0.02, config, objective) == objective(0.02)
        # A config without a cap is the one built with the role's cap.
        uncapped = LayerObjective(mat, fit, QuantConfig())
        assert evaluate_objective(mat, fit, 0.005, QuantConfig(), uncapped) == uncapped(0.005)
        for args in ((other, fit, config), (mat, fit_gaussian(other), config),
                     (mat, fit, QuantConfig(p_sal_max=0.04))):
            with pytest.raises(DomainError):
                evaluate_objective(*args[:2], 0.02, args[2], objective)

    def test_composition_matches_components(self):
        mat = outlier_matrix(5, shape=(48, 48), frac=0.02, magnitude=5.0)
        objective = LayerObjective(mat, fit_gaussian(mat), QuantConfig(p_sal_max=0.05))
        ev = objective(0.02)
        # J is the salient residual plus the shells' sum, in that order, over ||W||^2.
        groups = objective.scored[0.02]
        total = groups[-1].residual + sum(g.residual for g in groups[:-1])
        assert len(groups) == 6 and ev.j == total / mat.squared_norm()


class TestOptimizeSaliency:
    def test_bounds_respected(self):
        mat = gaussian_matrix(4, shape=(48, 48))
        p = best_share(mat, QuantConfig(p_sal_max=0.03))
        assert 0.0 <= p <= 0.03

    def test_boundary_guarantee(self):
        for seed in range(3):
            mat = outlier_matrix(seed, shape=(64, 64), frac=0.02, magnitude=8.0,
                                 spread=2.0)
            objective = LayerObjective(mat, fit_gaussian(mat), QuantConfig(p_sal_max=0.05))
            best = optimize_saliency(objective)
            assert best == objective(best.p_sal)
            assert best.j <= min(objective(0.0).j, objective(0.05).j) + 1e-12

    def test_heavy_outliers_prefer_positive_share(self):
        mat = outlier_matrix(0, shape=(128, 128), frac=0.02, magnitude=10.0)
        p = best_share(mat, QuantConfig(p_sal_max=0.05))
        assert p > 0.0

    def test_language_cap_from_role(self):
        mat = outlier_matrix(1, shape=(64, 64), frac=0.02, magnitude=6.0,
                             role=Role.LANGUAGE)
        p = best_share(mat, QuantConfig())
        assert p <= 0.01

    def test_deterministic(self):
        mat = outlier_matrix(2, shape=(64, 64), frac=0.02, magnitude=6.0)
        config = QuantConfig(p_sal_max=0.04)
        assert best_share(mat, config) == best_share(mat, config)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_cap_with_more_than_six_decimals(self, seed):
        # round(0.0123456789, 6) = 0.012346 lies above the cap itself.
        config = QuantConfig(p_sal_max=0.0123456789)
        mat = gaussian_matrix(seed, shape=(48, 48))
        p = best_share(mat, config)
        assert 0.0 <= p <= config.p_sal_max
        assert quantize_layer(mat, config).p_sal_used <= config.p_sal_max

    @pytest.mark.parametrize("seed, p_star", [(3, 0.009432), (4, 0.0123454)])
    def test_cap_with_more_than_six_decimals_scored_at_itself(self, seed, p_star):
        # round(0.0123454, 6) = 0.012345 lies below the cap, and J differs at
        # the two; with seed 3 J at the cap is the larger, so the cap loses.
        cap = 0.0123454
        mat = capped_layer(cap, seed)
        config = QuantConfig(p_sal_max=cap)
        objective = LayerObjective(mat, fit_gaussian(mat), config)
        assert objective(cap).j != objective(round(cap, 6)).j
        best = optimize_saliency(objective)
        assert best == objective(p_star)
        assert best.j <= objective(cap).j

    def test_degenerate_sigma_returns_zero(self):
        mat = WeightMatrix("t", Role.LANGUAGE, np.full((8, 8), 1.5, np.float32))
        assert best_share(mat, QuantConfig(p_sal_max=0.05)) == 0.0


class TestSweep:
    def test_threshold_shape_on_straddling_outliers(self):
        js = np.zeros(3)
        for seed in range(5):
            mat = straddling_outlier_matrix(seed)
            fit = fit_gaussian(mat)
            evs = sweep_thresholds(mat, fit, [0.01, 0.05, 0.10], QuantConfig())
            js += np.array([ev.j for ev in evs])
        js /= 5
        assert js[1] < js[0]
        assert abs(js[2] - js[1]) < js[0] - js[1]

    def test_any_iterable_of_thresholds(self):
        mat = gaussian_matrix(1)
        fit = fit_gaussian(mat)
        want = sweep_thresholds(mat, fit, [0.01, 0.05], QuantConfig())
        for thresholds in (np.array([0.01, 0.05]), (t for t in (0.01, 0.05))):
            assert sweep_thresholds(mat, fit, thresholds, QuantConfig()) == want
        assert sweep_thresholds(mat, fit, np.array([]), QuantConfig()) == []

    def test_invalid_threshold(self):
        mat = gaussian_matrix(0)
        with pytest.raises(DomainError):
            sweep_thresholds(mat, fit_gaussian(mat), [0.0], QuantConfig())


def tied_layer(k, p_sal=0.02, n_uns=5):
    """Layer and fit (mu = 0) whose k-th cutoff at p_sal equals some |w| exactly."""
    z = compute_cutoffs(p_sal, n_uns)[k]
    v = np.float32(0.02 * z)
    while (float(v) / z) * z != float(v):
        v = np.nextafter(v, np.float32(1.0))
    data = (0.02 * np.random.default_rng(40 + k).standard_normal((48, 64))).astype(np.float32)
    data.ravel()[::5] = v
    data.ravel()[1::10] = -v
    fit = GaussianFit(mu=0.0, sigma=float(v) / z)
    assert magnitude_thresholds(fit, compute_cutoffs(p_sal, n_uns))[k] == float(v)
    return WeightMatrix("tied", Role.VISION, data), fit


def objective_cases():
    rng = np.random.default_rng(77)
    heavy = 0.02 * rng.standard_t(5, (64, 96))
    zeros = heavy.copy()
    zeros[rng.random(zeros.shape) < 0.25] = 0.0
    layers = {
        "gaussian": (0.02 * rng.standard_normal((64, 96)), QuantConfig(p_sal_max=0.05)),
        "student_t": (heavy, QuantConfig(p_sal_max=0.05)),
        "biased": (0.02 * (0.5 + rng.standard_normal((96, 64))), QuantConfig(p_sal_max=0.05)),
        "zeros": (zeros, QuantConfig(p_sal_max=0.05)),
        "constant": (np.full((8, 16), -0.3), QuantConfig(p_sal_max=0.05)),
        "n_uns_1": (0.02 * rng.standard_normal((64, 96)), QuantConfig(n_uns=1, p_sal_max=0.05)),
    }
    random_shares = tuple(rng.uniform(0.0, 0.05, 4))
    for name, (data, cfg) in layers.items():
        mat = WeightMatrix(name, Role.VISION, data)
        yield pytest.param(mat, fit_gaussian(mat), cfg, (0.0, 0.017, 0.05, *random_shares),
                           id=name)
    for k in range(5):  # every cutoff, the salient one last
        mat, fit = tied_layer(k)
        yield pytest.param(mat, fit, QuantConfig(p_sal_max=0.05),
                           (0.0, 0.02, 0.05, *random_shares), id=f"tie_at_cutoff_{k}")


class TestLayerObjective:
    @pytest.mark.parametrize("mat, fit, config, shares", objective_cases())
    def test_matches_scored_layer(self, mat, fit, config, shares):
        objective = LayerObjective(mat, fit, config)
        for p in shares:
            got = objective(p)
            want = score_layer(mat, objective.layer(p))
            # Bitwise: the J the search compares is the residual of the layer it builds.
            assert got == want and got.p_sal == p
            # A share's layer built before it is scored, each shell picked from all of
            # |w|, has the bytes of the layer built after it from the stored groups.
            fresh = LayerObjective(mat, fit, config)
            before = _layer_record(fresh.layer(p))
            assert fresh(p) == got
            assert _layer_record(fresh.layer(p)) == before == _layer_record(objective.layer(p))

    def test_clamped_cutoffs_keep_each_group_in_its_window(self, monkeypatch):
        # Probit rounding can put a cutoff a float step below its value at the cap.
        # Here t_2 is put there 23 floats below the cap, so group 3 would reach out
        # of its window unclamped.
        p, cap = 0.07999999999999968, 0.08
        real_cutoffs = so.compute_cutoffs

        def inverted(p_sal, n_uns):
            cutoffs = real_cutoffs(p_sal, n_uns)
            if p_sal == p:
                cutoffs[2] = float(np.nextafter(real_cutoffs(cap, n_uns)[2], -np.inf))
            return cutoffs

        monkeypatch.setattr(so, "compute_cutoffs", inverted)
        data = 0.02 * np.random.default_rng(8).standard_normal((64, 96))
        mat = WeightMatrix("w", Role.VISION, data.astype(np.float32))
        config = QuantConfig(p_sal_max=cap)
        gathered = []
        real = LayerObjective._gather
        monkeypatch.setattr(LayerObjective, "_gather",
                            lambda self, k: gathered.append(k) or real(self, k))
        objective = LayerObjective(mat, GaussianFit(mu=0.0, sigma=0.02), config)
        raw, at_cap = objective._cutoffs(p), objective._cutoffs(cap)
        assert raw[3] < at_cap[3]
        edges = objective._edges(p)
        assert edges[3] == at_cap[3]
        assert np.array_equal(np.delete(edges, 3), np.delete(raw, 3))
        # Group k at p is window k's members at the clipped edges, in row-major order,
        # in the layer built before p is scored and in the one built from its groups.
        pinned = objective.layer(p).labels.ravel()
        objective(p)
        labels = objective.layer(p).labels.ravel()
        assert np.array_equal(labels, pinned)
        for k in range(config.n_uns + 1):
            assert objective.lo[k] <= edges[k] and edges[k + 1] <= objective.hi[k + 1]
            window = objective.windows[k][0]
            keep = (window > edges[k]) & (window <= edges[k + 1])  # float64 comparisons
            assert np.array_equal(window[keep], objective.mag[labels == k])
            assert objective.scored[p][k].count == np.count_nonzero(keep)
        got, want = objective(p), score_layer(mat, objective.layer(p))
        assert got == want
        for share in (cap, 0.0, p):
            objective(share)
        assert sorted(gathered) == list(range(config.n_uns + 1))  # each window once

    def test_windows_bound_every_share(self):
        mat = outlier_matrix(6, shape=(48, 48), frac=0.02, magnitude=6.0)
        objective = LayerObjective(mat, fit_gaussian(mat), QuantConfig(p_sal_max=0.05))
        cap, zero = objective._edges(0.05), objective._edges(0.0)
        assert np.array_equal(objective.lo, cap) and np.array_equal(objective.hi, zero)
        assert objective.windows == [None] * 6  # gathered at first use
        for p in np.linspace(0.0, 0.05, 11):
            edges = objective._edges(p)
            assert np.all(cap <= edges) and np.all(edges <= zero)
        objective(0.05)
        objective(0.0)
        # Cutoff k moves over a mass of about (k + 1) * cap / n_uns, which two windows share.
        total = sum(window[0].size for window in objective.windows)
        assert mat.data.size <= total < (1.0 + 0.05 * 3 + 0.02) * mat.data.size


def three_pass_salient_window(objective):
    """The salient window as one mask pass per array gathered it: the oracle of `_gather`."""
    k, mag = objective.config.n_uns, objective.mag
    lo, hi = so._below32([objective.lo[k], objective.hi[k + 1]])
    mask = mag <= hi if lo == -np.inf else mag > lo
    if -np.inf < lo and hi < np.inf:
        mask &= mag <= hi
    return [np.compress(mask, mag), np.flatnonzero(mask) // objective.matrix.n,
            np.compress(mask, objective.matrix.data).astype(np.float64)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("data, every", [
    (0.02 * np.random.default_rng(21).standard_t(5, (300, 256)), False),
    (0.02 * (0.5 + np.random.default_rng(22).standard_normal((256, 300))), False),
    (-1.0 + 0.01 * np.random.default_rng(23).standard_normal((200, 150)), True),
], ids=["student_t", "biased", "negative_mean"])
def test_salient_gather_matches_three_pass_oracle(data, every, threads):
    mat = WeightMatrix("w", Role.LANGUAGE, data.astype(np.float32))
    objective = LayerObjective(mat, fit_gaussian(mat), QuantConfig(), threads)
    objective(objective.p_cap)
    got, want = objective.windows[-1], three_pass_salient_window(objective)
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert (want[0].size == mat.data.size) == every  # a negative mean: every |w| salient


F32_MAX = float(np.finfo(np.float32).max)
TINY32 = float(np.finfo(np.float32).smallest_subnormal)


@st.composite
def values_and_edge(draw):
    """float32 values (subnormals and +-inf included) and a float64 edge: anywhere,
    tied with a value, between a value and its float32 neighbours, or past the range."""
    values = draw(st.lists(st.floats(width=32, allow_nan=False), min_size=1, max_size=16))
    x = np.float32(draw(st.sampled_from(values)))
    with np.errstate(over="ignore"):  # the neighbours of +-F32_MAX are +-inf
        below, above = (float(np.nextafter(x, np.float32(s))) for s in (-np.inf, np.inf))
    near = [float(x), (below + float(x)) / 2, (float(x) + above) / 2,
            float(np.nextafter(float(x), -np.inf)), float(np.nextafter(float(x), np.inf))]
    far = [np.inf, -np.inf, 2 * F32_MAX, -2 * F32_MAX, float(np.nextafter(F32_MAX, np.inf)),
           TINY32 / 2, -TINY32 / 2, 1.5 * TINY32, 0.0, -0.0]
    edge = draw(st.one_of(st.sampled_from([e for e in near if not np.isnan(e)]),
                          st.sampled_from(far), st.floats(allow_nan=False)))
    return np.array(values, dtype=np.float32), edge


@given(values_and_edge())
def test_rounded_down_edge_splits_float32_as_float64(case):
    values, edge = case
    edge = np.float64(edge)  # compared with float32 as float64, as a Python float would not be
    (down,) = so._below32([edge])
    assert down.dtype == np.float32 and down <= edge
    with np.errstate(over="ignore"):
        assert np.nextafter(down, np.float32(np.inf)) > edge or down == edge == np.inf
    assert np.array_equal(values > down, values.astype(np.float64) > edge)


def seeded_layer(seed, stream, role, shape, biased):
    """A layer drawn as the benchmark draws its model layers (scale 0.02)."""
    rng = np.random.default_rng([seed, stream])
    data = 0.5 + rng.standard_normal(shape) if biased else rng.standard_t(5, size=shape)
    return WeightMatrix(f"s{seed}.{stream}", role, (0.02 * data).astype(np.float32))


class TestStoredGroups:
    """A search fits each distinct group of its layer once and builds the layer from them."""

    def test_each_distinct_salient_set_fitted_once(self, monkeypatch):
        mat = seeded_layer(11, 2, Role.VISION, (512, 256), True)
        objective = LayerObjective(mat, fit_gaussian(mat), QuantConfig())
        fitted, shares = [], []
        real_fit, real_eval = so.quantize_salient, so.evaluate_objective
        monkeypatch.setattr(so, "quantize_salient",
                            lambda rows, *a: fitted.append(rows.size) or real_fit(rows, *a))
        monkeypatch.setattr(so, "evaluate_objective",
                            lambda *a: shares.append(a[2]) or real_eval(*a))
        best = optimize_saliency(objective)
        mag = objective.mag.astype(np.float64)
        counts = {np.count_nonzero(mag > objective._edges(p)[-2]) for p in shares}
        assert len(counts) < len(shares)  # some evaluations repeat a salient set
        assert sorted(fitted) == sorted(counts)

        # The layer at p* takes every group from the search: no fit, no shell picked
        # from all of |w|, and the same layer as one built without the search.
        fitted.clear()
        compressed, means = [], []
        real_compress, real_mean = np.compress, so.shell_scalar
        monkeypatch.setattr(np, "compress",
                            lambda c, a, *r: compressed.append(a) or real_compress(c, a, *r))
        monkeypatch.setattr(so, "shell_scalar", lambda x: means.append(x) or real_mean(x))
        layer = objective.layer(best.p_sal)
        assert fitted == [] and means == []
        assert not any(a is objective.mag for a in compressed)
        monkeypatch.undo()
        pinned = LayerObjective(mat, objective.fit, objective.config).layer(best.p_sal)
        for field in ("counts", "labels", "scalars", "sign_bits"):
            assert np.array_equal(getattr(layer, field), getattr(pinned, field))
        for field in ("scales", "codes", "centers"):
            got, want = getattr(layer.salient, field), getattr(pinned.salient, field)
            assert got.tobytes() == want.tobytes()

    def test_stored_groups_hold_no_float64_or_index_member_arrays(self):
        mat = seeded_layer(201, 6, Role.LANGUAGE, (256, 512), False)
        config = QuantConfig()
        objective = LayerObjective(mat, fit_gaussian(mat), config)
        optimize_saliency(objective)
        for k, results in enumerate(objective.results):
            assert results
            for group in results.values():
                assert isinstance(group.residual, float) and isinstance(group.count, int)
                if k < config.n_uns:
                    assert np.ndim(group.fit) == 0
                    continue
                assert isinstance(group.fit, SalientQuant)
                arrays = [v for v in vars(group.fit).values() if isinstance(v, np.ndarray)]
                wide = [a for a in arrays if a.dtype in (np.float64, np.intp)]
                assert [a.size for a in wide] == [2 ** config.n_bits]  # the centers
                assert group.fit.codes.dtype == np.uint8
                assert group.fit.codes.size == group.count


@pytest.mark.parametrize("seed, stream, role, shape, biased, p_star", [
    (11, 2, Role.VISION, (512, 256), True, 0.012043),
    (201, 2, Role.VISION, (512, 256), True, 0.012768),
    (201, 6, Role.LANGUAGE, (256, 512), False, 0.00367),
    (11, 9, Role.LANGUAGE, (512, 128), False, 0.01),
    (111, 0, Role.VISION, (384, 512), False, 0.015419),
    (121, 3, Role.VISION, (256, 512), False, 0.035781),
])
def test_golden_optimal_share(seed, stream, role, shape, biased, p_star):
    """Searched shares frozen from the full re-quantizing objective.

    The search path follows every rounding of J: shell residuals summed in
    sorted order (off by about 1e-16 relative) move the optimum of the two
    heavy-tailed vision layers, and a prefix-sum closed form (S2 - 2aS1 +
    na^2) moves more. The 1% cap binds the fourth layer.
    """
    mat = seeded_layer(seed, stream, role, shape, biased)
    assert best_share(mat, QuantConfig()) == p_star


def chunk_edge_layer():
    """A 512x256 layer, two 64K chunks whose edge is also the labels' halves' cut,
    with salient members on either side of each chunk edge."""
    mat = seeded_layer(11, 5, Role.LANGUAGE, (512, 256), False)
    flat = mat.data.reshape(-1)
    assert flat.size == 2 * CHUNK
    for i in (0, 1, CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1):
        flat[i] = 0.5 if i % 2 else -0.5  # 25 sigma: salient at every share
    return mat


def plain(group):
    """A stored group as comparable values: its fit's fields, residual and size."""
    fit = group.fit
    if isinstance(fit, SalientQuant):
        fit = tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(fit).values())
    return float(fit) if np.ndim(fit) == 0 else fit, group.residual, group.count


THREAD_CASES = [pytest.param(seeded_layer(201, 4, Role.LANGUAGE, (256, 192), False), n_uns,
                             id=f"n_uns_{n_uns}") for n_uns in (1, 2, 5)]
THREAD_CASES.append(pytest.param(chunk_edge_layer(), 5, id="chunk_edges"))


class TestThreads:
    """Fitting a layer's groups on threads changes no bit of its objective or layer."""

    @pytest.mark.parametrize("search", [True, False])
    @pytest.mark.parametrize("mat, n_uns", THREAD_CASES)
    def test_same_layer_and_objective_on_any_thread_count(self, monkeypatch, mat, n_uns,
                                                           search):
        started, before = [], threading.active_count()

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(so, "threading", SimpleNamespace(Thread=Counted))
        fit, config, runs = fit_gaussian(mat), QuantConfig(n_uns=n_uns), []
        for threads in (1, 3):
            objective = LayerObjective(mat, fit, config, threads)
            best = optimize_saliency(objective) if search else objective(objective.p_cap)
            layer = objective.layer(best.p_sal)
            runs.append((_layer_record(layer), best,
                         {p: [plain(g) for g in groups] for p, groups in objective.scored.items()},
                         [{key: plain(g) for key, g in results.items()}
                          for results in objective.results]))
            assert threading.active_count() == before
            assert bool(started) == (threads > 1)
        assert runs[0] == runs[1]
        assert (len(runs[0][2]) > 3) == search  # the search scored shares

    def test_each_job_runs_once_in_order_under_stress(self):
        """More threads than cores, switching every microsecond: each job is taken
        once and its result lands in its own place."""
        ran, out, interval = [0] * 2000, [], sys.getswitchinterval()

        def job(i):
            ran[i] += 1
            return i

        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=lambda: out.append(
                so._run([partial(job, i) for i in range(len(ran))], 8)))
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert out == [list(range(len(ran)))] and ran == [1] * len(ran)

    def test_exception_of_a_thread_is_raised_here(self):
        """A job that fails off this thread raises its own exception here, and no
        thread outlives the call."""
        before, barrier = threading.active_count(), threading.Barrier(2, timeout=30)

        def job(i):
            barrier.wait()  # the two jobs run on two threads
            if threading.current_thread() is not threading.main_thread():
                raise DomainError(f"job {i} failed off the main thread")
            return i

        with pytest.raises(DomainError, match=r"^job [01] failed off the main thread$"):
            so._run([partial(job, 0), partial(job, 1)], 2)
        assert threading.active_count() == before

    def test_first_failing_job_in_order_is_raised(self):
        """Two jobs fail at once on two threads: the first in order is raised, as one
        thread running the jobs in order would raise it."""
        barrier = threading.Barrier(2, timeout=30)

        def fail(message):
            barrier.wait()
            raise ValueError(message)

        jobs = [partial(int, 0), partial(fail, "first"), partial(fail, "second")]
        with pytest.raises(ValueError, match="^first$"):
            so._run(jobs, 3)

    def test_thread_that_cannot_start_leaves_its_jobs_to_the_others(self, monkeypatch):
        """A thread that cannot start ("can't start new thread") fails no job: the
        threads that did start, this one included, run them all."""
        before, real = threading.active_count(), threading.Thread.start
        for allowed in (0, 1):
            starts = []

            def start(self):
                starts.append(self)
                if len(starts) > allowed:
                    raise RuntimeError("can't start new thread")
                real(self)

            monkeypatch.setattr(threading.Thread, "start", start)
            assert so._run([partial(int, i) for i in range(50)], 4) == list(range(50))
            assert len(starts) == allowed + 1
            assert threading.active_count() == before

    def test_jobs_not_taken_are_dropped_after_a_failure(self):
        ran = []

        def job(i):
            if i == 0:
                raise DomainError("first job")
            time.sleep(0.001)
            ran.append(i)

        with pytest.raises(DomainError, match="first job"):
            so._run([partial(job, i) for i in range(200)], 2)
        assert len(ran) < 20
