import math

import numpy as np
import pytest

from binq import (DomainError, OptimizationError, QuantConfig, Role, WeightMatrix,
                  quantize_layer)
from binq.partitioner import compute_cutoffs, magnitude_thresholds
from binq.saliency_optimizer import (LayerObjective, brent_minimize, evaluate_objective,
                                     optimize_saliency, sweep_thresholds)
from binq.weight_stats import GaussianFit, fit_gaussian
from conftest import (capped_layer, gaussian_matrix, outlier_matrix, score_layer,
                      straddling_outlier_matrix)


def golden_iteration_bound(lo, hi, tol):
    return math.ceil(math.log((hi - lo) / tol) / math.log(1 / 0.6180339887498949)) + 2


class TestBrentMinimize:
    def test_quadratic_interior(self):
        x, fx, iters = brent_minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0,
                                      tol=1e-8, max_iters=100, full_output=True)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-10)
        # parabolic steps converge far faster than the golden-section bound
        assert iters <= golden_iteration_bound(0.0, 1.0, 1e-8)

    def test_monotone_boundary_minimum(self):
        x, fx, iters = brent_minimize(lambda x: x, 0.0, 1.0, tol=1e-8,
                                      max_iters=100, full_output=True)
        assert x == pytest.approx(0.0, abs=1e-6)
        assert iters <= golden_iteration_bound(0.0, 1.0, 1e-8)

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
        fit = fit_gaussian(mat)
        for p in (0.0, 0.005, 0.01):
            ev = evaluate_objective(mat, fit, p, QuantConfig())
            assert ev.j == pytest.approx(0.0, abs=1e-12)

    def test_zero_share_equals_pure_binarization(self):
        mat = gaussian_matrix(2, shape=(32, 32))
        fit = fit_gaussian(mat)
        config = QuantConfig(n_uns=1, p_sal_max=0.05)
        ev = evaluate_objective(mat, fit, 0.0, config)
        # independent evaluation: sign * mean|w| with the stored-scale rounding
        w = mat.data.astype(np.float64)
        a = float(np.float16(np.abs(w).mean()))
        expected = float(np.sum((w - a * np.where(w >= 0, 1, -1)) ** 2) / np.sum(w * w))
        assert ev.j == pytest.approx(expected, rel=1e-12)
        assert ev.salient_residual == 0.0

    def test_outliers_reward_isolation(self):
        # 1% of entries at +/-6 sigma: isolating them must beat leaving them
        # in the outermost binarized subset.
        mat = outlier_matrix(0, shape=(128, 128), sigma=0.02, frac=0.01,
                             magnitude=6.0)
        fit = fit_gaussian(mat)
        config = QuantConfig(p_sal_max=0.05)
        j0 = evaluate_objective(mat, fit, 0.0, config).j
        j1 = evaluate_objective(mat, fit, 0.01, config).j
        assert j1 < j0

    def test_all_zero_matrix_rejected(self):
        mat = WeightMatrix("t", Role.LANGUAGE, np.zeros((4, 4), np.float32))
        with pytest.raises(DomainError):
            evaluate_objective(mat, fit_gaussian(mat), 0.0, QuantConfig())

    def test_share_outside_cap_rejected(self):
        mat = gaussian_matrix(3)
        with pytest.raises(DomainError):
            evaluate_objective(mat, fit_gaussian(mat), 0.5,
                               QuantConfig(p_sal_max=0.05))

    def test_objective_of_another_layer_rejected(self):
        mat, other = gaussian_matrix(3), gaussian_matrix(4)
        fit, config = fit_gaussian(mat), QuantConfig(p_sal_max=0.05)
        objective = LayerObjective(mat, fit, config)
        assert evaluate_objective(mat, fit, 0.02, config, objective) == objective(0.02)
        for args in ((other, fit, config), (mat, fit_gaussian(other), config),
                     (mat, fit, QuantConfig(p_sal_max=0.04))):
            with pytest.raises(DomainError):
                evaluate_objective(*args[:2], 0.02, args[2], objective)

    def test_composition_matches_components(self):
        mat = outlier_matrix(5, shape=(48, 48), frac=0.02, magnitude=5.0)
        fit = fit_gaussian(mat)
        ev = evaluate_objective(mat, fit, 0.02, QuantConfig(p_sal_max=0.05))
        total = ev.salient_residual + sum(ev.unsalient_residuals)
        assert ev.j == pytest.approx(total / ev.denom, rel=1e-14)


class TestOptimizeSaliency:
    def test_bounds_respected(self):
        mat = gaussian_matrix(4, shape=(48, 48))
        fit = fit_gaussian(mat)
        p = optimize_saliency(mat, fit, QuantConfig(p_sal_max=0.03))
        assert 0.0 <= p <= 0.03

    def test_boundary_guarantee(self):
        for seed in range(3):
            mat = outlier_matrix(seed, shape=(64, 64), frac=0.02, magnitude=8.0,
                                 spread=2.0)
            fit = fit_gaussian(mat)
            config = QuantConfig(p_sal_max=0.05)
            p = optimize_saliency(mat, fit, config)
            j_opt = evaluate_objective(mat, fit, p, config).j
            j_lo = evaluate_objective(mat, fit, 0.0, config).j
            j_hi = evaluate_objective(mat, fit, 0.05, config).j
            assert j_opt <= min(j_lo, j_hi) + 1e-12

    def test_heavy_outliers_prefer_positive_share(self):
        mat = outlier_matrix(0, shape=(128, 128), frac=0.02, magnitude=10.0)
        fit = fit_gaussian(mat)
        p = optimize_saliency(mat, fit, QuantConfig(p_sal_max=0.05))
        assert p > 0.0

    def test_language_cap_from_role(self):
        mat = outlier_matrix(1, shape=(64, 64), frac=0.02, magnitude=6.0,
                             role=Role.LANGUAGE)
        fit = fit_gaussian(mat)
        p = optimize_saliency(mat, fit, QuantConfig())
        assert p <= 0.01

    def test_deterministic(self):
        mat = outlier_matrix(2, shape=(64, 64), frac=0.02, magnitude=6.0)
        fit = fit_gaussian(mat)
        config = QuantConfig(p_sal_max=0.04)
        assert optimize_saliency(mat, fit, config) == optimize_saliency(
            mat, fit, config)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_cap_with_more_than_six_decimals(self, seed):
        # round(0.0123456789, 6) = 0.012346 lies above the cap itself.
        config = QuantConfig(p_sal_max=0.0123456789)
        mat = gaussian_matrix(seed, shape=(48, 48))
        p = optimize_saliency(mat, fit_gaussian(mat), config)
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
        p, j = optimize_saliency(mat, objective.fit, config, objective, full_output=True)
        assert (p, j) == (p_star, objective(p_star).j)
        assert j <= objective(cap).j

    def test_degenerate_sigma_returns_zero(self):
        mat = WeightMatrix("t", Role.LANGUAGE, np.full((8, 8), 1.5, np.float32))
        assert optimize_saliency(mat, fit_gaussian(mat), QuantConfig(p_sal_max=0.05)) == 0.0


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
    fit = GaussianFit(mu=0.0, sigma=float(v) / z, count=data.size)
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
        "scale_width_32": (heavy, QuantConfig(scale_width=32, p_sal_max=0.05)),
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
            assert got.p_sal == p
            assert got.denom == want.denom
            assert got.salient_residual == want.salient_residual
            assert len(got.unsalient_residuals) == config.n_uns
            assert got.unsalient_residuals == want.unsalient_residuals
            assert got.j == want.j
            # A pinned share is scored on the shells its layer picks, as bitwise.
            layer, scored = LayerObjective(mat, fit, config).scored_layer(p)
            assert scored == got
            assert np.array_equal(layer.labels, objective.layer(p).labels)

    def test_tail_regathered_when_a_cutoff_falls_below_it(self):
        mat = outlier_matrix(6, shape=(48, 48), frac=0.02, magnitude=6.0)
        fit, config = fit_gaussian(mat), QuantConfig(p_sal_max=0.05)
        objective = LayerObjective(mat, fit, config)
        objective._gather(config.n_uns, np.inf, np.inf)  # holds no member
        want = score_layer(mat, LayerObjective(mat, fit, config).layer(0.03))
        assert objective(0.03).salient_residual == want.salient_residual > 0.0

    @pytest.mark.parametrize("k", range(6))
    def test_window_regathered_when_a_cutoff_leaves_it(self, k):
        mat = outlier_matrix(6, shape=(48, 48), frac=0.02, magnitude=6.0)
        fit, config = fit_gaussian(mat), QuantConfig(p_sal_max=0.05)
        want = LayerObjective(mat, fit, config)(0.03)
        assert min(want.unsalient_residuals) > 0.0 and want.salient_residual > 0.0
        objective = LayerObjective(mat, fit, config)
        lo, hi = objective._edges(0.03)[k:k + 2]
        # Empty windows whose upper, then lower bound lies inside group k at 0.03.
        for bounds in ((lo, lo), (hi, hi)):
            objective._gather(k, *bounds)
            assert objective.windows[k][0].size == 0
            assert objective(0.03) == want

    def test_windows_bound_every_share(self):
        mat = outlier_matrix(6, shape=(48, 48), frac=0.02, magnitude=6.0)
        objective = LayerObjective(mat, fit_gaussian(mat), QuantConfig(p_sal_max=0.05))
        cap, zero = objective._edges(0.05), objective._edges(0.0)
        assert objective.bounds == list(zip(cap[:-1], zero[1:]))
        assert objective.windows == [None] * 6  # gathered at first use
        objective(0.05)
        objective(0.0)
        assert objective.bounds == list(zip(cap[:-1], zero[1:]))  # no re-gather
        # Cutoff k moves over a mass of about (k + 1) * cap / n_uns, which two windows share.
        total = sum(window[0].size for window in objective.windows)
        assert mat.data.size <= total < (1.0 + 0.05 * 3 + 0.02) * mat.data.size


def seeded_layer(seed, stream, role, shape, biased):
    """A layer drawn as the benchmark draws its model layers (scale 0.02)."""
    rng = np.random.default_rng([seed, stream])
    data = 0.5 + rng.standard_normal(shape) if biased else rng.standard_t(5, size=shape)
    return WeightMatrix(f"s{seed}.{stream}", role, (0.02 * data).astype(np.float32))


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
    assert optimize_saliency(mat, fit_gaussian(mat), QuantConfig()) == p_star
