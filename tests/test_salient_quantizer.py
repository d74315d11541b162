import math

import numpy as np
import pytest

from binq import DomainError, QuantConfig, Role, WeightMatrix, salient_quantizer
from binq.partitioner import compute_cutoffs, magnitude_labels, magnitude_thresholds
from binq.salient_quantizer import (FIT_ATOL, adaptive_levels, assign_codes, fit_rowwise,
                                    level_grid, quantize_salient)
from binq.weight_stats import fit_gaussian
from conftest import gaussian_matrix, outlier_matrix, rowwise_residuals, salient_members

# Exact evaluations of the exponential level mapping at alpha = 1.4:
# 1.4*e - 1 and 1.4*sqrt(e) - 1.
LEVEL_OUTER = 2.805594559842663
LEVEL_INNER = 1.3082097789801792


def salient_residual(mat, mask, quant):
    """Squared reconstruction error over the salient members."""
    rows = np.nonzero(mask)[0]
    w = mat.data[mask].astype(np.float64)
    approx = quant.scales.astype(np.float64)[rows] * quant.centers[quant.codes]
    return float(np.sum(np.square(w - approx)))


def all_salient(values):
    """A matrix and a mask marking every element salient."""
    data = np.asarray(values, np.float32)
    if data.ndim == 1:
        data = data.reshape(1, -1)
    return WeightMatrix("t", Role.LANGUAGE, data), np.ones(data.shape, dtype=bool)


def salient_mask(mat, fit, p_sal, n_uns):
    """Salient positions under the labelling rule at share p_sal."""
    t = magnitude_thresholds(fit, compute_cutoffs(p_sal, n_uns))
    return magnitude_labels(np.abs(mat.data), t) == n_uns


def fit_rowwise_oracle(rows, w, m, iters, atol=0.0):
    """The row-wise fit as first written: new arrays for every update."""
    relaxed = np.sign(w)
    scales = np.zeros(m, dtype=np.float64)
    for _ in range(iters):
        prev = scales
        num = np.bincount(rows, weights=w * relaxed, minlength=m)
        den = np.bincount(rows, weights=relaxed * relaxed, minlength=m)
        safe = np.where(den > 0.0, den, 1.0)
        scales = np.where(den > 0.0, num / safe, 0.0)
        row_scale = scales[rows]
        active = row_scale != 0.0
        relaxed = np.where(active,
                           np.clip(w / np.where(active, row_scale, 1.0), -1.0, 1.0),
                           relaxed)
        if atol > 0.0 and (scales.size == 0 or np.max(np.abs(scales - prev)) < atol):
            break
    return scales, relaxed


def fit_rowwise_unbuffered(rows, w, m, iters, atol=0.0):
    """The row-wise fit with a fresh array per product, fancy indexing and np.clip."""
    relaxed = np.sign(w)
    scales = np.zeros(m, dtype=np.float64)
    for _ in range(iters):
        prev = scales
        num = np.bincount(rows, weights=w * relaxed, minlength=m)
        den = np.bincount(rows, weights=relaxed * relaxed, minlength=m)
        scales = np.divide(num, den, out=np.zeros(m), where=den > 0.0)
        row_scale = scales[rows]
        np.divide(w, row_scale, out=relaxed, where=row_scale != 0.0)
        np.clip(relaxed, -1.0, 1.0, out=relaxed)
        if atol > 0.0 and (scales.size == 0 or np.max(np.abs(scales - prev)) < atol):
            break
    return scales, relaxed


def rowwise_case(case):
    """(rows, w, m, iters, atol) of a seeded salient set exercising one corner of the fit."""
    rng = np.random.default_rng(["empty_rows", "zero_members", "one_iteration",
                                 "early_stop"].index(case))
    m, size = 40, 900
    rows = np.sort(rng.integers(0, m, size))
    w = 0.02 * rng.standard_t(5, size)
    iters, atol = 15, FIT_ATOL
    if case == "empty_rows":
        rows = np.sort(rng.choice([1, 4, 5, 17, 38], size))
    elif case == "zero_members":
        w[rng.random(size) < 0.3] = 0.0
        w[rows == 7] = 0.0
    elif case == "one_iteration":
        iters = 1
    else:  # the scales move by less than this from about the 7th iteration on
        atol = 0.02
    return rows, w, m, iters, atol


class TestFitRowwise:
    @pytest.mark.parametrize("case", ["empty_rows", "zero_members", "one_iteration",
                                      "early_stop"])
    def test_bitwise_equal_to_unbuffered_loop(self, case):
        rows, w, m, iters, atol = rowwise_case(case)
        got = fit_rowwise(rows, w, m, iters, atol)
        want = fit_rowwise_unbuffered(rows, w, m, iters, atol)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if case == "empty_rows":
            assert not got[0][np.setdiff1d(np.arange(m), rows)].any()
        if case == "zero_members":
            assert not got[0][7] and not got[1][w == 0.0].any()
        if case == "early_stop":  # the fit stopped before its last iteration
            assert got[0].tobytes() != fit_rowwise(rows, w, m, iters)[0].tobytes()

    def test_bitwise_equal_to_oracle(self):
        rng = np.random.default_rng(300)
        for case in range(300):
            m, size = int(rng.integers(1, 12)), int(rng.integers(0, 60))
            rows = np.sort(rng.integers(0, m, size))
            w = rng.standard_t(3, size) * rng.choice([1e-3, 1.0, 50.0])
            w[rng.random(size) < 0.15] = 0.0  # rows whose members are all zero keep scale 0
            w[rows == rows[0] if size else []] *= case % 2
            iters, atol = int(rng.integers(1, 7)), float(rng.choice([0.0, 1e-12, 1e-3]))
            got = fit_rowwise(rows, w, m, iters, atol)
            want = fit_rowwise_oracle(rows, w, m, iters, atol)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_constant_row_fixed_point(self):
        mat, mask = all_salient([4.0, 4.0, 4.0])
        scales, relaxed = fit_rowwise(*salient_members(mat, mask), iters=1)
        assert scales[0] == pytest.approx(4.0)
        assert np.allclose(relaxed, 1.0)
        scales5, relaxed5 = fit_rowwise(*salient_members(mat, mask), iters=5)
        assert scales5[0] == pytest.approx(4.0)
        assert np.allclose(relaxed5, 1.0)

    def test_two_six_hand_run(self):
        mat, mask = all_salient([2.0, 6.0])
        scales, relaxed = fit_rowwise(*salient_members(mat, mask), iters=1)
        assert scales[0] == pytest.approx(4.0)
        assert relaxed == pytest.approx([0.5, 1.0])
        scales2, relaxed2 = fit_rowwise(*salient_members(mat, mask), iters=2)
        assert scales2[0] == pytest.approx(5.6)
        assert relaxed2 == pytest.approx([2.0 / 5.6, 1.0])

    def test_two_six_residual_decreases(self):
        mat, mask = all_salient([2.0, 6.0])
        residuals = rowwise_residuals(mat, mask, 4)
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert residuals[1] < residuals[0]

    def test_row_without_members_gets_zero_scale(self):
        mat = WeightMatrix("t", Role.LANGUAGE,
                           np.array([[5.0, 5.0], [0.1, 0.1]], np.float32))
        mask = np.array([[True, True], [False, False]])
        scales, relaxed = fit_rowwise(*salient_members(mat, mask), iters=3)
        assert scales[1] == 0.0
        assert scales[0] == pytest.approx(5.0)

    def test_relaxation_containment(self, rng):
        mat, mask = all_salient(rng.normal(0, 3, (8, 16)).astype(np.float32))
        for iters in (1, 3, 7):
            _, relaxed = fit_rowwise(*salient_members(mat, mask), iters=iters)
            assert np.all(relaxed >= -1.0) and np.all(relaxed <= 1.0)

    def test_monotone_residual_random(self, rng):
        for _ in range(10):
            mat, mask = all_salient(rng.normal(0, 1, (16, 16)).astype(np.float32))
            res = rowwise_residuals(mat, mask, 10)
            assert all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(res, res[1:]))

    def test_empty_salient_set(self):
        mat = gaussian_matrix(0, shape=(8, 8))
        mask = salient_mask(mat, fit_gaussian(mat), 0.0, 2)
        scales, relaxed = fit_rowwise(*salient_members(mat, mask), iters=2)
        assert np.all(scales == 0.0)
        assert relaxed.size == 0


class TestAdaptiveLevels:
    def test_reference_values(self):
        levels, centers = level_grid(0.0, 1.0, 2, 1.4)
        expected = [-LEVEL_OUTER, -LEVEL_INNER, 0.0, LEVEL_INNER, LEVEL_OUTER]
        assert levels == pytest.approx(expected, abs=1e-12)
        mid = 0.5 * (LEVEL_INNER + LEVEL_OUTER)
        assert centers == pytest.approx(
            [-mid, -LEVEL_INNER / 2, LEVEL_INNER / 2, mid], abs=1e-12)

    def test_levels_compress_with_alpha(self):
        _, tight = level_grid(0.0, 1.0, 2, 1.05)
        _, wide = level_grid(0.0, 1.0, 2, 1.4)
        assert np.all(np.abs(tight) <= np.abs(wide) + 1e-15)

    def test_grid_anchored_at_mean(self):
        levels, _ = level_grid(0.7, 2.0, 2, 1.4)
        assert levels[2] == pytest.approx(0.7)  # sign(0) = 0 pins the middle level

    def test_degenerate_sigma(self):
        levels, centers = level_grid(1.0, 0.0, 2, 1.4)
        assert np.all(levels == 1.0)
        assert np.all(centers == 1.0)

    def test_antisymmetric_centers(self):
        _, centers = level_grid(0.0, 1.7, 3, 1.4)
        assert centers == pytest.approx(-centers[::-1], abs=1e-12)

    def test_stats_from_nonzero_members(self):
        relaxed = np.array([0.0, 0.0, -1.0, 1.0])
        levels, _, mu_b, sigma_b = adaptive_levels(relaxed, 2, 1.4)
        # nonzero values {-1, 1}: mean 0, population std 1
        assert (mu_b, sigma_b) == (0.0, 1.0)
        assert levels == pytest.approx(
            [-LEVEL_OUTER, -LEVEL_INNER, 0.0, LEVEL_INNER, LEVEL_OUTER], abs=1e-12)

    def test_no_nonzero_members_rejected(self):
        with pytest.raises(DomainError):
            adaptive_levels(np.zeros(4), 2, 1.4)


class TestAssignCodes:
    def test_exact_center_hit(self):
        centers = np.array([-2.0, -0.5, 0.5, 2.0])
        codes = assign_codes(np.array([-0.5, 2.0]), centers)
        assert list(codes) == [1, 3]

    def test_midpoint_tie_goes_low(self):
        centers = np.array([-1.0, 0.0, 1.0, 2.0])
        codes = assign_codes(np.array([0.5, 1.5]), centers)
        assert list(codes) == [1, 2]

    @pytest.mark.parametrize("n_bits", [1, 2, 8])
    @pytest.mark.parametrize("chunk", [None, 1, 7])
    def test_chunks_give_the_full_matrix_argmin(self, rng, monkeypatch, n_bits, chunk):
        """Codes assigned a chunk of members at a time are those of the argmin over
        the whole members x centers matrix, on random values and on ties: values
        at the midpoint of two centers, and repeated centers."""
        if chunk is not None:  # the default chunk splits 3000 members only at 8 bits
            monkeypatch.setattr(salient_quantizer, "CHUNK", chunk)
        _, spread = level_grid(0.0, 0.8, n_bits, 1.4)
        repeated = np.repeat(spread[::2], 2)  # each center twice: the lower index wins
        for centers in (spread, repeated, np.zeros(2 ** n_bits)):
            mids = (centers[:-1] + centers[1:]) / 2
            values = np.concatenate([rng.uniform(-3, 3, 3000), mids, centers, [0.0]])
            want = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
            got = assign_codes(values, centers)
            assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert assign_codes(np.zeros(0), spread).shape == (0,)

    def test_nearest_is_optimal(self, rng):
        centers = np.sort(rng.normal(0, 1, 4))
        values = rng.uniform(-3, 3, 100)
        codes = assign_codes(values, centers)
        errs = np.abs(values - centers[codes])
        all_errs = np.abs(values[:, None] - centers[None, :])
        assert np.all(errs <= all_errs.min(axis=1) + 1e-15)


class TestQuantizeSalient:
    def test_perfect_reconstruction_construct(self):
        # With alpha = 4 / (sqrt(e) + e), the outer center lands exactly on 1,
        # so rows of {-c, +c} reconstruct without error.
        alpha = 4.0 / (math.sqrt(math.e) + math.e)
        config = QuantConfig(alpha=alpha, p_sal_max=0.5)
        c = 2.0
        mat, mask = all_salient(np.tile([-c, c], (4, 3)).astype(np.float32))
        quant = quantize_salient(*salient_members(mat, mask), config)
        res = salient_residual(mat, mask, quant)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_empty_salient_set(self):
        mat = gaussian_matrix(1, shape=(8, 8))
        mask = salient_mask(mat, fit_gaussian(mat), 0.0, 2)
        quant = quantize_salient(*salient_members(mat, mask), QuantConfig(p_sal_max=0.5))
        assert quant.codes.size == 0
        assert np.all(np.asarray(quant.scales, dtype=np.float64) == 0.0)
        assert salient_residual(mat, mask, quant) == 0.0

    def test_code_range(self):
        mat = outlier_matrix(3, shape=(64, 64), frac=0.05, magnitude=6.0, spread=2.0)
        mask = salient_mask(mat, fit_gaussian(mat), 0.05, 5)
        quant = quantize_salient(*salient_members(mat, mask), QuantConfig(p_sal_max=0.05))
        assert quant.codes.min() >= 0
        assert quant.codes.max() <= 3

    def test_beats_single_scalar_binarization_on_outlier_tails(self):
        # The engine's target regime: outlier rows with spread magnitudes.
        wins = 0
        for seed in range(10):
            mat = outlier_matrix(seed, shape=(64, 64), sigma=1.0, frac=0.015,
                                 magnitude=6.0, spread=2.0)
            fit = fit_gaussian(mat)
            mask = salient_mask(mat, fit, 0.05, 5)
            quant = quantize_salient(*salient_members(mat, mask), QuantConfig(p_sal_max=0.05))
            res2 = salient_residual(mat, mask, quant)
            members = mat.data[mask].astype(np.float64)
            a1 = np.abs(members).mean()
            res1 = float(np.sum((members - a1 * np.where(members >= 0, 1, -1)) ** 2))
            wins += res2 < res1
        assert wins == 10

    def test_beats_single_scalar_binarization_gaussian_tails(self):
        mat = gaussian_matrix(0, shape=(64, 64))
        fit = fit_gaussian(mat)
        mask = salient_mask(mat, fit, 0.05, 5)
        quant = quantize_salient(*salient_members(mat, mask), QuantConfig(p_sal_max=0.05))
        res2 = salient_residual(mat, mask, quant)
        members = mat.data[mask].astype(np.float64)
        a1 = np.abs(members).mean()
        res1 = float(np.sum((members - a1 * np.where(members >= 0, 1, -1)) ** 2))
        assert res2 < res1

    def test_degenerate_constant_members(self):
        # All salient members equal: sigma_b = 0, every center collapses to
        # mu_b = 1 and reconstruction is exact.
        mat, mask = all_salient([3.0, 3.0, 3.0, 3.0])
        quant = quantize_salient(*salient_members(mat, mask), QuantConfig(p_sal_max=0.5))
        assert quant.sigma_b == 0.0
        assert np.all(quant.centers == quant.mu_b)
        assert salient_residual(mat, mask, quant) == pytest.approx(0.0, abs=1e-12)

    def test_scale_equivariance(self):
        mat = outlier_matrix(4, shape=(32, 32), sigma=1.0, frac=0.03,
                             magnitude=5.0, spread=1.0)
        fit = fit_gaussian(mat)
        mask = salient_mask(mat, fit, 0.05, 5)
        q1 = quantize_salient(*salient_members(mat, mask), QuantConfig(p_sal_max=0.05))
        scaled = WeightMatrix("t", Role.LANGUAGE, mat.data * np.float32(2.0))
        fit2 = fit_gaussian(scaled)
        mask2 = salient_mask(scaled, fit2, 0.05, 5)
        q2 = quantize_salient(*salient_members(scaled, mask2), QuantConfig(p_sal_max=0.05))
        assert np.array_equal(q1.codes, q2.codes)
        assert np.allclose(np.asarray(q2.scales, np.float64),
                           2.0 * np.asarray(q1.scales, np.float64))
