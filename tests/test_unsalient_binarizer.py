import itertools

import numpy as np
import pytest

from binq import QuantConfig, Role, WeightMatrix
from binq.saliency_optimizer import LayerObjective
from binq.weight_stats import fit_gaussian
from conftest import one_shell


def binarized_error(mat, scale, signs):
    """Squared error of scale * (+/-1 signs) against a one-subset matrix."""
    w = mat.data.astype(np.float64).ravel()
    return float(np.sum(np.square(w - scale * np.where(signs, 1.0, -1.0))))


def exhaustive_best(values):
    """Best squared error over all sign patterns with per-pattern optimal scalar."""
    w = np.asarray(values, dtype=np.float64)
    best = np.inf
    for signs in itertools.product((-1.0, 1.0), repeat=w.size):
        b = np.array(signs)
        denom = float(np.sum(b * b))
        a = float(np.sum(w * b)) / denom
        err = float(np.sum((w - a * b) ** 2))
        best = min(best, err)
    return best


class TestBinarizeSubset:
    def test_exactly_representable(self):
        mat, scale, signs = one_shell([3.0, 3.0, 3.0])
        assert scale == pytest.approx(3.0)
        assert np.all(signs)
        assert binarized_error(mat, scale, signs) == pytest.approx(0.0, abs=1e-12)

    def test_one_three(self):
        mat, scale, signs = one_shell([1.0, 3.0])
        assert scale == pytest.approx(2.0)
        assert list(signs) == [True, True]
        assert binarized_error(mat, scale, signs) == pytest.approx(2.0, abs=1e-10)
        # scalar grid + all four sign patterns confirm the minimum
        grid = np.arange(0.0, 5.0, 1e-4)[:, None]
        w = np.array([1.0, 3.0])
        best = np.inf
        for pattern in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            errs = np.sum((w[None, :] - grid * np.array(pattern)) ** 2, axis=1)
            best = min(best, float(errs.min()))
        assert binarized_error(mat, scale, signs) <= best + 1e-9

    def test_symmetric_pair(self):
        mat, scale, signs = one_shell([-2.0, 2.0])
        assert scale == pytest.approx(2.0)
        assert list(signs) == [False, True]
        assert binarized_error(mat, scale, signs) == pytest.approx(0.0, abs=1e-12)

    def test_zero_member_sign_convention(self):
        mat, scale, signs = one_shell([0.0, 1.0])
        assert list(signs) == [True, True]
        assert scale == pytest.approx(0.5)

    def test_empty_subset(self):
        mat = WeightMatrix("t", Role.LANGUAGE,
                           np.array([[1e-3, 10.0, -10.0, 1e-3]], np.float32))
        fit = fit_gaussian(mat)
        layer = LayerObjective(mat, fit, QuantConfig(n_uns=3, p_sal_max=0.05)).layer(0.0)
        empty = [k for k in range(3) if np.sum(layer.labels == k) == 0]
        assert empty, "construction should leave a hole in the middle subsets"
        assert layer.scalars[empty[0]] == 0.0
        assert layer.sign_bits.size == (np.sum(layer.labels < 3) + 7) // 8

    def test_optimality_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            size = rng.integers(1, 13)
            values = rng.normal(0, 1, size)
            mat, scale, signs = one_shell(values)
            closed = binarized_error(mat, scale, signs)
            stored = mat.data.astype(np.float64).ravel()
            assert closed <= exhaustive_best(stored) + 1e-9

    def test_error_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            values = rng.normal(0, 2, rng.integers(2, 40))
            mat, scale, signs = one_shell(values)
            w = mat.data.astype(np.float64).ravel()
            identity = float(np.sum(w * w) - scale ** 2 * w.size)
            assert binarized_error(mat, scale, signs) == pytest.approx(identity, abs=1e-8)

    def test_scale_equivariance(self):
        values = [0.5, -1.5, 2.5, -0.25]
        mat, scale, signs = one_shell(values)
        _, scale2, signs2 = one_shell([4 * v for v in values])
        assert scale2 == pytest.approx(4 * scale, rel=1e-12)
        assert np.array_equal(signs, signs2)

    def test_scale_nonnegative(self, rng):
        for _ in range(20):
            values = rng.normal(-3, 1, 10)
            mat, scale, signs = one_shell(values)
            assert scale >= 0.0
