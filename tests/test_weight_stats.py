import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binq import DomainError, Role, WeightMatrix
from binq.weight_stats import (GaussianFit, default_bin_count, fit_gaussian,
                               histogram, kl_discrete, kl_divergence,
                               normal_cdf, probit)


def matrix_of(values, shape=None):
    arr = np.asarray(values, dtype=np.float32)
    if shape is None:
        arr = arr.reshape(1, -1)
    else:
        arr = arr.reshape(shape)
    return WeightMatrix(name="t", role=Role.LANGUAGE, data=arr)


class TestFitGaussian:
    def test_constant_data(self):
        fit = fit_gaussian(matrix_of([1.0, 1.0, 1.0, 1.0]))
        assert fit.mu == 1.0
        assert fit.sigma == 0.0

    def test_symmetric_pair(self):
        fit = fit_gaussian(matrix_of([-1.0, 1.0]))
        assert fit.mu == 0.0
        assert fit.sigma == pytest.approx(1.0)

    def test_large_sample_recovers_parameters(self):
        rng = np.random.default_rng(42)
        data = rng.normal(0.2, 0.5, 10 ** 6).astype(np.float32)
        fit = fit_gaussian(matrix_of(data, shape=(1000, 1000)))
        # 0.002 is roughly 4 standard errors at this sample size.
        assert abs(fit.mu - 0.2) < 0.002
        assert abs(fit.sigma - 0.5) < 0.002

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            fit_gaussian(matrix_of([3.0]))

    def test_permutation_invariant(self, rng):
        data = rng.normal(0, 1, 64).astype(np.float32)
        shuffled = data.copy()
        rng.shuffle(shuffled)
        a = fit_gaussian(matrix_of(data))
        b = fit_gaussian(matrix_of(shuffled))
        assert a.mu == pytest.approx(b.mu, abs=1e-12)
        assert a.sigma == pytest.approx(b.sigma, abs=1e-12)

    def test_matches_two_copy_oracle_bitwise(self):
        rng = np.random.default_rng(7)
        for shape in [(1, 2), (33, 17), (256, 128)]:
            mat = matrix_of(0.3 + 0.02 * rng.standard_t(5, shape), shape)
            before = mat.data.copy()
            fit = fit_gaussian(mat)
            mu = float(np.mean(mat.data, dtype=np.float64))
            var = float(np.mean(np.square(mat.data.astype(np.float64) - mu)))
            assert (fit.mu, fit.sigma) == (mu, np.sqrt(var))
            assert np.array_equal(mat.data, before)  # the fit squares its own copy


class TestProbit:
    def test_median(self):
        assert probit(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_upper_975(self):
        assert probit(0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_phi_of_one(self):
        assert probit(0.841344746) == pytest.approx(1.0, abs=1e-5)

    def test_out_of_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                probit(p)

    def test_antisymmetry(self):
        for p in (1e-6, 1e-3, 0.2, 0.4, 0.49):
            assert probit(1.0 - p) == pytest.approx(-probit(p), abs=1e-9)

    def test_strictly_increasing(self):
        grid = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        values = [probit(p) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_within_8_ulps_of_mpmath(self):
        grid = np.concatenate([np.linspace(0.5, 1.0, 401)[1:-1],
                               0.5 + np.geomspace(1e-12, 0.4, 100),
                               1.0 - np.geomspace(1e-12, 0.4, 200)]).tolist()
        assert max(grid) == 1.0 - 1e-12  # the partitioner's largest argument
        with mpmath.workdps(50):
            for p in grid:
                exact = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))
                assert abs(probit(p) - exact) <= 8 * math.ulp(exact), p

    def test_roundtrip_through_cdf(self):
        for p in np.linspace(1e-6, 1 - 1e-6, 501):
            assert abs(normal_cdf(probit(p)) - p) < 1e-9


class TestHistogram:
    def test_uniform_split(self):
        hist = histogram(matrix_of([0.0, 1.0, 2.0, 3.0]), bins=2)
        assert list(hist.counts) == [2, 2]
        assert hist.total == 4

    def test_degenerate_constant_data(self):
        hist = histogram(matrix_of([0.0, 0.0, 0.0, 0.0]), bins=4)
        assert hist.total == 4
        assert hist.counts.max() == 4
        assert np.all(np.diff(hist.edges) > 0)

    def test_conservation(self, rng):
        data = rng.normal(0, 1, 1000).astype(np.float32)
        hist = histogram(matrix_of(data), bins=31)
        assert hist.total == 1000
        assert hist.counts.sum() == 1000

    def test_bad_bin_count(self):
        with pytest.raises(DomainError):
            histogram(matrix_of([1.0, 2.0]), bins=1)

    def test_default_bin_count(self):
        assert default_bin_count(2, 2) == 2
        assert default_bin_count(10, 10) == 10
        assert default_bin_count(4096, 4096) == 512


class TestKlDivergence:
    def test_discrete_hand_value(self):
        # 0.5*ln(2) + 0.5*ln(2/3)
        d = kl_discrete([0.5, 0.5], [0.25, 0.75])
        assert d == pytest.approx(0.14384, abs=1e-4)

    def test_zero_when_matching_cdf_masses(self):
        fit = GaussianFit(mu=0.0, sigma=1.0)
        edges = np.linspace(-7.0, 7.0, 17)
        cdf = np.array([fit.cdf(e) for e in edges])
        masses = np.diff(cdf)
        total = 10 ** 12
        counts = np.round(masses * total).astype(np.int64)
        from binq.weight_stats import Histogram
        hist = Histogram(edges=edges, counts=counts, total=int(counts.sum()))
        assert abs(kl_divergence(hist, fit)) < 1e-9

    def test_laplace_data_diverges(self):
        rng = np.random.default_rng(3)
        data = rng.laplace(0, 1, 100_000).astype(np.float32)
        mat = matrix_of(data, shape=(250, 400))
        fit = fit_gaussian(mat)
        hist = histogram(mat, bins=64)
        assert kl_divergence(hist, fit) > 0.01

    def test_nonnegative(self, rng):
        for _ in range(20):
            data = rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 2), 500)
            mat = matrix_of(data.astype(np.float32))
            fit = fit_gaussian(mat)
            hist = histogram(mat, bins=16)
            assert kl_divergence(hist, fit) >= -1e-12

    def test_empty_histogram_rejected(self):
        from binq.weight_stats import Histogram
        hist = Histogram(edges=np.array([0.0, 1.0]), counts=np.array([0]), total=0)
        with pytest.raises(DomainError):
            kl_divergence(hist, GaussianFit(mu=0.0, sigma=1.0))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_probit_cdf_inverse_property(p):
    assert abs(normal_cdf(probit(p)) - p) < 1e-9
