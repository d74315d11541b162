import numpy as np
import pytest

from binq import DomainError, QuantConfig, Role, WeightMatrix, quantize_layer
from binq.partitioner import compute_cutoffs, magnitude_labels, magnitude_thresholds
from binq.saliency_optimizer import LayerObjective
from binq.weight_stats import GaussianFit, fit_gaussian, probit
from conftest import gaussian_matrix


def built_labels(mat, fit, p_sal, n_uns):
    """Group labels of the layer built at share p_sal with n_uns shells."""
    config = QuantConfig(n_uns=n_uns, p_sal_max=max(p_sal, 0.01))
    return LayerObjective(mat, fit, config).layer(p_sal).labels


class TestComputeCutoffs:
    def test_single_subset_five_percent(self):
        (z,) = compute_cutoffs(0.05, 1)
        assert z == pytest.approx(1.959964, abs=1e-4)

    def test_zero_salient_share_clamps(self):
        (z,) = compute_cutoffs(0.0, 1)
        assert 7.0 < z < 7.1  # probit(1 - 1e-12)

    def test_three_subsets_strictly_increasing(self):
        cutoffs = compute_cutoffs(0.1, 3)
        assert len(cutoffs) == 3
        assert all(b > a for a, b in zip(cutoffs, cutoffs[1:]))

    def test_matches_probit_of_quantiles(self):
        cutoffs = compute_cutoffs(0.02, 5)
        p_uns = (1.0 - 0.02) / 5
        for k, z in enumerate(cutoffs, start=1):
            expected = probit(min((1 + k * p_uns) / 2, 1 - 1e-12))
            assert z == pytest.approx(expected, abs=1e-12)

    def test_invalid_share(self):
        with pytest.raises(DomainError):
            compute_cutoffs(1.0, 5)
        with pytest.raises(DomainError):
            compute_cutoffs(-0.01, 5)
        with pytest.raises(DomainError):
            compute_cutoffs(0.05, 0)


class TestPartition:
    def test_statistical_fractions_single_subset(self):
        rng = np.random.default_rng(11)
        mat = WeightMatrix("t", Role.LANGUAGE,
                           rng.normal(0, 1, (1000, 1000)).astype(np.float32))
        fit = fit_gaussian(mat)
        frac = (built_labels(mat, fit, 0.05, 1) == 1).mean()
        assert frac == pytest.approx(0.05, abs=0.002)

    def test_zero_share_empty_salient(self):
        mat = gaussian_matrix(0, shape=(100, 100))
        labels = built_labels(mat, fit_gaussian(mat), 0.0, 5)
        assert np.sum(labels == 5) == 0

    def test_constant_matrix_degenerates(self):
        mat = WeightMatrix("t", Role.LANGUAGE, np.full((8, 8), 2.5, np.float32))
        layer = quantize_layer(mat, QuantConfig(p_sal_max=0.05, optimize_saliency=False))
        assert np.all(layer.labels == 0)
        assert layer.p_sal_used == 0.0

    def test_cover_and_disjoint(self):
        mat = gaussian_matrix(5, shape=(50, 40))
        labels = built_labels(mat, fit_gaussian(mat), 0.03, 5)
        counts = np.bincount(labels.ravel(), minlength=6)
        assert counts.sum() == 50 * 40
        assert counts.size == 6
        # each element carries exactly one label by construction
        assert labels.min() >= 0
        assert labels.max() <= 5

    def test_monotone_saliency(self):
        mat = gaussian_matrix(7, shape=(64, 64))
        fit = fit_gaussian(mat)
        previous = built_labels(mat, fit, 0.01, 5) == 5
        for p in (0.02, 0.05, 0.1, 0.2):
            current = built_labels(mat, fit, p, 5) == 5
            assert np.all(current[previous])  # no element leaves the salient set
            previous = current

    def test_scale_invariance_of_labels(self):
        mat = gaussian_matrix(9, shape=(32, 32))
        fit = fit_gaussian(mat)
        labels = built_labels(mat, fit, 0.04, 4)
        scaled = WeightMatrix("t", Role.LANGUAGE, mat.data * np.float32(4.0))
        fit4 = fit_gaussian(scaled)
        assert fit4.mu == pytest.approx(4 * fit.mu, abs=1e-12)
        assert fit4.sigma == pytest.approx(4 * fit.sigma, rel=1e-12)
        assert np.array_equal(labels, built_labels(scaled, fit4, 0.04, 4))

    def test_ties_go_to_lower_subset(self):
        # Construct data where one |w| hits a threshold exactly.
        mat = WeightMatrix("t", Role.LANGUAGE,
                           np.array([[1.0, -1.0, 1.0, -1.0]], np.float32))
        fit = fit_gaussian(mat)  # mu=0 sigma=1
        assert np.all(built_labels(mat, fit, 0.0, 1) == 0)

    def test_labels_match_digitize(self):
        # magnitude_labels replaced np.digitize(right=True); ties included.
        fit = GaussianFit(mu=0.0, sigma=0.5)
        t = magnitude_thresholds(fit, compute_cutoffs(0.03, 5))
        mag = np.abs(np.random.default_rng(8).standard_normal(4000))
        mag[::7] = np.resize(t, mag[::7].size)
        mag[1::9] = 0.0
        want = np.digitize(mag, t, right=True)
        assert np.array_equal(magnitude_labels(mag, t), want)
        assert magnitude_labels(mag, np.full(5, np.inf)).max() == 0

    def test_statistical_fractions_five_subsets(self):
        rng = np.random.default_rng(13)
        mat = WeightMatrix("t", Role.LANGUAGE,
                           rng.normal(0, 1, (1000, 1000)).astype(np.float32))
        labels = built_labels(mat, fit_gaussian(mat), 0.05, 5)
        counts = np.bincount(labels.ravel(), minlength=6)
        total = counts.sum()
        p_uns = (1 - 0.05) / 5
        se = np.sqrt(p_uns * (1 - p_uns) / total)
        for k in range(5):
            assert abs(counts[k] / total - p_uns) < 3 * se
