import hashlib
import json

import numpy as np
import pytest

from binq import (DomainError, ModelManifest, QuantConfig, QuantizedLayer, Role,
                  WeightMatrix, quantize_layer, quantize_model, read_manifest, reconstruct,
                  reconstruction_error, write_artifact, write_tensor)
from binq.bit_packer import storage_report
from binq.partitioner import compute_cutoffs, magnitude_thresholds
from binq.saliency_optimizer import evaluate_objective
from binq.weight_stats import fit_gaussian
from conftest import gaussian_matrix, outlier_matrix, relative_error, score_layer


def onebit_relative_error(mat):
    w = mat.data.astype(np.float64)
    a = np.abs(w).mean()
    err = np.sum((w - a * np.where(w >= 0, 1.0, -1.0)) ** 2)
    return np.sqrt(err / np.sum(w * w))


class TestQuantizeLayer:
    def test_constant_matrix_exact(self):
        mat = WeightMatrix("c", Role.LANGUAGE, np.full((16, 16), 1.5, np.float32))
        layer = quantize_layer(mat)
        assert relative_error(mat, layer) == 0.0
        assert np.array_equal(reconstruct(layer).data, mat.data)

    def test_all_zero_matrix_trivial(self):
        mat = WeightMatrix("z", Role.LANGUAGE, np.zeros((8, 8), np.float32))
        layer = quantize_layer(mat)
        assert layer.p_sal_used == 0.0
        assert np.all(reconstruct(layer).data == 0.0)

    def test_hybrid_beats_whole_matrix_binarization(self):
        mat = outlier_matrix(0, shape=(128, 128), sigma=0.02, frac=0.01,
                             magnitude=10.0)
        layer = quantize_layer(mat)
        assert relative_error(mat, layer) < onebit_relative_error(mat)

    @pytest.mark.parametrize("scale_width", [16, 32])
    def test_float32_reconstruction_is_float64_rounded(self, scale_width):
        mats = [outlier_matrix(3, shape=(40, 56), frac=0.03, magnitude=6.0),
                gaussian_matrix(5, shape=(33, 17)),
                WeightMatrix("z", Role.LANGUAGE, np.zeros((8, 8), np.float32))]
        for mat in mats:
            layer = quantize_layer(mat, QuantConfig(scale_width=scale_width))
            expected = layer.dense().astype(np.float32)
            # Bit patterns, so that -0.0 and 0.0 differ.
            assert np.array_equal(reconstruct(layer).data.view(np.uint32),
                                  expected.view(np.uint32))

    def test_reconstruction_error_matches_objective(self):
        mat = outlier_matrix(2, shape=(64, 64), frac=0.02, magnitude=6.0)
        layer = quantize_layer(mat)
        fit = fit_gaussian(mat)
        ev = evaluate_objective(mat, fit, layer.p_sal_used, layer.config)
        numerator = ev.salient_residual + sum(ev.unsalient_residuals)
        assert reconstruction_error(mat, layer) == pytest.approx(numerator,
                                                                 rel=1e-12)

    def test_one_objective_per_layer(self, monkeypatch, tmp_path):
        import binq.pipeline as pipeline
        import binq.saliency_optimizer as so

        built = []
        real = so.LayerObjective

        def counting(*args):
            built.append(args[0].name)
            return real(*args)

        for module in (so, pipeline):
            monkeypatch.setattr(module, "LayerObjective", counting)
        mats = [outlier_matrix(5, shape=(32, 48), frac=0.02, magnitude=6.0, name="a"),
                gaussian_matrix(6, shape=(16, 24), name="b")]
        manifest = read_manifest(build_manifest(
            tmp_path, [(m.name, "language", m) for m in mats]))
        for search in (False, True):
            config = QuantConfig(optimize_saliency=search)
            built.clear()
            quantize_layer(mats[0], config)
            assert built == ["a"]
            built.clear()
            quantize_model(manifest, config)
            assert built == ["a", "b"]

    def test_error_dominance_over_zero_share(self):
        for seed in range(3):
            mat = outlier_matrix(seed, shape=(48, 48), frac=0.02, magnitude=6.0)
            layer = quantize_layer(mat)
            fit = fit_gaussian(mat)
            j_opt = evaluate_objective(mat, fit, layer.p_sal_used, layer.config).j
            j_zero = evaluate_objective(mat, fit, 0.0, layer.config).j
            assert j_opt <= j_zero + 1e-12

    def test_no_optimize_pins_share_to_cap(self):
        mat = gaussian_matrix(1, shape=(32, 32))
        layer = quantize_layer(mat, QuantConfig(p_sal_max=0.03,
                                                optimize_saliency=False))
        assert layer.p_sal_used == 0.03

    def test_role_default_caps(self):
        vis = gaussian_matrix(0, role=Role.VISION)
        lang = gaussian_matrix(0, role=Role.LANGUAGE)
        assert quantize_layer(vis).p_sal_max == 0.05
        assert quantize_layer(lang).p_sal_max == 0.01

    def test_scaling_by_powers_of_two_scales_reconstruction(self):
        mat = outlier_matrix(4, shape=(32, 32), frac=0.02, magnitude=6.0)
        layer = quantize_layer(mat, QuantConfig(p_sal_max=0.02,
                                                optimize_saliency=False))
        for c in (2.0, 0.5, 4.0):
            scaled = WeightMatrix("s", Role.LANGUAGE, mat.data * np.float32(c))
            layer_c = quantize_layer(scaled, QuantConfig(p_sal_max=0.02,
                                                         optimize_saliency=False))
            assert np.array_equal(layer.labels, layer_c.labels)
            assert np.array_equal(layer.salient.codes, layer_c.salient.codes)
            assert np.array_equal(reconstruct(layer).data * np.float32(c),
                                  reconstruct(layer_c).data)

    def test_partition_supports_are_disjoint_and_cover(self):
        mat = outlier_matrix(5, shape=(40, 40), frac=0.02, magnitude=6.0)
        layer = quantize_layer(mat)
        counts = np.bincount(layer.labels.ravel(), minlength=6)
        assert counts.sum() == 40 * 40
        assert layer.salient.codes.size == counts[5]
        assert layer.signs.size == counts[:5].sum()

    def test_budget_not_exceeded(self):
        mat = gaussian_matrix(6, shape=(128, 128), sigma=0.02)
        layer = quantize_layer(mat)
        report = storage_report(layer)
        assert not report.over_budget


def build_manifest(tmp_path, specs):
    doc = []
    for name, role, matrix in specs:
        write_tensor(matrix, tmp_path / f"{name}.bvw")
        doc.append({"name": name, "path": f"{name}.bvw", "role": role})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def capped_layer(cap):
    """A layer whose search picks a cap with more than six decimals, with one
    |w| between the salient cutoffs of the cap and of its rounding.

    The search evaluates the rounded share; the layer is built at the cap.
    """
    data = outlier_matrix(3, (40, 40), frac=0.03, magnitude=8.0).data
    for _ in range(4):  # the fit moves with the placed value, less each time
        fit = fit_gaussian(WeightMatrix("c", Role.LANGUAGE, data))
        lo, hi = (magnitude_thresholds(fit, compute_cutoffs(p, 5))[-1]
                  for p in (cap, round(cap, 6)))
        data[0, 0] = (lo + hi) / 2
    assert lo < data[0, 0] <= hi
    return WeightMatrix("capped", Role.LANGUAGE, data)


class TestQuantizeModel:
    def test_three_layer_model(self, tmp_path):
        specs = [("vis", "vision", gaussian_matrix(0, (24, 24), sigma=0.02)),
                 ("lang", "language", outlier_matrix(1, (24, 24), frac=0.02,
                                                     magnitude=6.0)),
                 ("adp", "adaptor", gaussian_matrix(2, (16, 24), sigma=0.05))]
        manifest = read_manifest(build_manifest(tmp_path, specs))
        layers, report, rows = quantize_model(manifest, QuantConfig())
        assert [l.name for l in layers] == ["vis", "lang", "adp"]
        assert layers[0].p_sal_max == 0.05
        assert layers[1].p_sal_max == 0.01
        assert layers[2].p_sal_max == 0.01
        assert report.weights == 24 * 24 * 2 + 16 * 24
        assert len(rows) == 3
        assert set(rows[0]) == {"layer", "m", "n", "p_sal_used", "J",
                                "relative_error", "bits_per_weight"}

    def test_manifest_override_wins(self, tmp_path):
        mat = gaussian_matrix(0, (16, 16))
        write_tensor(mat, tmp_path / "l.bvw")
        (tmp_path / "m.json").write_text(json.dumps(
            [{"name": "l", "path": "l.bvw", "role": "language",
              "p_sal_max": 0.03}]))
        manifest = read_manifest(tmp_path / "m.json")
        layers, _, _ = quantize_model(manifest)
        assert layers[0].p_sal_max == 0.03

    def test_deterministic_artifacts(self, tmp_path):
        from binq import write_artifact
        specs = [("a", "language", outlier_matrix(3, (20, 20), frac=0.02,
                                                  magnitude=6.0))]
        manifest = read_manifest(build_manifest(tmp_path, specs))
        layers1, _, _ = quantize_model(manifest)
        layers2, _, _ = quantize_model(manifest)
        p1, p2 = tmp_path / "x1.bvq", tmp_path / "x2.bvq"
        write_artifact(layers1, p1)
        write_artifact(layers2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_layer_failure_names_layer(self, tmp_path):
        path = tmp_path / "bad.bvw"
        write_tensor(gaussian_matrix(0, (4, 4)), path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([np.inf], "<f4").tobytes()
        path.write_bytes(bytes(raw))
        (tmp_path / "m.json").write_text(json.dumps(
            [{"name": "broken", "path": "bad.bvw", "role": "language"}]))
        manifest = read_manifest(tmp_path / "m.json")
        with pytest.raises(ValueError, match="broken"):
            quantize_model(manifest)

    @pytest.mark.parametrize("search", [True, False])
    def test_csv_objective_is_the_dense_oracle(self, tmp_path, monkeypatch, search):
        rng = np.random.default_rng(9)
        specs = [("heavy", "vision", WeightMatrix("heavy", Role.VISION,
                                                  0.02 * rng.standard_t(5, (48, 64)))),
                 ("capped", "language", capped_layer(0.0123454)),
                 ("flat", "adaptor", WeightMatrix("flat", Role.ADAPTOR,
                                                  np.full((8, 16), -0.3))),
                 ("zero", "adaptor", WeightMatrix("zero", Role.ADAPTOR, np.zeros((8, 8))))]
        path = build_manifest(tmp_path, specs)
        doc = json.loads(path.read_text())
        doc[1]["p_sal_max"] = 0.0123454
        path.write_text(json.dumps(doc))
        manifest = read_manifest(path)
        dense_calls = []
        real_dense = QuantizedLayer.dense

        def counting_dense(self, *args):
            dense_calls.append(self.name)
            return real_dense(self, *args)

        monkeypatch.setattr(QuantizedLayer, "dense", counting_dense)
        layers, _, rows = quantize_model(manifest, QuantConfig(optimize_saliency=search))
        assert dense_calls == []
        monkeypatch.undo()
        if search:
            assert layers[1].p_sal_used == 0.0123454
        for entry, layer, row in zip(manifest.entries[:3], layers, rows):
            assert row["J"] == score_layer(entry.load(), layer).j
        assert rows[2]["J"] > 0.0  # -0.3 has no exact binary16 scalar
        assert rows[3]["J"] == 0.0

    def test_aggregate_is_size_weighted(self, tmp_path):
        specs = [("big", "language", gaussian_matrix(0, (64, 64), sigma=0.02)),
                 ("small", "language", gaussian_matrix(1, (8, 8), sigma=0.02))]
        manifest = read_manifest(build_manifest(tmp_path, specs))
        layers, report, _ = quantize_model(manifest)
        reps = [storage_report(l) for l in layers]
        expected = sum(r.l_model * r.weights for r in reps) / sum(r.weights
                                                                  for r in reps)
        assert report.l_model == pytest.approx(expected, rel=1e-12)


class TestQuantConfigValidation:
    def test_defaults_valid(self):
        QuantConfig()

    def test_rejects_zero_subsets(self):
        with pytest.raises(DomainError):
            QuantConfig(n_uns=0)

    def test_rejects_subsets_beyond_index_width(self):
        with pytest.raises(DomainError):
            QuantConfig(n_uns=6, l_i_max=3)
        QuantConfig(n_uns=13, l_i_max=4)

    def test_rejects_subsets_beyond_int8_labels(self):
        with pytest.raises(DomainError):
            QuantConfig(n_uns=130, l_i_max=8)
        QuantConfig(n_uns=127, l_i_max=8)

    def test_rejects_codes_beyond_uint8(self):
        with pytest.raises(DomainError):
            QuantConfig(n_bits=9)
        QuantConfig(n_bits=8)

    def test_rejects_bad_cap(self):
        with pytest.raises(DomainError):
            QuantConfig(p_sal_max=1.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            QuantConfig(alpha=0.0)


def test_golden_artifact_and_objective(tmp_path):
    """Artifact digest and error-CSV objectives of a seeded 3-layer set.

    The heavy-tailed layer is searched (interior optimum), the biased one is
    pinned to its cap with the search off, and the constant one degenerates
    to a single shell. Frozen values; any change to the arithmetic or the
    file format shows here.
    """
    rng = np.random.default_rng(2024)
    specs = [("heavy", "vision",
              WeightMatrix("heavy", Role.VISION,
                           0.02 * rng.standard_t(5, (48, 64)))),
             ("plain", "language",
              WeightMatrix("plain", Role.LANGUAGE,
                           0.02 * (0.5 + rng.standard_normal((32, 48))))),
             ("flat", "adaptor",
              WeightMatrix("flat", Role.ADAPTOR, np.full((8, 16), 0.25)))]
    entries = read_manifest(build_manifest(tmp_path, specs)).entries
    layers, rows = [], []
    for entry, search in zip(entries, (True, False, True)):
        got, _, got_rows = quantize_model(ModelManifest([entry]),
                                          QuantConfig(optimize_saliency=search))
        layers += got
        rows += got_rows
    path = tmp_path / "golden.bvq"
    write_artifact(layers, path)
    assert [r["p_sal_used"] for r in rows] == [0.02128, 0.01, 0.0]
    assert [r["J"] for r in rows] == [0.02965584063898835, 0.031770632309324004, 0.0]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "eaf59a567f129e832fd0d03809c8864f57752c9d824822b0b35af172cc57b3ed")
