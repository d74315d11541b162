import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from binq import (DomainError, ModelManifest, QuantConfig, QuantizedLayer, Role,
                  WeightMatrix, quantize_layer, quantize_model, read_manifest, reconstruct,
                  reconstruction_error, write_artifact, write_tensor)
import binq.pipeline as pipeline
import binq.saliency_optimizer as so
from binq.bit_packer import storage_report
from binq.cli import main
from binq.weight_stats import fit_gaussian
from conftest import (capped_layer, gaussian_matrix, outlier_matrix, relative_error,
                      score_layer)


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
        ev = so.LayerObjective(mat, fit_gaussian(mat), layer.config)(layer.p_sal_used)
        numerator = ev.salient_residual + sum(ev.unsalient_residuals)
        assert reconstruction_error(mat, layer) == pytest.approx(numerator,
                                                                 rel=1e-12)

    def test_one_objective_per_layer(self, monkeypatch, tmp_path):
        import binq.pipeline as pipeline
        import binq.saliency_optimizer as so

        one_core(monkeypatch)
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
            objective = so.LayerObjective(mat, fit_gaussian(mat), layer.config)
            j_opt, j_zero = objective(layer.p_sal_used).j, objective(0.0).j
            assert j_opt <= j_zero + 1e-12

    def test_pinned_share_gathers_no_shell_window(self, monkeypatch):
        gathered = []
        real = so.LayerObjective._gather

        def logged(self, k):
            gathered.append(k)
            return real(self, k)

        monkeypatch.setattr(so.LayerObjective, "_gather", logged)
        mat = outlier_matrix(3, shape=(48, 64), frac=0.02, magnitude=6.0)
        config = QuantConfig(p_sal_max=0.03, optimize_saliency=False)
        quantize_layer(mat, config)
        assert gathered == [config.n_uns]  # the salient members the layer holds
        gathered.clear()
        layer, j = pipeline._quantize(mat, config, None, score=True)
        assert gathered == [config.n_uns]
        assert j == score_layer(mat, layer).j
        assert j == so.LayerObjective(mat, fit_gaussian(mat), config)(0.03).j
        gathered.clear()
        quantize_layer(mat, QuantConfig(p_sal_max=0.03))
        assert sorted(gathered) == list(range(config.n_uns + 1))  # a search gathers each once

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


def csv_objective_case(tmp_path, monkeypatch, search):
    """Check the error CSV's J against the dense oracle, and that quantizing
    built no dense reconstruction in any process."""
    rng = np.random.default_rng(9)
    specs = [("heavy", "vision", WeightMatrix("heavy", Role.VISION,
                                              0.02 * rng.standard_t(5, (48, 64)))),
             ("capped", "language", capped_layer(0.0123454, seed=4)),
             ("flat", "adaptor", WeightMatrix("flat", Role.ADAPTOR, np.full((8, 16), -0.3))),
             ("zero", "adaptor", WeightMatrix("zero", Role.ADAPTOR, np.zeros((8, 8))))]
    path = build_manifest(tmp_path, specs)
    doc = json.loads(path.read_text())
    doc[1]["p_sal_max"] = 0.0123454
    path.write_text(json.dumps(doc))
    manifest = read_manifest(path)
    dense_calls = CallLog(tmp_path / "dense.log")
    with monkeypatch.context() as patch:
        patch.setattr(QuantizedLayer, "dense", dense_calls.wrap(QuantizedLayer.dense))
        layers, _, rows = quantize_model(manifest, QuantConfig(optimize_saliency=search))
    assert dense_calls.take() == []
    if search:  # the cap wins on its own J, which differs from J at its rounding
        assert layers[1].p_sal_used == 0.0123454
    for entry, layer, row in zip(manifest.entries[:3], layers, rows):
        assert row["J"] == score_layer(entry.load(), layer).j
    assert rows[2]["J"] > 0.0  # -0.3 has no exact binary16 scalar
    assert rows[3]["J"] == 0.0


class CallLog:
    """Names of the layers a patched callable was called for, appended to a
    file, so that calls made in worker processes are counted too."""

    def __init__(self, path):
        self.path = path

    def wrap(self, real):
        def logged(first, *args):  # first: a WeightMatrix or a QuantizedLayer
            with open(self.path, "a") as fh:
                fh.write(first.name + "\n")
            return real(first, *args)
        return logged

    def take(self) -> list:
        """The names logged since the last take, in the order written."""
        names = self.path.read_text().split() if self.path.exists() else []
        self.path.unlink(missing_ok=True)
        return names


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
        one_core(monkeypatch)
        csv_objective_case(tmp_path, monkeypatch, search)

    def test_aggregate_is_size_weighted(self, tmp_path):
        specs = [("big", "language", gaussian_matrix(0, (64, 64), sigma=0.02)),
                 ("small", "language", gaussian_matrix(1, (8, 8), sigma=0.02))]
        manifest = read_manifest(build_manifest(tmp_path, specs))
        layers, report, _ = quantize_model(manifest)
        reps = [storage_report(l) for l in layers]
        expected = sum(r.l_model * r.weights for r in reps) / sum(r.weights
                                                                  for r in reps)
        assert report.l_model == pytest.approx(expected, rel=1e-12)


def force_pool(monkeypatch, cores=(0, 1)):
    """Give quantize_model the usable cores `cores` and record its pools.
    Returns the list of arguments of each executor built."""
    import concurrent.futures.process as process

    built = []

    class Recorded(process.ProcessPoolExecutor):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(process, "ProcessPoolExecutor", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cores), raising=False)
    return built


def one_core(monkeypatch):
    """Quantize in this process, so that counters in it see every layer."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def mixed_manifest(tmp_path, bad=None):
    """Five layers of every role and kind; the layer named `bad` holds an inf."""
    rng = np.random.default_rng(17)
    specs = [("heavy", "vision", WeightMatrix("heavy", Role.VISION,
                                              0.02 * rng.standard_t(5, (48, 64)))),
             ("plain", "language", gaussian_matrix(1, (32, 48), sigma=0.02, mu=0.01)),
             ("outliers", "adaptor", outlier_matrix(2, (40, 40), frac=0.03, magnitude=8.0)),
             ("flat", "adaptor", WeightMatrix("flat", Role.ADAPTOR, np.full((8, 16), -0.3))),
             ("zero", "language", WeightMatrix("zero", Role.LANGUAGE, np.zeros((8, 8))))]
    path = build_manifest(tmp_path, specs)
    doc = json.loads(path.read_text())
    doc[2]["p_sal_max"] = 0.008
    path.write_text(json.dumps(doc))
    if bad is not None:
        tensor = tmp_path / f"{bad}.bvw"
        raw = bytearray(tensor.read_bytes())
        raw[-4:] = np.array([np.inf], "<f4").tobytes()
        tensor.write_bytes(bytes(raw))
    return path


def quantize_files(manifest, out, search):
    """Artifact and error-CSV bytes of `binq quantize` on a manifest."""
    argv = ["quantize", str(manifest), "-o", str(out / "m.bvq"), "--csv", str(out / "m.csv")]
    assert main(argv + ([] if search else ["--no-optimize"])) == 0
    return (out / "m.bvq").read_bytes(), (out / "m.csv").read_bytes()


def quantize_rows(manifest):
    return quantize_model(manifest)[2]


class TestWorkerPool:
    @pytest.mark.parametrize("search", [True, False])
    def test_same_bytes_as_one_process(self, tmp_path, monkeypatch, capsys, search):
        manifest = mixed_manifest(tmp_path)
        serial = quantize_files(manifest, tmp_path, search)
        built = force_pool(monkeypatch)
        assert quantize_files(manifest, tmp_path, search) == serial
        assert len(built) == 1
        assert built[0][0] == 2
        assert built[0][1].get_start_method() == "fork"
        assert multiprocessing.active_children() == []

    def test_results_in_manifest_order(self, tmp_path, monkeypatch):
        manifest = read_manifest(mixed_manifest(tmp_path))
        serial = quantize_model(manifest)
        done = tmp_path / "done.log"
        real = pipeline._quantize

        def first_finishes_last(matrix, *args, **kwargs):
            if matrix.name == "heavy":
                time.sleep(0.5)
            out = real(matrix, *args, **kwargs)
            with open(done, "a") as fh:
                fh.write(matrix.name + "\n")
            return out

        monkeypatch.setattr(pipeline, "_quantize", first_finishes_last)
        built = force_pool(monkeypatch)
        layers, report, rows = quantize_model(manifest)
        assert built and done.read_text().split()[-1] == "heavy"
        assert [l.name for l in layers] == [e.name for e in manifest.entries]
        assert rows == serial[2] and report == serial[1]
        for got, want in zip(layers, serial[0]):
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.signs, want.signs)
        assert multiprocessing.active_children() == []

    def test_failing_layer_is_named(self, tmp_path, monkeypatch, capsys):
        manifest = mixed_manifest(tmp_path, bad="outliers")
        built = force_pool(monkeypatch)
        with pytest.raises(ValueError, match="layer 'outliers': .*non-finite"):
            quantize_model(read_manifest(manifest))
        assert main(["quantize", str(manifest), "-o", str(tmp_path / "m.bvq")]) == 3
        assert "layer 'outliers'" in capsys.readouterr().err
        assert len(built) == 2
        assert multiprocessing.active_children() == []

    def test_one_core_or_one_layer_builds_no_pool(self, tmp_path, monkeypatch):
        manifest = read_manifest(mixed_manifest(tmp_path))
        built = force_pool(monkeypatch, cores=(0,))
        quantize_model(manifest)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        quantize_model(manifest)
        force_pool(monkeypatch, cores=range(8))
        quantize_model(ModelManifest(manifest.entries[:1]))
        assert built == []

    def test_daemonic_caller_runs_serially(self, tmp_path, monkeypatch):
        manifest = read_manifest(mixed_manifest(tmp_path))
        built = force_pool(monkeypatch)
        with multiprocessing.get_context("fork").Pool(1) as workers:
            rows = workers.apply(quantize_rows, (manifest,))
        assert rows == quantize_model(manifest)[2]
        assert len(built) == 1  # the parent's own run

    def test_tracing_caller_runs_serially(self, tmp_path, monkeypatch):
        import tracemalloc

        manifest = read_manifest(mixed_manifest(tmp_path))
        built = force_pool(monkeypatch)
        pooled = quantize_model(manifest)[2]
        tracemalloc.start()
        try:
            assert quantize_model(manifest)[2] == pooled
        finally:
            tracemalloc.stop()
        assert len(built) == 1  # the untraced run

    def test_tracing_caller_imports_no_pool_module(self, tmp_path):
        manifest = build_manifest(tmp_path, [("a", "language", gaussian_matrix(1)),
                                             ("b", "vision", gaussian_matrix(2))])
        script = f"""if True:
            import os, sys, tracemalloc
            os.sched_getaffinity = lambda pid: {{0, 1}}
            import binq
            tracemalloc.start()
            binq.quantize_model(binq.read_manifest({str(manifest)!r}))
            print(sorted({{"multiprocessing", "concurrent.futures.process"}} & set(sys.modules)))
        """
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120,
                             capture_output=True, text=True)
        assert out.stdout.splitlines()[-1] == "[]"

    def test_workers_bounded_by_free_memory(self, tmp_path, monkeypatch):
        manifest = read_manifest(mixed_manifest(tmp_path))
        largest = max(e.path.stat().st_size for e in manifest.entries)
        assert largest == 28 + 4 * 48 * 64
        peak = pipeline.WORKER_PEAK_PER_FILE_BYTE * largest
        built = force_pool(monkeypatch, cores=range(8))
        real = os.sysconf
        for free in (3 * peak - 1, 2 * peak - 1):
            pages = {"SC_PAGE_SIZE": 1, "SC_AVPHYS_PAGES": free}
            monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real(name))
            quantize_model(manifest)
        assert [args[0] for args in built] == [2]  # one worker runs in this process

    def test_dead_worker_is_a_domain_error(self, tmp_path, monkeypatch, capsys):
        manifest = mixed_manifest(tmp_path)
        real = pipeline._quantize

        def killed(matrix, *args, **kwargs):
            if matrix.name == "plain":
                os._exit(1)
            return real(matrix, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_quantize", killed)
        built = force_pool(monkeypatch)
        with pytest.raises(DomainError, match="worker died"):
            quantize_model(read_manifest(manifest))
        assert main(["quantize", str(manifest), "-o", str(tmp_path / "m.bvq")]) == 3
        assert "worker died" in capsys.readouterr().err
        assert len(built) == 2
        assert multiprocessing.active_children() == []

    def test_one_objective_per_layer_in_workers(self, tmp_path, monkeypatch):
        objectives = CallLog(tmp_path / "objectives.log")
        counting = objectives.wrap(so.LayerObjective)
        for module in (so, pipeline):
            monkeypatch.setattr(module, "LayerObjective", counting)
        manifest = read_manifest(mixed_manifest(tmp_path))
        built = force_pool(monkeypatch)
        for search in (False, True):
            quantize_model(manifest, QuantConfig(optimize_saliency=search))
            assert sorted(objectives.take()) == sorted(e.name for e in manifest.entries)
        assert len(built) == 2

    @pytest.mark.parametrize("search", [True, False])
    def test_csv_objective_is_the_dense_oracle_in_workers(self, tmp_path, monkeypatch,
                                                          search):
        built = force_pool(monkeypatch)
        csv_objective_case(tmp_path, monkeypatch, search)
        assert len(built) == 1


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
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                QuantConfig(alpha=alpha)


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
