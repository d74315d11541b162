import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from binq import (DomainError, FormatError, IoError, ModelManifest, QuantConfig,
                  QuantizedLayer, Role, WeightMatrix, quantize_layer, quantize_model, read_artifact,
                  read_layer_headers, read_manifest, reconstruct, reconstruction_error,
                  write_artifact, write_tensor)
import binq.pipeline as pipeline
import binq.saliency_optimizer as so
from binq.bit_packer import storage_report
from binq.cli import main
from binq.weight_stats import fit_gaussian
from conftest import (build_manifest, capped_layer, gaussian_matrix, golden_layers,
                      outlier_matrix, relative_error, score_layer)


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

    def test_float32_reconstruction_is_float64_rounded(self):
        mats = [outlier_matrix(3, shape=(40, 56), frac=0.03, magnitude=6.0),
                gaussian_matrix(5, shape=(33, 17)),
                WeightMatrix("z", Role.LANGUAGE, np.zeros((8, 8), np.float32))]
        for mat in mats:
            layer = quantize_layer(mat)
            expected = layer.dense().astype(np.float32)
            # Bit patterns, so that -0.0 and 0.0 differ.
            assert np.array_equal(reconstruct(layer).data.view(np.uint32),
                                  expected.view(np.uint32))

    def test_reconstruction_error_matches_objective(self):
        mat = outlier_matrix(2, shape=(64, 64), frac=0.02, magnitude=6.0)
        layer = quantize_layer(mat)
        ev = so.LayerObjective(mat, fit_gaussian(mat), layer.config)(layer.p_sal_used)
        error = reconstruction_error(mat, layer) / mat.squared_norm()
        assert error == pytest.approx(ev.j, rel=1e-12)

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
            quantize_model(manifest, tmp_path / "m.bvq", config)
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
        # Scoring the pinned share gathers each window once; the layer takes its groups.
        layer, j = pipeline._quantize(mat, config, None, score=True)
        assert sorted(gathered) == list(range(config.n_uns + 1))
        assert j == score_layer(mat, layer).j
        assert j == so.LayerObjective(mat, fit_gaussian(mat), config)(0.03).j
        gathered.clear()
        quantize_layer(mat, QuantConfig(p_sal_max=0.03))
        assert sorted(gathered) == list(range(config.n_uns + 1))  # a search gathers each once

    def test_unscored_pinned_share_takes_no_residual_or_norm(self, monkeypatch):
        calls = []
        real_residual, real_norm = so.shell_residual, WeightMatrix.squared_norm
        monkeypatch.setattr(so, "shell_residual",
                            lambda *a: calls.append("residual") or real_residual(*a))
        monkeypatch.setattr(WeightMatrix, "squared_norm",
                            lambda self: calls.append("norm") or real_norm(self))
        mat = outlier_matrix(3, shape=(48, 64), frac=0.02, magnitude=6.0)
        quantize_layer(mat, QuantConfig(p_sal_max=0.03, optimize_saliency=False))
        assert calls == []
        pipeline._quantize(mat, QuantConfig(p_sal_max=0.03, optimize_saliency=False), None,
                           score=True)
        assert calls.count("norm") == 1 and "residual" in calls  # the one evaluation

    @pytest.mark.parametrize("data", [np.random.default_rng(3).standard_normal((48, 64)),
                                      np.full((8, 16), -0.3)], ids=["outliers", "constant"])
    def test_scored_pinned_share_evaluates_once(self, monkeypatch, data):
        shares = []
        real = so.LayerObjective.__call__
        monkeypatch.setattr(so.LayerObjective, "__call__",
                            lambda self, p: shares.append(p) or real(self, p))
        mat = WeightMatrix("w", Role.LANGUAGE, data)
        config = QuantConfig(p_sal_max=0.03, optimize_saliency=False)
        layer, j = pipeline._quantize(mat, config, None, score=True)
        assert shares == [layer.p_sal_used] and j == score_layer(mat, layer).j

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
        assert layer.sign_bits.size == (counts[:5].sum() + 7) // 8

    def test_budget_not_exceeded(self):
        mat = gaussian_matrix(6, shape=(128, 128), sigma=0.02)
        layer = quantize_layer(mat)
        report = storage_report(layer)
        assert not report.over_budget

    def test_error_names_the_layer(self):
        # Shell means past 65504 overflow the binary16 scales.
        mat = gaussian_matrix(0, (8, 8), sigma=1e5, name="big")
        for search in (True, False):
            with pytest.raises(DomainError) as info:
                quantize_layer(mat, QuantConfig(optimize_saliency=search))
            message = str(info.value)
            assert message.startswith("layer 'big': ") and "65504" in message
            assert message.count("'big'") == 1

    def test_nonfinite_error_names_the_layer_once(self):
        mat = gaussian_matrix(0, (4, 4), name="w")
        mat.data[1, 2] = np.nan
        with pytest.raises(ValueError) as info:
            quantize_layer(mat)
        message = str(info.value)
        assert message.startswith("layer 'w': ") and "non-finite" in message
        assert message.count("'w'") == 1


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
        rows = quantize_model(manifest, tmp_path / "m.bvq",
                              QuantConfig(optimize_saliency=search))[1]
    assert dense_calls.take() == []
    layers = read_artifact(tmp_path / "m.bvq")
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
        layers, report, rows = quantized(manifest, tmp_path / "m.bvq", QuantConfig())
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
        layers, _, _ = quantized(manifest, tmp_path / "m.bvq")
        assert layers[0].p_sal_max == 0.03

    def test_deterministic_artifacts(self, tmp_path):
        from binq import write_artifact
        specs = [("a", "language", outlier_matrix(3, (20, 20), frac=0.02,
                                                  magnitude=6.0))]
        manifest = read_manifest(build_manifest(tmp_path, specs))
        layers1, _, _ = quantized(manifest, tmp_path / "q1.bvq")
        layers2, _, _ = quantized(manifest, tmp_path / "q2.bvq")
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
            quantize_model(manifest, tmp_path / "m.bvq")

    @pytest.mark.parametrize("search", [True, False])
    def test_csv_objective_is_the_dense_oracle(self, tmp_path, monkeypatch, search):
        one_core(monkeypatch)
        csv_objective_case(tmp_path, monkeypatch, search)

    def test_aggregate_is_size_weighted(self, tmp_path):
        specs = [("big", "language", gaussian_matrix(0, (64, 64), sigma=0.02)),
                 ("small", "language", gaussian_matrix(1, (8, 8), sigma=0.02))]
        manifest = read_manifest(build_manifest(tmp_path, specs))
        layers, report, _ = quantized(manifest, tmp_path / "m.bvq")
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


def quantized(manifest, path, config=None):
    """(layers read back from path, model report, CSV rows) of quantize_model."""
    report, rows = quantize_model(manifest, path, config)
    return read_artifact(path), report, rows


def quantize_files(manifest, out, search):
    """Artifact and error-CSV bytes of `binq quantize` on a manifest."""
    argv = ["quantize", str(manifest), "-o", str(out / "m.bvq"), "--csv", str(out / "m.csv")]
    assert main(argv + ([] if search else ["--no-optimize"])) == 0
    return (out / "m.bvq").read_bytes(), (out / "m.csv").read_bytes()


def quantize_rows(manifest, path):
    return quantize_model(manifest, path)[1]


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
        serial = quantized(manifest, tmp_path / "serial.bvq")
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
        layers, report, rows = quantized(manifest, tmp_path / "pooled.bvq")
        assert built and done.read_text().split()[-1] == "heavy"
        assert [l.name for l in layers] == [e.name for e in manifest.entries]
        assert rows == serial[2] and report == serial[1]
        for got, want in zip(layers, serial[0]):
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.sign_bits, want.sign_bits)
        assert multiprocessing.active_children() == []

    def test_failing_layer_is_named(self, tmp_path, monkeypatch, capsys):
        manifest = mixed_manifest(tmp_path, bad="outliers")
        built = force_pool(monkeypatch)
        with pytest.raises(ValueError, match="layer 'outliers': .*non-finite") as info:
            quantize_model(read_manifest(manifest), tmp_path / "m.bvq")
        assert str(info.value).count("'outliers'") == 1
        assert main(["quantize", str(manifest), "-o", str(tmp_path / "m.bvq")]) == 3
        assert "layer 'outliers'" in capsys.readouterr().err
        assert len(built) == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("pooled", [True, False])
    def test_failed_quantize_leaves_nothing(self, tmp_path, monkeypatch, capsys, pooled):
        """A non-finite middle layer exits 3 with the records before it already
        written; no artifact and no temporary file is left, and an artifact
        already at the output path keeps its bytes."""
        good, broken, out = tmp_path / "good", tmp_path / "broken", tmp_path / "out"
        for folder in (good, broken, out):
            folder.mkdir()
        manifest = mixed_manifest(broken, bad="outliers")  # the third of five layers
        built = force_pool(monkeypatch) if pooled else one_core(monkeypatch)
        argv = ["quantize", str(manifest), "-o", str(out / "m.bvq"), "--csv", str(out / "m.csv")]
        assert main(argv) == 3
        assert "layer 'outliers'" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["m.csv"]  # opened first, still empty
        earlier = quantize_files(mixed_manifest(good), out, True)
        assert main(argv) == 3
        assert sorted(os.listdir(out)) == ["m.bvq", "m.csv"]
        assert ((out / "m.bvq").read_bytes(), (out / "m.csv").read_bytes()) == earlier
        assert built is None or len(built) == 3
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("pooled", [True, False])
    def test_tensor_gone_after_manifest_is_io_error(self, tmp_path, monkeypatch, capsys,
                                                    pooled):
        """A tensor deleted after the manifest is read raises IoError naming it, and
        `binq quantize` exits 2; no artifact, temporary file or child process is left."""
        out = tmp_path / "out"
        out.mkdir()
        path = mixed_manifest(tmp_path)
        gone = read_manifest(path).entries[2].path
        tensor = gone.read_bytes()
        built = force_pool(monkeypatch) if pooled else one_core(monkeypatch)

        def read_then_delete(manifest):
            gone.write_bytes(tensor)
            entries = read_manifest(manifest)
            gone.unlink()
            return entries

        monkeypatch.setattr("binq.tensor_store.read_manifest", read_then_delete)
        with pytest.raises(IoError, match=f"cannot read {gone}"):
            quantize_model(read_then_delete(path), out / "m.bvq")
        argv = ["quantize", str(path), "-o", str(out / "m.bvq"), "--csv", str(tmp_path / "m.csv")]
        assert main(argv) == 2
        assert f"cannot read {gone}" in capsys.readouterr().err
        assert os.listdir(out) == []
        assert built is None or built == []
        assert multiprocessing.active_children() == []

    def test_window_bounds_the_layers_in_flight(self, tmp_path, monkeypatch, capsys):
        """Two workers at one layer each: a window of 2 over five layers, so the parent
        waits on a full window three times; the bytes are the serial run's."""
        import concurrent.futures.process as process

        manifest = mixed_manifest(tmp_path)
        serial = quantize_files(manifest, tmp_path, True)
        built = force_pool(monkeypatch)
        monkeypatch.setattr(pipeline, "WINDOW_PER_WORKER", 1)
        submitted, written, in_flight = [], [], []
        real_submit, real_write = process.ProcessPoolExecutor.submit, pipeline._write_records

        def submit(pool, fn, entry, *args):
            submitted.append(entry.name)
            in_flight.append(len(submitted) - len(written))
            return real_submit(pool, fn, entry, *args)

        def write_records(path, count, records):
            def counted():
                for record in records:
                    yield record
                    written.append(record)  # asked for the next: this one is written
            real_write(path, count, counted())

        monkeypatch.setattr(process.ProcessPoolExecutor, "submit", submit)
        monkeypatch.setattr(pipeline, "_write_records", write_records)
        assert quantize_files(manifest, tmp_path, True) == serial
        assert [args[0] for args in built] == [2]
        assert len(submitted) == len(written) == 5
        assert in_flight == [1, 2, 2, 2, 2]  # at most the window, and the window is reached
        assert multiprocessing.active_children() == []

    def test_one_core_or_one_layer_builds_no_pool(self, tmp_path, monkeypatch):
        manifest = read_manifest(mixed_manifest(tmp_path))
        built = force_pool(monkeypatch, cores=(0,))
        out = tmp_path / "m.bvq"
        quantize_model(manifest, out)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        quantize_model(manifest, out)
        force_pool(monkeypatch, cores=range(8))
        quantize_model(ModelManifest(manifest.entries[:1]), out)
        assert built == []

    def test_daemonic_caller_runs_serially(self, tmp_path, monkeypatch):
        manifest = read_manifest(mixed_manifest(tmp_path))
        built = force_pool(monkeypatch)
        with multiprocessing.get_context("fork").Pool(1) as workers:
            rows = workers.apply(quantize_rows, (manifest, tmp_path / "daemon.bvq"))
        assert rows == quantize_rows(manifest, tmp_path / "m.bvq")
        assert len(built) == 1  # the parent's own run

    def test_tracing_caller_runs_serially(self, tmp_path, monkeypatch):
        import tracemalloc

        manifest = read_manifest(mixed_manifest(tmp_path))
        built = force_pool(monkeypatch)
        pooled = quantize_rows(manifest, tmp_path / "pooled.bvq")
        tracemalloc.start()
        try:
            assert quantize_rows(manifest, tmp_path / "traced.bvq") == pooled
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
            binq.quantize_model(binq.read_manifest({str(manifest)!r}), {str(tmp_path / "m.bvq")!r})
            print(sorted({{"multiprocessing", "concurrent.futures.process"}} & set(sys.modules)))
        """
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120,
                             capture_output=True, text=True)
        assert out.stdout.splitlines()[-1] == "[]"

    def test_workers_bounded_by_free_memory(self, tmp_path, monkeypatch):
        """Free memory is MemAvailable of /proc/meminfo; without the file or
        the field it is the free physical pages, SC_AVPHYS_PAGES."""
        manifest = read_manifest(mixed_manifest(tmp_path))
        largest = max(e.path.stat().st_size for e in manifest.entries)
        assert largest == 28 + 4 * 48 * 64
        peak = pipeline.WORKER_PEAK_PER_FILE_BYTE * largest
        built = force_pool(monkeypatch, cores=range(8))
        meminfo = tmp_path / "meminfo"
        monkeypatch.setattr(pipeline, "PROC_MEMINFO", meminfo)
        real = os.sysconf
        for field in (True, False):
            for free in (3 * peak - 1, 2 * peak - 1):
                # MemAvailable is in kB; the free pages bound the pool only without it.
                meminfo.write_text(f"MemTotal: {8 * free} kB\nMemFree: 1 kB\n"
                                   + (f"MemAvailable: {free // 1024} kB\n" if field else ""))
                pages = {"SC_PAGE_SIZE": 1, "SC_AVPHYS_PAGES": 8 * free if field else free}
                monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real(name))
                quantize_model(manifest, tmp_path / "m.bvq")
        meminfo.unlink()
        quantize_model(manifest, tmp_path / "m.bvq")  # no file: the pages, 2 * peak - 1
        # 3 * peak - 1 holds two workers; 2 * peak - 1 one, which runs in this process.
        assert [args[0] for args in built] == [2, 2]

    def test_workers_bounded_by_cgroup_v2_limits(self, tmp_path, monkeypatch):
        """cpu.max caps the workers at ceil(quota / period) and memory.max less
        memory.current bounds free memory, the tightest of the process's cgroup
        and its ancestors; "max", a missing file or no v2 membership is no cap."""
        manifest = read_manifest(mixed_manifest(tmp_path))
        peak = pipeline.WORKER_PEAK_PER_FILE_BYTE * max(e.path.stat().st_size
                                                        for e in manifest.entries)
        root, proc = tmp_path / "cgroup", tmp_path / "proc_cgroup"
        own = root / "machine.slice" / "job"
        own.mkdir(parents=True)
        monkeypatch.setattr(pipeline, "CGROUP_ROOT", root)
        monkeypatch.setattr(pipeline, "PROC_CGROUP", proc)
        built = force_pool(monkeypatch, cores=range(8))
        workers = lambda: pipeline._workers(manifest.entries, *pipeline._usable())

        proc.write_text("1:cpu:/\n0::/machine.slice/job\n")
        assert workers() == 5  # no limit files: one worker per layer
        (own / "cpu.max").write_text("max 100000\n")
        (own / "memory.max").write_text("max\n")
        assert workers() == 5
        (own / "cpu.max").write_text("250000 100000\n")
        assert workers() == 3
        (own.parent / "cpu.max").write_text("150000 100000\n")
        assert workers() == 2
        (own.parent / "cpu.max").write_text("max 100000\n")
        (own.parent / "memory.max").write_text(f"{3 * peak + 1000}\n")
        (own.parent / "memory.current").write_text("1000\n")
        assert workers() == 3
        (own / "memory.max").write_text(f"{100 * peak}\n")
        (own / "memory.current").write_text(f"{98 * peak}\n")
        assert workers() == 2
        quantize_model(manifest, tmp_path / "m.bvq")
        assert [args[0] for args in built] == [2]
        (own / "memory.current").write_text(f"{99 * peak}\n")
        assert workers() == 1
        proc.write_text("1:cpu:/\n")  # cgroup v1 only
        assert workers() == 5
        proc.write_text("0::/\n")  # a namespace root: its own files only
        (root / "cpu.max").write_text("100000 100000\n")
        assert workers() == 1
        monkeypatch.setattr(pipeline, "PROC_CGROUP", tmp_path / "missing")
        assert workers() == 5

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
            quantize_model(read_manifest(manifest), tmp_path / "m.bvq")
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
            quantize_model(manifest, tmp_path / "m.bvq", QuantConfig(optimize_saliency=search))
            assert sorted(objectives.take()) == sorted(e.name for e in manifest.entries)
        assert len(built) == 2

    @pytest.mark.parametrize("search", [True, False])
    def test_csv_objective_is_the_dense_oracle_in_workers(self, tmp_path, monkeypatch,
                                                          search):
        built = force_pool(monkeypatch)
        csv_objective_case(tmp_path, monkeypatch, search)
        assert len(built) == 1


def threaded(monkeypatch, log, cores=2):
    """Fit every layer, whatever its size, on `cores` threads, and log the process id
    and thread count of each set of group fits to `log`."""
    real = so._run

    def logged(jobs, threads):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {threads}\n")
        return real(jobs, threads)

    monkeypatch.setattr(so, "_run", logged)
    monkeypatch.setattr(pipeline, "THREADED_WEIGHTS", 0)
    monkeypatch.setattr(pipeline, "_usable", lambda: (cores, math.inf))


def thread_log(log) -> tuple[set, set]:
    """(process ids, thread counts) that `log` holds, and empty it."""
    lines = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    log.unlink()
    return {pid for pid, _ in lines}, {threads for _, threads in lines}


class TestThreads:
    """A layer fits its groups on the cores the pool leaves idle, with the same bytes."""

    @pytest.mark.parametrize("search", [True, False])
    def test_same_bytes_as_one_thread(self, tmp_path, monkeypatch, search):
        manifest, log = mixed_manifest(tmp_path), tmp_path / "threads.log"
        one_core(monkeypatch)
        serial = quantize_files(manifest, tmp_path, search)
        threaded(monkeypatch, log)
        monkeypatch.setattr(pipeline, "_workers", lambda *args: 1)
        before = threading.active_count()
        assert quantize_files(manifest, tmp_path, search) == serial
        assert threading.active_count() == before
        assert thread_log(log) == ({os.getpid()}, {2})

    def test_error_in_a_thread_names_the_layer(self, tmp_path, monkeypatch, capsys):
        """A binary16 overflow raised in a group fit surfaces as it would on one
        thread: a DomainError naming the layer once, exit code 3; no thread is left."""
        log, before = tmp_path / "threads.log", threading.active_count()
        threaded(monkeypatch, log)
        big = gaussian_matrix(0, (64, 64), sigma=1e5, name="big")
        for search in (True, False):
            with pytest.raises(DomainError) as info:
                quantize_layer(big, QuantConfig(optimize_saliency=search))
            message = str(info.value)
            assert message.startswith("layer 'big': ") and "65504" in message
            assert message.count("'big'") == 1
            assert threading.active_count() == before
        quantize_layer(gaussian_matrix(0, (64, 64), name="fine"))
        assert threading.active_count() == before
        assert thread_log(log) == ({os.getpid()}, {2})
        manifest = build_manifest(tmp_path, [("big", "language", big)])
        assert main(["quantize", str(manifest), "-o", str(tmp_path / "m.bvq")]) == 3
        err = capsys.readouterr().err
        assert "layer 'big'" in err and "65504" in err and err.count("'big'") == 1
        assert thread_log(log)[1] == {2}

    def test_pool_workers_start_no_threads(self, tmp_path, monkeypatch):
        """On two cores two workers leave no core idle: each fits on one thread,
        while one process on the same cores fits on both."""
        manifest, log = read_manifest(mixed_manifest(tmp_path)), tmp_path / "threads.log"
        threaded(monkeypatch, log)
        built = force_pool(monkeypatch)
        quantize_model(manifest, tmp_path / "m.bvq")
        pids, threads = thread_log(log)
        assert len(built) == 1 and os.getpid() not in pids and threads == {1}
        monkeypatch.setattr(pipeline, "_workers", lambda *args: 1)
        quantize_model(manifest, tmp_path / "m.bvq")
        assert thread_log(log) == ({os.getpid()}, {2}) and len(built) == 1

    def test_tracing_process_fits_on_one_thread(self, tmp_path, monkeypatch):
        import tracemalloc

        log = tmp_path / "threads.log"
        threaded(monkeypatch, log)
        mat = gaussian_matrix(3, (64, 64), sigma=0.02)
        quantize_layer(mat)
        assert thread_log(log)[1] == {2}
        tracemalloc.start()
        try:
            quantize_layer(mat)
        finally:
            tracemalloc.stop()
        assert thread_log(log)[1] == {1}

    def test_daemonic_process_fits_on_one_thread(self, tmp_path, monkeypatch):
        """A daemon is a worker of its caller's own pool: it fits each layer on one
        thread, as a model or alone, with the bytes of a threaded run."""
        manifest, log = read_manifest(mixed_manifest(tmp_path)), tmp_path / "threads.log"
        threaded(monkeypatch, log)
        monkeypatch.setattr(pipeline, "_workers", lambda *args: 1)
        rows = quantize_rows(manifest, tmp_path / "m.bvq")
        assert thread_log(log) == ({os.getpid()}, {2})
        with multiprocessing.get_context("fork").Pool(1) as workers:
            assert workers.apply(quantize_rows, (manifest, tmp_path / "daemon.bvq")) == rows
            workers.apply(quantize_layer, (manifest.entries[0].load(),))
        pids, threads = thread_log(log)
        assert os.getpid() not in pids and threads == {1}
        assert (tmp_path / "daemon.bvq").read_bytes() == (tmp_path / "m.bvq").read_bytes()

    def test_thread_count_rule(self, monkeypatch):
        """The usable cores, or a worker's share of them, at most LAYER_THREADS; one
        below THREADED_WEIGHTS weights."""
        big, small = gaussian_matrix(3, (1024, 512)), gaussian_matrix(3, (512, 512))
        assert small.data.size < pipeline.THREADED_WEIGHTS == big.data.size
        monkeypatch.setattr(pipeline, "_usable", lambda: (8, math.inf))
        assert [pipeline._threads(big, cores) for cores in (None, 8, 2, 1)] == [2, 2, 2, 1]
        assert pipeline._threads(small, None) == 1
        monkeypatch.setattr(pipeline, "_usable", lambda: (1, math.inf))
        assert pipeline._threads(big, None) == 1


def test_eight_bit_codes_peak_below_the_worker_bound():
    """A searched layer at --n-bits 8 peaks below WORKER_PEAK_PER_FILE_BYTE times
    its tensor file under tracemalloc (one thread): salient codes are assigned a
    chunk of members at a time. A members x 256 distance matrix peaked at 23.9."""
    import tracemalloc

    m, n = 1024, 1024
    mat = WeightMatrix("t", Role.LANGUAGE,
                       0.02 * np.random.default_rng(0).standard_t(5, (m, n)))
    tracemalloc.start()
    try:
        layer = quantize_layer(mat, QuantConfig(n_bits=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert layer.salient.codes.max() > 127
    assert peak < pipeline.WORKER_PEAK_PER_FILE_BYTE * (28 + 4 * m * n), peak / (28 + 4 * m * n)


def test_parent_memory_is_flat_in_the_layer_count(tmp_path):
    """quantize_model writes each layer's record as it comes and keeps no
    layer: under tracemalloc, which runs the layers in this process, eight
    same-shape layers peak within 10% of two (the layers held until a joined
    write made it 1.68 times)."""
    import tracemalloc

    rng = np.random.default_rng(5)
    specs = [(f"l{i}", "language", WeightMatrix(f"l{i}", Role.LANGUAGE,
                                                0.02 * rng.standard_t(5, (256, 256))))
             for i in range(8)]
    entries = read_manifest(build_manifest(tmp_path, specs)).entries
    config, peaks = QuantConfig(optimize_saliency=False), []
    tracemalloc.start()
    try:
        for count in (2, 8):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            quantize_model(ModelManifest(entries[:count]), tmp_path / f"{count}.bvq", config)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert len(read_layer_headers(tmp_path / "8.bvq")) == 8
    assert peaks[1] <= 1.1 * peaks[0], peaks


class TestQuantConfigValidation:
    def test_defaults_valid(self):
        QuantConfig()

    def test_rejects_zero_subsets(self):
        with pytest.raises(DomainError):
            QuantConfig(n_uns=0)

    def test_rejects_subsets_beyond_index_width(self):
        # 3-bit index codes address the salient group and five shells.
        with pytest.raises(DomainError):
            QuantConfig(n_uns=6)
        QuantConfig(n_uns=5)

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
    """Artifact digest and error-CSV objectives of the golden layers.

    Frozen values; any change to the arithmetic or the file format shows here.
    """
    layers, rows = golden_layers(tmp_path)
    path = tmp_path / "golden.bvq"
    write_artifact(layers, path)
    assert [r["p_sal_used"] for r in rows] == [0.02128, 0.01, 0.0]
    assert [r["J"] for r in rows] == [0.02965584063898835, 0.031770632309324004, 0.0]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "497b0aee918659988fa406d20e304422681e7fd4791f84120f943f363aa225c2")


def refused_as_an_old_version(path, version, capsys):
    """Both readers and `binq report` (exit 2) refuse the file, name its version and
    say to re-quantize."""
    for reader in (read_artifact, read_layer_headers):
        with pytest.raises(FormatError, match=rf"unsupported version {version} \(.*re-quantize"):
            reader(path)
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"unsupported version {version} (" in err and "re-quantize" in err


def test_version_1_artifact_refused(capsys):
    """tests/data/golden_v1.bvq holds the golden layers as format version 1
    wrote them, with no group counts and no CRC."""
    refused_as_an_old_version(Path(__file__).with_name("data") / "golden_v1.bvq", 1, capsys)


def test_version_2_artifact_refused(capsys):
    """tests/data/golden_v2.bvq holds the golden layers as format version 2 wrote
    them (the digest below), with the group code lengths, a solo byte, the scale and
    index widths and a length before each stream, which version 3 derives instead."""
    v2 = Path(__file__).with_name("data") / "golden_v2.bvq"
    assert hashlib.sha256(v2.read_bytes()).hexdigest() == (
        "df83d9f630a76cfc80f4220cc1070e08480e9cb49af22790607bf66c533d3d38")
    refused_as_an_old_version(v2, 2, capsys)
