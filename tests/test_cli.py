import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import binq
from binq import QuantConfig, write_attention, write_tensor
from binq.cli import _config_from_args, build_parser, main
from binq.tensor_store import AttentionTensor
from conftest import (gaussian_matrix, golden_layers, outlier_matrix,
                      straddling_outlier_matrix)


def make_manifest(tmp_path, specs):
    doc = []
    for name, role, matrix in specs:
        write_tensor(matrix, tmp_path / f"{name}.bvw")
        doc.append({"name": name, "path": f"{name}.bvw", "role": role})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_analyze(tmp_path):
    manifest = make_manifest(tmp_path, [
        ("a", "language", gaussian_matrix(0, (32, 32), sigma=0.02)),
        ("b", "vision", outlier_matrix(1, (32, 32), frac=0.02, magnitude=6.0)),
    ])
    out = tmp_path / "stats.csv"
    assert main(["analyze", manifest, "-o", str(out)]) == 0
    rows = read_csv(out)
    assert [r["name"] for r in rows] == ["a", "b"]
    assert float(rows[0]["sigma"]) > 0
    assert float(rows[1]["outlier_frac_3sigma"]) > 0


def test_analyze_peaks_below_one_and_a_half_tensor_files(tmp_path):
    """`binq analyze` makes no layer-sized float64 copy: the histogram bins the
    float32 data against float64 edges a chunk at a time, and the outlier count
    runs a chunk at a time. On a 1024x1024 Student-t layer its traced peak is
    1.27 times the tensor file (5.0 with the copies; numpy 2.4). It frees each
    layer before it reads the next, so a manifest of two such layers peaks as
    one does (2.0 times the file when the previous layer stayed alive)."""
    import tracemalloc

    rng = np.random.default_rng(0)
    layers = [(name, "language", binq.WeightMatrix(name, "language",
                                                   0.02 * rng.standard_t(5, (1024, 1024))))
              for name in ("t", "u")]
    for count in (1, 2):
        folder = tmp_path / str(count)
        folder.mkdir()
        manifest = make_manifest(folder, layers[:count])
        out = folder / "stats.csv"
        tracemalloc.start()
        try:
            assert main(["analyze", manifest, "-o", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (folder / "t.bvw").stat().st_size
        assert peak < 1.5 * size, (count, peak / size)
        assert [row["name"] for row in read_csv(out)] == ["t", "u"][:count]


def test_quantize_report_roundtrip(tmp_path, capsys):
    manifest = make_manifest(tmp_path, [
        ("lang", "language", outlier_matrix(0, (48, 48), frac=0.02, magnitude=6.0)),
        ("vis", "vision", gaussian_matrix(1, (32, 48), sigma=0.05)),
    ])
    artifact = tmp_path / "model.bvq"
    assert main(["quantize", manifest, "-o", str(artifact)]) == 0
    assert artifact.exists()
    rows = read_csv(tmp_path / "model.csv")
    assert len(rows) == 2
    assert float(rows[0]["relative_error"]) < 1.0
    capsys.readouterr()

    report_csv = tmp_path / "report.csv"
    assert main(["report", str(artifact), "--csv", "-o", str(report_csv)]) == 0
    report_rows = read_csv(report_csv)
    assert report_rows[-1]["layer"] == "TOTAL"
    # 48x48 language layer: 1 + p_cap + (5*16 + 16*48)/48^2
    expected = 1.0 + 0.01 + (5 * 16 + 16 * 48) / 48 ** 2
    assert float(report_rows[0]["L_model"]) == pytest.approx(expected, abs=1e-4)

    assert main(["report", str(artifact)]) == 0
    table = capsys.readouterr().out
    assert "L_i_formula" in table and "TOTAL" in table


def test_quantize_flags(tmp_path):
    manifest = make_manifest(tmp_path, [
        ("l", "language", gaussian_matrix(2, (24, 24), sigma=0.02))])
    artifact = tmp_path / "m.bvq"
    assert main(["quantize", manifest, "-o", str(artifact), "--n-uns", "3",
                 "--p-sal-max", "0.02", "--no-optimize"]) == 0
    from binq import read_artifact
    (layer,) = read_artifact(artifact)
    assert layer.config.n_uns == 3
    assert layer.p_sal_used == 0.02


def test_every_config_field_is_a_quantize_flag():
    """Each `binq quantize` flag but the paths sets one QuantConfig field, and each field has one."""
    parser = build_parser()
    quantize = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices["quantize"]
    base = ["quantize", "m.json", "-o", "m.bvq"]
    default = asdict(_config_from_args(parser.parse_args(base)))
    flagged = set()
    for action in quantize._actions:
        if not action.option_strings or action.dest in ("help", "output", "csv"):
            continue
        value = [] if action.nargs == 0 else [
            str(action.default - 1) if action.type is int else "0.5"]
        config = asdict(_config_from_args(parser.parse_args(
            base + [action.option_strings[-1], *value])))
        changed = {name for name, v in config.items() if v != default[name]}
        assert len(changed) == 1, action.dest
        flagged |= changed
    assert flagged == {f.name for f in fields(QuantConfig)}


def test_sweep(tmp_path):
    manifest = make_manifest(tmp_path, [
        ("s", "language", straddling_outlier_matrix(0, shape=(64, 64)))])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", manifest, "--thresholds", "0.01,0.05,0.10",
                 "-o", str(out)]) == 0
    rows = read_csv(out)
    assert [r["threshold"] for r in rows] == ["0.01", "0.05", "0.1"]
    assert float(rows[1]["J"]) < float(rows[0]["J"])


def test_sweep_thresholds_that_do_not_parse_exit_2(tmp_path, capsys):
    manifest = make_manifest(tmp_path, [("s", "language", gaussian_matrix(0, (8, 8)))])
    with pytest.raises(SystemExit) as info:
        main(["sweep", manifest, "--thresholds", "0.01,abc"])
    assert info.value.code == 2 and "--thresholds" in capsys.readouterr().err
    for thresholds in ("0.01,nan", "0.01,1.5", "0"):  # they parse, outside (0, 1)
        assert main(["sweep", manifest, "--thresholds", thresholds]) == 3
        assert "outside (0, 1)" in capsys.readouterr().err


def test_prune_scores(tmp_path):
    tensors = []
    for j in range(4):
        img = np.array([[0.05, 0.15, 0.1, 0.1]], np.float32)
        sums = np.array([[0.3, 0.4, 0.2, 0.1]], np.float32)
        tensors.append(AttentionTensor(layer_index=j, group_sums=sums,
                                       image_scores=img,
                                       group_sizes=(2, 4, 2, 1)))
    path = tmp_path / "att.bva"
    write_attention(tensors, path)
    out = tmp_path / "prune.json"
    assert main(["prune-scores", str(path), "--ratio", "0.5",
                 "--start-layer", "2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [d["layer"] for d in doc] == [2, 3]
    assert abs(doc[0]["lambda"] - 0.1) < 1e-7
    assert doc[0]["retained"] == [1, 2]


def test_exit_code_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.bvq"
    bad.write_bytes(b"garbage")
    assert main(["report", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "quantize", "report", "sweep",
                                     "prune-scores"])
def test_unopenable_output_exits_2(tmp_path, capsys, command):
    """An output path in a missing directory is an IoError naming the path."""
    manifest = make_manifest(tmp_path, [("l", "language", gaussian_matrix(0, (8, 8)))])
    artifact, attention = tmp_path / "m.bvq", tmp_path / "a.bva"
    assert main(["quantize", manifest, "-o", str(artifact)]) == 0
    write_attention([AttentionTensor(layer_index=0,
                                     group_sums=np.full((1, 4), 0.25, np.float32),
                                     image_scores=np.full((1, 2), 0.125, np.float32),
                                     group_sizes=(1, 2, 1, 1))], attention)
    bad = str(tmp_path / "missing" / "out")
    argv = {"analyze": ["analyze", manifest, "-o", bad],
            "quantize": ["quantize", manifest, "-o", str(tmp_path / "q.bvq"), "--csv", bad],
            "report": ["report", str(artifact), "-o", bad],
            "sweep": ["sweep", manifest, "--thresholds", "0.01", "-o", bad],
            "prune-scores": ["prune-scores", str(attention), "--ratio", "0.5", "-o", bad]}
    capsys.readouterr()
    assert main(argv[command]) == 2
    assert f"error: cannot write {bad}" in capsys.readouterr().err
    assert not (tmp_path / "q.bvq").exists()


def test_failed_quantize_keeps_the_error_csv(tmp_path, capsys, monkeypatch):
    """The error CSV is opened before quantizing but emptied only once the
    artifact is written; a rerun over a longer CSV leaves none of it."""
    manifest = make_manifest(tmp_path, [("l", "language", gaussian_matrix(0, (8, 8)))])
    artifact, errors = tmp_path / "m.bvq", tmp_path / "m.csv"
    errors.write_text("an earlier run's rows\n" * 100)
    assert main(["quantize", manifest, "-o", str(artifact)]) == 0
    rows = read_csv(errors)
    assert [r["layer"] for r in rows] == ["l"]

    def fail(manifest, path, config=None):
        raise binq.DomainError("no layers today")

    monkeypatch.setattr(binq.pipeline, "quantize_model", fail)
    before = errors.read_bytes()
    assert main(["quantize", manifest, "-o", str(tmp_path / "x.bvq"), "--csv", str(errors)]) == 3
    assert "no layers today" in capsys.readouterr().err
    assert errors.read_bytes() == before
    assert not (tmp_path / "x.bvq").exists()


def test_error_csv_to_devnull(tmp_path, capsys):
    """An error CSV that is no regular file, such as os.devnull, is written to
    and not truncated, which it cannot be: the run exits 0 (the truncation raised
    an uncaught OSError)."""
    manifest = make_manifest(tmp_path, [("l", "language", gaussian_matrix(0, (8, 8)))])
    artifact = tmp_path / "m.bvq"
    assert main(["quantize", manifest, "-o", str(artifact), "--csv", os.devnull]) == 0
    assert f"error CSV at {os.devnull}" in capsys.readouterr().out
    assert [layer.name for layer in binq.read_artifact(artifact)] == ["l"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["l.bvw", "m.bvq", "manifest.json"]


@pytest.mark.parametrize("form", ["csv_flag", "default_csv", "symlink"])
def test_error_csv_at_the_artifact_path_refused(tmp_path, capsys, form):
    """An error CSV path that is the artifact's would be replaced by the artifact.
    quantize refuses it before quantizing, with exit 2, and writes nothing: an
    existing file there stays as it was."""
    manifest = make_manifest(tmp_path, [("l", "language", gaussian_matrix(0, (8, 8)))])
    target = tmp_path / "out.csv"
    target.write_bytes(b"an earlier file\n")
    (tmp_path / "link.csv").symlink_to(target)
    argv = {"csv_flag": ["-o", str(target), "--csv", str(target)],
            "default_csv": ["-o", str(target)],
            "symlink": ["-o", str(target), "--csv", str(tmp_path / "link.csv")]}[form]
    before = sorted(tmp_path.iterdir())
    assert main(["quantize", manifest, *argv]) == 2
    assert "is the artifact's" in capsys.readouterr().err
    assert target.read_bytes() == b"an earlier file\n"
    assert sorted(tmp_path.iterdir()) == before


def test_exit_code_domain_error(tmp_path, capsys):
    manifest = make_manifest(tmp_path, [
        ("l", "language", gaussian_matrix(0, (8, 8)))])
    for flags in (["--p-sal-max", "2.0"], ["--alpha", "nan", "--no-optimize"]):
        assert main(["quantize", manifest, "-o", str(tmp_path / "x.bvq"), *flags]) == 3
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.bvq").exists()


def test_overflowing_scales_refused_at_quantize(tmp_path, capsys):
    # Weights near 1e5 overflow the binary16 shell scalars and row scales to inf.
    manifest = make_manifest(tmp_path, [
        ("big", "language", gaussian_matrix(0, (8, 8), sigma=1e5))])
    for flags in ([], ["--no-optimize"]):
        assert main(["quantize", manifest, "-o", str(tmp_path / "x.bvq"), *flags]) == 3
        err = capsys.readouterr().err
        assert "layer 'big'" in err and "binary16" in err and "65504" in err
        assert err.count("'big'") == 1
        assert not (tmp_path / "x.bvq").exists()


@pytest.mark.parametrize("search", [True, False], ids=["search", "pinned"])
def test_degenerate_layers_through_every_command(tmp_path, capsys, search):
    """One-weight, constant and all-zero layers fit sigma = 0 and go through quantize,
    report, sweep and analyze beside an ordinary layer: each is one exact shell, the
    all-zero one scores J = 0 (not 0/0), and each constant one fits with KL 0."""
    manifest = make_manifest(tmp_path, [
        ("gauss", "language", gaussian_matrix(0, (32, 32), sigma=0.02)),
        ("one", "vision", binq.WeightMatrix("one", "vision", np.full((1, 1), -0.75))),
        ("flat", "adaptor", binq.WeightMatrix("flat", "adaptor", np.full((4, 4), 1.5))),
        ("zero", "language", binq.WeightMatrix("zero", "language", np.zeros((64, 64))))])
    artifact, errors = tmp_path / "m.bvq", tmp_path / "m.csv"
    flags = [] if search else ["--no-optimize"]
    assert main(["quantize", manifest, "-o", str(artifact), *flags]) == 0
    rows = {r["layer"]: r for r in read_csv(errors)}
    assert [rows[name]["J"] for name in ("one", "flat", "zero")] == ["0", "0", "0"]
    assert all(rows[name]["p_sal_used"] == "0" for name in ("one", "flat", "zero"))
    layers = binq.read_artifact(artifact)
    assert [(l.name, l.m, l.n) for l in layers] == [
        ("gauss", 32, 32), ("one", 1, 1), ("flat", 4, 4), ("zero", 64, 64)]
    for layer, value in zip(layers[1:], (-0.75, 1.5, 0.0)):
        assert np.array_equal(layer.dense(), np.full((layer.m, layer.n), value))
    report = tmp_path / "report.csv"
    assert main(["report", str(artifact), "--csv", "-o", str(report)]) == 0
    assert [r["layer"] for r in read_csv(report)] == ["gauss", "one", "flat", "zero", "TOTAL"]

    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", manifest, "--thresholds", "0.01,0.05", "-o", str(sweep)]) == 0
    js = {(r["layer"], r["threshold"]): r["J"] for r in read_csv(sweep)}
    assert len(js) == 8 and js["zero", "0.01"] == js["zero", "0.05"] == "0"

    stats = tmp_path / "stats.csv"
    assert main(["analyze", manifest, "-o", str(stats)]) == 0
    got = {r["name"]: r for r in read_csv(stats)}
    for name, mu in (("one", "-0.75"), ("flat", "1.5"), ("zero", "0")):
        assert (got[name]["mu"], got[name]["sigma"], got[name]["kl_nats"],
                got[name]["outlier_frac_3sigma"]) == (mu, "0", "0", "0")
    assert float(got["gauss"]["kl_nats"]) > 0
    assert capsys.readouterr().err == ""


def test_report_decodes_no_stream(tmp_path, monkeypatch):
    """The report of the golden layers' file decodes no stream and prints the
    frozen CSV in tests/data."""
    want = (Path(__file__).with_name("data") / "golden_report.csv").read_bytes()
    layers, _ = golden_layers(tmp_path)
    path, out = tmp_path / "golden.bvq", tmp_path / "report.csv"
    binq.write_artifact(layers, path)

    def no_decoding(*args, **kwargs):
        raise AssertionError("report decoded a stream")

    monkeypatch.setattr(binq.bit_packer, "unpack_stream", no_decoding)
    assert main(["report", str(path), "--csv", "-o", str(out)]) == 0
    assert out.read_bytes() == want


def test_import_and_report_load_no_process_pool(tmp_path):
    manifest = make_manifest(tmp_path, [("l", "language", gaussian_matrix(0, (16, 16)))])
    artifact = tmp_path / "m.bvq"
    assert main(["quantize", manifest, "-o", str(artifact)]) == 0
    script = ("import sys, binq, binq.cli\n"
              "heavy = ('multiprocessing', 'concurrent.futures', 'concurrent.futures.process',\n"
              "         'statistics')\n"
              "loaded = lambda: sorted(m for m in heavy if m in sys.modules)\n"
              "assert loaded() == [], loaded()\n"
              f"assert binq.cli.main(['report', {str(artifact)!r}]) == 0\n"
              "assert loaded() == [], loaded()\n")
    env = dict(os.environ, PYTHONPATH=str(Path(binq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "TOTAL" in proc.stdout
