import gc
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import weakref
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binq import (FormatError, QuantConfig, Role, TruncationError, ValidationError, WeightMatrix,
                  fit_gaussian, quantize_layer, read_artifact, read_attention,
                  read_layer_headers, read_manifest, read_tensor, reconstruct,
                  write_artifact, write_attention, write_tensor)
from binq import bit_packer, tensor_store
from binq.bit_packer import storage_report
from binq.cli import main
from binq.saliency_optimizer import LayerObjective
from binq.salient_quantizer import SalientQuant
from binq.tensor_store import AttentionTensor, QuantizedLayer, _layer_record
from conftest import (BVQ_HEADER_BYTES, gaussian_matrix, golden_layers, outlier_matrix,
                      record_layouts)

DATA = Path(__file__).with_name("data")


def layers_equal(a, b):
    if (a.name, a.role, a.m, a.n) != (b.name, b.role, b.m, b.n):
        return False
    if not np.array_equal(a.labels, b.labels):
        return False
    if (a.p_sal_used, a.p_sal_max, a.config) != (b.p_sal_used, b.p_sal_max, b.config):
        return False
    sa, sb = a.salient, b.salient
    if not (np.array_equal(sa.scales, sb.scales)
            and np.array_equal(sa.codes, sb.codes)
            and np.array_equal(sa.centers, sb.centers)):
        return False
    if (sa.mu_b, sa.sigma_b) != (sb.mu_b, sb.sigma_b):
        return False
    return (np.array_equal(a.scalars, b.scalars)
            and np.array_equal(a.sign_bits, b.sign_bits))


class TestTensorRoundTrip:
    def test_small_known_matrix(self, tmp_path):
        path = tmp_path / "t.bvw"
        mat = WeightMatrix("t", Role.VISION,
                           np.array([[1.0, 2.0], [3.0, 4.0]], np.float32))
        write_tensor(mat, path)
        back = read_tensor(path)
        assert back.m == 2 and back.n == 2
        assert back.role == Role.VISION
        assert np.array_equal(back.data, mat.data)

    def test_random_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        mat = WeightMatrix("r", Role.LANGUAGE,
                           rng.normal(0, 1, (64, 64)).astype(np.float32))
        path = tmp_path / "r.bvw"
        write_tensor(mat, path)
        back = read_tensor(path)
        assert back.data.tobytes() == mat.data.tobytes()

    def test_single_element_file_size(self, tmp_path):
        # magic4 + version2 + dtype1 + role1 + rank4 + two u64 dims + one f32
        path = tmp_path / "one.bvw"
        write_tensor(WeightMatrix("x", Role.ADAPTOR,
                                  np.array([[-3.5]], np.float32)), path)
        assert path.stat().st_size == 4 + 2 + 1 + 1 + 4 + 16 + 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bvw"
        path.write_bytes(b"XXXX" + bytes(40))
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.bvw"
        mat = gaussian_matrix(0, shape=(4, 4))
        write_tensor(mat, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TruncationError):
            read_tensor(path)

    def test_nonfinite_rejected_on_write(self, tmp_path):
        mat = gaussian_matrix(0, shape=(2, 2))
        mat.data[0, 0] = np.nan
        with pytest.raises(ValueError):
            write_tensor(mat, tmp_path / "nan.bvw")

    def test_nonfinite_rejected_on_read(self, tmp_path):
        path = tmp_path / "inf.bvw"
        mat = gaussian_matrix(0, shape=(2, 2))
        write_tensor(mat, path)
        raw = bytearray(path.read_bytes())
        raw[-8:-4] = np.array([np.inf], "<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            read_tensor(path)

    def test_zero_row_matrix_rejected(self):
        # WeightMatrix is the one emptiness check, so no writer or stage sees one.
        for shape in [(0, 4), (4, 0), (0, 0)]:
            with pytest.raises(ValueError, match="not empty"):
                WeightMatrix("z", Role.VISION, np.zeros(shape, np.float32))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.bvw"
        write_tensor(gaussian_matrix(0, shape=(2, 2)), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_tensor(path)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 12),
       seed=st.integers(0, 2 ** 31), role=st.sampled_from(list(Role)))
def test_tensor_roundtrip_property(tmp_path_factory, m, n, seed, role):
    rng = np.random.default_rng(seed)
    mat = WeightMatrix("p", role, rng.normal(0, 2, (m, n)).astype(np.float32))
    path = tmp_path_factory.mktemp("prop") / "t.bvw"
    write_tensor(mat, path)
    back = read_tensor(path)
    assert back.role == mat.role
    assert back.data.tobytes() == mat.data.tobytes()


class TestArtifactRoundTrip:
    def test_single_layer_structure(self, tmp_path):
        mat = gaussian_matrix(3, shape=(8, 8))
        layer = quantize_layer(mat, QuantConfig(n_uns=3, p_sal_max=0.05))
        path = tmp_path / "one.bvq"
        write_artifact([layer], path)
        (back,) = read_artifact(path)
        assert layers_equal(layer, back)

    def test_three_layer_bit_exact_rewrite(self, tmp_path):
        layers = []
        for seed, role in zip(range(3), (Role.VISION, Role.LANGUAGE, Role.ADAPTOR)):
            mat = outlier_matrix(seed, shape=(24, 16), frac=0.02, magnitude=6.0,
                                 role=role, name=f"layer{seed}")
            layers.append(quantize_layer(mat))
        p1 = tmp_path / "a.bvq"
        p2 = tmp_path / "b.bvq"
        write_artifact(layers, p1)
        back = read_artifact(p1)
        write_artifact(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for original, restored in zip(layers, back):
            assert layers_equal(original, restored)

    def test_reconstruction_identical_after_roundtrip(self, tmp_path):
        from binq import reconstruct
        mat = outlier_matrix(7, shape=(32, 32), frac=0.03, magnitude=5.0)
        layer = quantize_layer(mat)
        path = tmp_path / "r.bvq"
        write_artifact([layer], path)
        (back,) = read_artifact(path)
        assert np.array_equal(reconstruct(layer).data, reconstruct(back).data)

    def test_layer_objective_without_cap_roundtrips(self, tmp_path):
        # A config with p_sal_max None defers to the role's cap; the layer's
        # config carries that cap, as the file stores it.
        mat = outlier_matrix(4, shape=(32, 48), frac=0.02, magnitude=5.0, role=Role.VISION)
        layer = LayerObjective(mat, fit_gaussian(mat), QuantConfig()).layer(0.01)
        assert layer.config.p_sal_max == layer.p_sal_max == 0.05
        path = tmp_path / "o.bvq"
        write_artifact([layer], path)
        (back,) = read_artifact(path)
        assert layers_equal(layer, back)

    def test_file_size_matches_report(self, tmp_path):
        mat = gaussian_matrix(11, shape=(512, 512), sigma=0.02)
        layer = quantize_layer(mat, QuantConfig(p_sal_max=0.01,
                                                optimize_saliency=False))
        report = storage_report(layer)
        path = tmp_path / "size.bvq"
        write_artifact([layer], path)
        file_bits_per_weight = path.stat().st_size * 8 / (512 * 512)
        assert file_bits_per_weight == pytest.approx(report.bits_per_weight,
                                                     rel=0.02)

    def test_eight_bit_salient_codes(self, tmp_path):
        mat = outlier_matrix(5, shape=(64, 64), frac=0.1, magnitude=6.0)
        layer = quantize_layer(mat, QuantConfig(n_bits=8, p_sal_max=0.2,
                                                optimize_saliency=False))
        assert layer.salient.codes.max() > 127
        path = tmp_path / "eight.bvq"
        write_artifact([layer], path)
        (back,) = read_artifact(path)
        assert layers_equal(layer, back)

    def test_version_mismatch(self, tmp_path):
        """Both readers read version 3 and refuse versions 1, 2 and 4: the written
        file patched to each, tests/data/golden_v1.bvq and tests/data/golden_v2.bvq."""
        mat = gaussian_matrix(0, shape=(8, 8))
        path = tmp_path / "v.bvq"
        write_artifact([quantize_layer(mat)], path)
        raw = path.read_bytes()
        assert raw[4:6] == struct.pack("<H", 3)
        read_artifact(path)
        read_layer_headers(path)
        refused = [(DATA / "golden_v1.bvq", 1), (DATA / "golden_v2.bvq", 2)]
        for version in (1, 2, 4):
            patched = tmp_path / f"v{version}.bvq"
            patched.write_bytes(raw[:4] + struct.pack("<H", version) + raw[6:])
            refused.append((patched, version))
        for bad, version in refused:
            for reader in (read_artifact, read_layer_headers):
                with pytest.raises(FormatError, match=f"unsupported version {version} ") as info:
                    reader(bad)
                assert "re-quantize" in str(info.value)

    def test_write_is_all_or_nothing(self, tmp_path, monkeypatch):
        """A write that fails, on a bad layer, a record count other than the one
        announced or an unwritable path, leaves no temporary file and an earlier
        file at the path as it was. The same holds for .bvw and .bva: each of the
        three writers replaces its path only once the whole file is in."""
        from binq.errors import IoError, ValidationError
        from binq.tensor_store import _layer_record, _write_records

        layers = [quantize_layer(gaussian_matrix(seed, shape=(8, 8), name=f"l{seed}"))
                  for seed in range(2)]
        path = tmp_path / "m.bvq"
        write_artifact(layers[:1], path)
        earlier = path.read_bytes()
        bad = quantize_layer(gaussian_matrix(2, shape=(8, 8), name="bad"))
        bad.scalars = bad.scalars[:-1]
        with pytest.raises(ValidationError, match="'bad'"):
            write_artifact([layers[1], bad], path)
        records = [_layer_record(layer) for layer in layers]
        for count, given in ((3, records), (1, records), (1, [])):
            with pytest.raises(ValidationError, match="layer records announced"):
                _write_records(path, count, iter(given))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bvq"]
        assert path.read_bytes() == earlier
        with pytest.raises(IoError, match="cannot write"):
            write_artifact(layers, tmp_path / "missing" / "m.bvq")
        _write_records(path, 2, iter(records))
        assert path.read_bytes()[10:] == b"".join(records)
        assert all(layers_equal(a, b) for a, b in zip(layers, read_artifact(path)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bvq"]

        scores = AttentionTensor(0, np.full((2, 4), 0.25, np.float32),
                                 np.full((2, 3), 0.125, np.float32), (1, 3, 1, 1))
        writers = {"m.bvq": lambda p: write_artifact(layers, p),
                   "t.bvw": lambda p: write_tensor(gaussian_matrix(0, shape=(4, 4)), p),
                   "a.bva": lambda p: write_attention([scores, scores], p)}

        def fail(*args):
            raise OSError(28, "No space left on device")

        for name, write in writers.items():
            (tmp_path / name).write_bytes(b"an earlier file")
            with monkeypatch.context() as patch:  # every chunk is in; the replace fails
                patch.setattr(os, "replace", fail)
                with pytest.raises(IoError, match=f"cannot write .*{name}: .*No space left"):
                    write(tmp_path / name)
            with pytest.raises(IoError, match="cannot write"):  # a file where a folder must be
                write(tmp_path / "m.bvq" / name)
            assert (tmp_path / name).read_bytes() == b"an earlier file"
        bad = AttentionTensor(1, scores.group_sums, scores.image_scores, (1, 2, 1, 1))
        with pytest.raises(ValidationError, match="layer 1: group size 2"):  # after layer 0
            write_attention([scores, bad], tmp_path / "a.bva")
        assert (tmp_path / "a.bva").read_bytes() == b"an earlier file"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bva", "m.bvq", "t.bvw"]

    def test_degenerate_constant_layer(self, tmp_path):
        mat = WeightMatrix("c", Role.LANGUAGE, np.full((6, 6), 2.0, np.float32))
        layer = quantize_layer(mat)
        path = tmp_path / "c.bvq"
        write_artifact([layer], path)
        (back,) = read_artifact(path)
        assert layers_equal(layer, back)


@pytest.mark.parametrize("name", ["t.bvw", "a.bva", "m.bvq"])
def test_write_past_a_file_size_limit_keeps_the_earlier_file(tmp_path, name):
    """A write that the file system stops midway raises IoError, keeps the earlier
    file byte for byte and leaves no temporary file. The stop is a 1 KB RLIMIT_FSIZE
    set in a child process only, with SIGXFSZ ignored so that the write fails with
    EFBIG; each file is larger than that (an in-place write left a 1 KB fragment)."""
    path = tmp_path / name
    path.write_bytes(b"an earlier file")
    script = f"""if True:
        import resource, signal
        import numpy as np
        import binq
        from binq.tensor_store import AttentionTensor
        data = np.random.default_rng(0).standard_normal((64, 64)).astype(np.float32)
        matrix = binq.WeightMatrix("w", "language", data)
        write, what = {{"t.bvw": (binq.write_tensor, matrix),
                       "a.bva": (binq.write_attention,
                                 [AttentionTensor(0, data[:, :4], data[:, 4:], (0, 60, 0, 0))]),
                       "m.bvq": (binq.write_artifact, [binq.quantize_layer(matrix)])}}[{name!r}]
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (1024, hard))
        try:
            write(what, {str(path)!r})
        except binq.IoError as exc:
            print("IoError:", exc)
    """
    src = os.path.dirname(os.path.dirname(tensor_store.__file__))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    assert out.startswith(f"IoError: cannot write {path}: ") and "File too large" in out
    assert path.read_bytes() == b"an earlier file"
    assert list(tmp_path.iterdir()) == [path]


def reseal(raw):
    """Recompute the CRC of a one-layer file's record, its last 4 bytes."""
    raw[-4:] = struct.pack("<I", zlib.crc32(raw[BVQ_HEADER_BYTES:-4]))


def _put(field, data: bytes):
    """Damage: `data` written over the first record's `field`, from its first byte on."""
    def corrupt(raw, layer):
        start = record_layouts([layer])[0][field].start
        raw[start:start + len(data)] = data
    return corrupt


def _count_off_by_one(raw, layer):
    _put("counts", struct.pack("<Q", int(layer.counts[0]) + 1))(raw, layer)


def _huge_layer(raw, layer):
    # n and the one live shell's count both made huge, so the counts still add up to
    # m x n: the sign stream they size is more than the file holds, and `take` refuses
    # it before anything of that size is allocated.
    _put("n", struct.pack("<Q", 2 ** 37))(raw, layer)
    shell = int(np.flatnonzero(layer.counts)[0])
    _put("counts", bytes(8 * shell) + struct.pack("<Q", layer.m * 2 ** 37))(raw, layer)


NAN = struct.pack("<d", np.nan)

NOT_FINITE = "salient scale, center or level parameter not finite"

# (how the file is damaged, whether the layer is constant, the refusal's message): a
# constant layer has one live group, whose code is empty.
MALFORMED = {
    "negative_scalar": (_put("scalars", np.array([-1.0], "<f2").tobytes()), False,
                        "shell scalar negative or not finite"),
    "nan_scalar": (_put("scalars", np.array([np.nan], "<f2").tobytes()), False,
                   "shell scalar negative or not finite"),
    "nan_alpha": (_put("alpha", NAN), False, "alpha must be positive and finite"),
    "nan_p_sal_max": (_put("p_sal_max", NAN), False, "p_sal_max must lie in (0, 1)"),
    "p_sal_used_above_cap": (_put("p_sal_used", struct.pack("<d", 0.5)), False,
                             "p_sal_used outside [0, p_sal_max]"),
    "nan_mu_b": (_put("mu_b", NAN), False, NOT_FINITE),
    "inf_sigma_b": (_put("sigma_b", struct.pack("<d", np.inf)), False, NOT_FINITE),
    "counts_off_by_one": (_count_off_by_one, False, "group counts do not add up"),
    "zero_shells": (_put("n_uns", b"\0"), False, "n_uns must lie in [1, 5]"),
    # 130 shells fit 8-bit indices but not the int8 labels.
    "shells_beyond_int8": (_put("n_uns", bytes([130])), False, "n_uns must lie in [1, 5]"),
    # A one-group layer stores no index bits, so only the declared size
    # says how many labels to materialize.
    "huge_columns": (_put("n", struct.pack("<Q", 2 ** 37)), True, "group counts do not add up"),
    "huge_layer_counts_add_up": (_huge_layer, True, f"needed {2 ** 37} bytes at offset"),
    "name_not_utf8": (_put("name", b"\xff"), False, "layer name is not UTF-8"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact_rejected(tmp_path, capsys, case):
    """Each damage, with the CRC recomputed, is refused by the check named in its
    message, by both readers and by `binq report` (exit 2)."""
    corrupt, constant, message = MALFORMED[case]
    if constant:
        mat = WeightMatrix("c", Role.LANGUAGE, np.full((8, 8), 2.0, np.float32))
    else:
        mat = outlier_matrix(1, shape=(16, 16), frac=0.02, magnitude=6.0)
    layer = quantize_layer(mat)
    path = tmp_path / "m.bvq"
    write_artifact([layer], path)
    raw = bytearray(path.read_bytes())
    corrupt(raw, layer)
    reseal(raw)  # so that the check under test meets the damage
    path.write_bytes(bytes(raw))
    for read in (read_artifact, read_layer_headers):
        with pytest.raises(FormatError, match=re.escape(message)):
            read(path)
    assert main(["report", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("corrupt, message", [
    (_put("n_uns", bytes([6])), "n_uns must lie in [1, 5]"),
    (_put("n_bits", bytes([9])), "n_bits must lie in [1, 8]"),
], ids=["n_uns_6", "n_bits_9"])
def test_other_widths_refused_before_decode(tmp_path, capsys, monkeypatch, corrupt, message):
    """A record whose shell count needs index codes wider than 3 bits, or whose salient
    codes are wider than 8 bits, is refused from its header."""
    layer = quantize_layer(outlier_matrix(1, shape=(16, 16), frac=0.02, magnitude=6.0))
    path = tmp_path / "m.bvq"
    write_artifact([layer], path)
    raw = bytearray(path.read_bytes())
    corrupt(raw, layer)
    reseal(raw)
    path.write_bytes(bytes(raw))
    monkeypatch.setattr(bit_packer, "unpack_stream", None)  # no stream is decoded
    for read in (read_artifact, read_layer_headers):
        with pytest.raises(FormatError, match=re.escape(message)):
            read(path)
    assert main(["report", str(path)]) == 2
    assert message in capsys.readouterr().err


def damaged_copies(raw: bytes) -> list[bytes]:
    """Every truncation of raw, then every single-byte xor 0x01, 0x80 and 0xff."""
    damaged = [raw[:cut] for cut in range(len(raw))]
    for pos in range(len(raw)):
        for flip in (0x01, 0x80, 0xFF):
            mutated = bytearray(raw)
            mutated[pos] ^= flip
            damaged.append(bytes(mutated))
    return damaged


def test_mutations_and_truncations_rejected_or_identical(tmp_path, capsys):
    """Every single-byte mutation and every truncation of a two-layer file is
    refused by both readers, or reads back to the same reconstructions and report."""
    layers = [quantize_layer(outlier_matrix(1, shape=(6, 8), frac=0.05, magnitude=6.0,
                                            name="a")),
              quantize_layer(gaussian_matrix(2, shape=(4, 8), name="b"))]
    path, report = tmp_path / "m.bvq", tmp_path / "r.csv"
    write_artifact(layers, path)
    raw = path.read_bytes()
    assert main(["report", str(path), "--csv", "-o", str(report)]) == 0
    want_report = report.read_bytes()
    want = [reconstruct(layer).data.tobytes() for layer in layers]
    damaged = damaged_copies(raw)
    rejected = 0
    for data in damaged:
        path.write_bytes(data)
        code = main(["report", str(path), "--csv", "-o", str(report)])
        try:
            back = read_artifact(path)
        except FormatError:
            assert code == 2
            rejected += 1
            continue
        assert code == 0 and report.read_bytes() == want_report
        assert [reconstruct(layer).data.tobytes() for layer in back] == want
    capsys.readouterr()
    # None reads back: each record is under its CRC, and a changed magic,
    # version or layer count in the file header is refused.
    assert rejected == len(damaged)


def dense_whole_layer(layer, dtype):
    """Reference: the reconstruction as one gather over the whole layer."""
    salient = layer.labels == layer.config.n_uns
    positive = np.ones(layer.labels.shape, dtype=bool)
    positive[~salient] = np.unpackbits(layer.sign_bits,
                                       count=np.count_nonzero(~salient)).view(bool)
    signed = np.append(layer.scalars, 0.0).astype(dtype).repeat(2)
    signed[::2] *= -1
    out = signed[(layer.labels.astype(np.uint8) << 1) | positive]
    where = np.flatnonzero(salient)
    sal = layer.salient
    out.ravel()[where] = sal.scales.astype(np.float64)[where // layer.n] * sal.centers[sal.codes]
    return out


def planted_layer(shape, salient_at, seed, n_uns=5):
    """A valid layer with random labels, signs and levels, salient at salient_at."""
    rng = np.random.default_rng(seed)
    m, n = shape
    labels = rng.integers(0, n_uns, m * n).astype(np.int8)
    labels[rng.random(m * n) < 0.05] = n_uns
    labels[salient_at] = n_uns
    counts = np.bincount(labels, minlength=n_uns + 1).astype(np.int64)
    salient = SalientQuant(scales=rng.uniform(0.5, 2.0, m).astype(np.float16),
                           codes=rng.integers(0, 4, counts[-1]).astype(np.uint8),
                           centers=np.array([-1.7, -0.4, 0.3, 1.9]), mu_b=0.0, sigma_b=1.0)
    layer = QuantizedLayer(name="planted", role=Role.LANGUAGE, m=m, n=n, counts=counts,
                           p_sal_used=0.05,
                           config=QuantConfig(n_uns=n_uns, p_sal_max=0.1),
                           labels=labels.reshape(m, n), salient=salient,
                           scalars=rng.uniform(0.0, 1.0, n_uns).astype(np.float16),
                           sign_bits=np.packbits(rng.random(m * n - int(counts[-1])) < 0.5))
    layer.validate()
    return layer


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, chunk", [((40, 50), None), ((40, 50), 64), ((5, 7), 64),
                                          ((1, 1), None), ((1, 9), None), ((40, 50), 13),
                                          ((3, 11), 4)],
                         ids=["40x50", "40x50-chunk64", "5x7-chunk64", "1x1", "1x9",
                              "40x50-chunk13", "3x11-chunk4"])
def test_dense_matches_whole_layer_gather(shape, chunk, dtype, monkeypatch):
    # Salient elements on every other chunk edge, so each edge has salient and
    # unsalient elements on both sides across the layers; (5, 7) at 64 is
    # smaller than one chunk. Chunks start at sign offsets that are not
    # multiples of 8, and the unsalient counts are not either.
    if chunk is not None:
        monkeypatch.setattr(bit_packer, "CHUNK", chunk)
    size = shape[0] * shape[1]
    step = min(bit_packer.CHUNK, size)
    edges = [e for k in range(2, size // step + 1, 2) for e in (k * step - 1, k * step)]
    offsets, tails = set(), set()
    for seed in range(3):
        layer = planted_layer(shape, [e for e in edges if e < size], seed)
        unsalient = np.cumsum(layer.labels.ravel() != layer.config.n_uns)
        offsets |= {int(unsalient[j - 1]) % 8 for j in range(step, size, step)}
        tails.add(int(unsalient[-1]) % 8)
        got = layer.dense(dtype)
        assert got.dtype == dtype and got.shape == shape
        assert np.array_equal(got, dense_whole_layer(layer, dtype))
    assert tails - {0} and (step == size or offsets - {0})


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_load_memory_per_weight(tmp_path):
    # Traced on a 1024x1024 Student-t layer (numpy 2.4). read_artifact peaks at
    # 4.93 bytes per weight, in the index decode, and keeps 1.18 (2.04 when
    # it unpacked one bool per sign). dense(np.float32) peaks 0.77 beyond its
    # output, its chunk's intp gather index included (0.86 with a layer-sized
    # salient mask and index; 3.07 as one whole-layer gather).
    rng = np.random.default_rng(5)
    mat = WeightMatrix("t", Role.LANGUAGE, 0.02 * rng.standard_t(5, (1024, 1024)))
    path = tmp_path / "t.bvq"
    write_artifact([quantize_layer(mat, QuantConfig(optimize_saliency=False))], path)
    weights = mat.m * mat.n
    tracemalloc.start()
    try:
        (layer,) = read_artifact(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / weights < 5.0 and held / weights < 1.25
    out, peak = traced_peak(lambda: layer.dense(np.float32))
    assert np.array_equal(out, dense_whole_layer(layer, np.float32))
    assert (peak - out.nbytes) / weights < 0.85


def test_record_memory_per_weight():
    # Traced peak of one 2048x1024 layer's record (numpy 2.4): 4.6 bytes per
    # weight when the index stream was packed whole and the record copied
    # three times, 0.86 packed a chunk at a time and joined once.
    rng = np.random.default_rng(11)
    mat = WeightMatrix("r", Role.LANGUAGE, 0.02 * rng.standard_t(5, (2048, 1024)))
    layer = quantize_layer(mat, QuantConfig(optimize_saliency=False))
    record, peak = traced_peak(lambda: _layer_record(layer))
    assert len(record) < mat.m * mat.n and peak / (mat.m * mat.n) <= 1.5


def test_read_layer_does_not_pin_the_file_buffer(tmp_path):
    """A layer read back equals the one written, and each of its arrays is writable and
    the only user of its buffer: no array shares a larger buffer, such as the file's.
    The arrays the reader makes hold exactly their bytes; a decoded stream holds at
    most the decoder's last group of 8 symbols beyond its own."""

    def buffer_bytes(array):  # the bytes of the buffer at the root of array's bases
        while isinstance(array.base, np.ndarray):
            array = array.base
        return array.nbytes if array.base is None else memoryview(array.base).nbytes

    layers, _ = golden_layers(tmp_path)
    path = tmp_path / "g.bvq"
    write_artifact(layers, path)
    back = read_artifact(path)
    assert all(layers_equal(a, b) for a, b in zip(layers, back))
    for layer in back:
        sal = layer.salient
        for array in (sal.scales, sal.centers, layer.scalars, layer.sign_bits):
            assert array.flags.writeable and buffer_bytes(array) == array.nbytes
        for array in (layer.labels, layer.counts, sal.codes):
            assert array.flags.writeable and array.nbytes <= buffer_bytes(array) < array.nbytes + 8


def open_files() -> set:
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_each_refusal_closes_its_file(tmp_path):
    """Each reader closes its file when it refuses it: bad magic, a truncation, a
    trailing byte and, in a .bvq, a damaged second record. The open descriptors are
    compared while the refusal's traceback, which holds the reader's frames and so
    its file object, is alive: the reader closed the file, not the garbage collector."""
    bvq, bvw, bva = tmp_path / "a.bvq", tmp_path / "w.bvw", tmp_path / "s.bva"
    layers = [quantize_layer(gaussian_matrix(i, shape=(8, 8), name=f"l{i}")) for i in range(2)]
    write_artifact(layers, bvq)
    write_tensor(gaussian_matrix(0, shape=(2, 2)), bvw)
    write_attention([AttentionTensor(0, np.full((1, 4), 0.25), np.full((1, 2), 0.125),
                                     (1, 2, 1, 0))], bva)
    refusals = []
    for path, reads in [(bvq, (read_artifact, read_layer_headers)), (bvw, (read_tensor,)),
                        (bva, (read_attention,))]:
        raw = path.read_bytes()
        damaged = [b"XV\x00Q" + raw[4:], raw[:-1], raw + b"\0"]
        if path is bvq:
            second = bytearray(raw)
            second[record_layouts(layers)[1]["signs"].stop - 1] ^= 1  # under the record's CRC
            damaged.append(bytes(second))
        for data in damaged:
            path.write_bytes(data)
            for read in reads:
                gc.collect()
                before = open_files()
                with pytest.raises(FormatError) as info:
                    read(path)
                gc.collect()
                assert open_files() == before, (read.__name__, str(info.value))
                refusals.append(str(info.value))
    assert refusals[6:8] == [f"{bvq}: layer 'l1': CRC mismatch, the record is damaged"] * 2


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_non_regular_input_refused(tmp_path):
    """A pipe or device has no size to bound reads by, so every reader refuses one:
    /dev/zero is a FormatError at once, from each reader, from `read_manifest` when a
    manifest names it, and from `binq report` and `binq analyze` (exit 2). It runs in
    a child process under a 1 GiB address-space limit, so that a reader that reads
    /dev/zero on fails there instead of filling memory. FIFOs are not tried: `open`
    blocks on one until a writer comes."""
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"name": "z", "path": "/dev/zero", "role": "vision"}]))
    script = f"""if True:
        import resource
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        import binq
        from binq.cli import main
        for read, path in [(binq.read_tensor, "/dev/zero"), (binq.read_attention, "/dev/zero"),
                           (binq.read_artifact, "/dev/zero"),
                           (binq.read_layer_headers, "/dev/zero"),
                           (binq.read_manifest, "/dev/zero"), (binq.read_manifest, {str(manifest)!r})]:
            try:
                read(path)
            except binq.FormatError as exc:
                print(exc)
        print(main(["report", "/dev/zero"]), main(["analyze", {str(manifest)!r}]))
    """
    src = os.path.dirname(os.path.dirname(tensor_store.__file__))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["/dev/zero: not a regular file"] * 6 + ["2 2"]
    assert proc.stderr == "error: /dev/zero: not a regular file\n" * 2


def test_read_memory_is_flat_in_the_layer_count(tmp_path):
    """The read-side twin of test_parent_memory_is_flat_in_the_layer_count: the
    readers parse a record at a time from the open file and hold no whole file.
    Under tracemalloc on copies of one 1024x1024 layer's record (a 0.46 MB record),
    `read_layer_headers` on 48 layers peaks within 25% of one layer's (it was 43
    times as much when it read the whole file), and `read_artifact` on 16 layers
    peaks, less the layers it returns, within 10% of one layer's (1.6 times)."""
    rng = np.random.default_rng(5)
    mat = WeightMatrix("t", Role.LANGUAGE, 0.02 * rng.standard_t(5, (1024, 1024)))
    write_artifact([quantize_layer(mat, QuantConfig(optimize_saliency=False))],
                   tmp_path / "1.bvq")
    raw = (tmp_path / "1.bvq").read_bytes()
    for count in (16, 48):  # the header, the layer count, then the one record repeated
        (tmp_path / f"{count}.bvq").write_bytes(raw[:6] + struct.pack("<I", count)
                                                + raw[BVQ_HEADER_BYTES:] * count)
    read_artifact(tmp_path / "1.bvq")  # warm: the decoder's first call sets up tables

    def traced(read, count):
        tracemalloc.start()
        try:
            result = read(tmp_path / f"{count}.bvq")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == count
        return peak, held

    one, many = traced(read_layer_headers, 1), traced(read_layer_headers, 48)
    assert many[0] <= 1.25 * one[0], (one, many)
    one, many = traced(read_artifact, 1), traced(read_artifact, 16)
    assert many[0] - many[1] <= 1.1 * (one[0] - one[1]), (one, many)


def test_read_tensor_peaks_at_its_file_size(tmp_path):
    """`read_tensor` reads the payload into the one buffer the matrix keeps and checks
    it a chunk at a time: its traced peak on a 1024x1024 .bvw is at most 1.1 times the
    file (2.0 when it read the file whole and copied the payload out, 1.25 with a
    whole-layer finiteness mask)."""
    path = tmp_path / "t.bvw"
    write_tensor(gaussian_matrix(0, (1024, 1024)), path)
    matrix, peak = traced_peak(lambda: read_tensor(path))
    assert matrix.m == 1024 and peak <= 1.1 * path.stat().st_size, peak


def test_read_attention_peaks_at_its_file_size(tmp_path):
    """`read_attention` reads each tensor's rows as one block and keeps its two column
    slices as float32 views of it: on a 1024 x (4 + 1024) tensor its traced peak is at
    most 1.1 times the .bva (2.0 when the slices were copied out of the block)."""
    rng = np.random.default_rng(0)
    path = tmp_path / "a.bva"
    write_attention([AttentionTensor(0, rng.random((1024, 4), np.float32),
                                     rng.random((1024, 1024), np.float32), (1, 1024, 2, 1))],
                    path)
    (tensor,), peak = traced_peak(lambda: read_attention(path))
    assert tensor.image_scores.base is tensor.group_sums.base is not None
    assert peak <= 1.1 * path.stat().st_size, peak / path.stat().st_size


def test_layer_names_no_bvq_can_hold_refused(tmp_path, capsys):
    """A record stores a layer name as UTF-8 after a u16 length. A name of 65,536 UTF-8
    bytes, or one with a lone surrogate, is refused: by `read_manifest` (FormatError,
    so `binq quantize` and `binq analyze` exit 2) and by `write_artifact`
    (ValidationError, no file). A name of 65,535 bytes is written and read back."""
    write_tensor(gaussian_matrix(0, shape=(4, 4)), tmp_path / "a.bvw")
    manifest, out = tmp_path / "m.json", tmp_path / "m.bvq"
    layer = quantize_layer(gaussian_matrix(0, shape=(4, 4)))
    longest = "\u00e9" * 32767 + "a"  # two bytes a character, one for the last
    for name in ("\u00e9" * 32768, "a\ud800b"):
        manifest.write_text(json.dumps([{"name": name, "path": "a.bvw", "role": "vision"}]))
        with pytest.raises(FormatError, match="not UTF-8 text of at most 65535 bytes"):
            read_manifest(manifest)
        for argv in (["quantize", str(manifest), "-o", str(out)], ["analyze", str(manifest)]):
            assert main(argv) == 2
            assert "not UTF-8 text of at most 65535 bytes" in capsys.readouterr().err
        with pytest.raises(ValidationError, match="not UTF-8 text of at most 65535 bytes"):
            write_artifact([replace(layer, name=name)], out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bvw", "m.json"]
    assert len(longest.encode("utf-8")) == 65535
    manifest.write_text(json.dumps([{"name": longest, "path": "a.bvw", "role": "vision"}]))
    assert main(["quantize", str(manifest), "-o", str(out)]) == 0
    assert [back.name for back in read_artifact(out)] == [longest]
    capsys.readouterr()


@pytest.mark.parametrize("field", ["layer_index", "group_size"])
@pytest.mark.parametrize("value", [-1, 2 ** 32])
def test_attention_field_outside_u32_refused(tmp_path, field, value):
    """`write_attention` refuses a layer index or group size that a u32 does not hold
    with a ValidationError and keeps the earlier file."""
    path = tmp_path / "a.bva"
    path.write_bytes(b"an earlier file")
    sizes = (value, 2, 1, 1) if field == "group_size" else (1, 2, 1, 1)
    tensor = AttentionTensor(value if field == "layer_index" else 0,
                             np.full((1, 4), 0.25), np.full((1, 2), 0.125), sizes)
    with pytest.raises(ValidationError, match="outside u32"):
        write_attention([tensor], path)
    assert path.read_bytes() == b"an earlier file"
    assert list(tmp_path.iterdir()) == [path]


def test_bad_magic_and_version_messages(tmp_path):
    """Each reader names the file, shows the magic it found and the one it expects
    as bytes, and names a version it does not read."""
    bvq, bvw, bva = tmp_path / "a.bvq", tmp_path / "w.bvw", tmp_path / "s.bva"
    write_artifact([quantize_layer(gaussian_matrix(0, shape=(8, 8)))], bvq)
    write_tensor(gaussian_matrix(0, shape=(2, 2)), bvw)
    write_attention([AttentionTensor(0, np.full((1, 4), 0.25), np.full((1, 2), 0.125),
                                     (1, 2, 1, 0))], bva)
    for path, read, magic, version, remedy in [
            (bvq, read_artifact, b"BVQ1", 3, "; re-quantize the model"),
            (bvq, read_layer_headers, b"BVQ1", 3, "; re-quantize the model"),
            (bvw, read_tensor, b"BVW1", 1, ""), (bva, read_attention, b"BVA1", 1, "")]:
        raw = path.read_bytes()
        bad = tmp_path / f"bad{path.suffix}"
        bad.write_bytes(b"XV\x00Q" + raw[4:])
        with pytest.raises(FormatError) as info:
            read(bad)
        assert str(info.value) == f"{bad}: bad magic b'XV\\x00Q', expected {magic!r}"
        bad.write_bytes(raw[:4] + struct.pack("<H", 9) + raw[6:])
        with pytest.raises(FormatError) as info:
            read(bad)
        assert str(info.value) == f"{bad}: unsupported version 9 (binq reads version {version}){remedy}"


def test_zero_layer_artifact_refused(tmp_path, capsys):
    """A .bvq holds at least one layer: the writer refuses none and leaves no file,
    and both readers and `binq report` (exit 2) refuse a layer count of 0."""
    empty = tmp_path / "empty.bvq"
    with pytest.raises(ValidationError, match="at least one layer"):
        write_artifact([], empty)
    assert list(tmp_path.iterdir()) == []
    one = tmp_path / "one.bvq"
    write_artifact([quantize_layer(gaussian_matrix(0, shape=(8, 8)))], one)
    empty.write_bytes(one.read_bytes()[:6] + struct.pack("<I", 0))
    for read in (read_artifact, read_layer_headers):
        with pytest.raises(FormatError) as info:
            read(empty)
        assert str(info.value) == f"{empty}: artifact holds no layers"
    assert main(["report", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: artifact holds no layers\n"


def test_one_trailing_byte_refused(tmp_path, capsys):
    """A byte after the last field of a .bvw, .bva or .bvq is refused by its reader, and
    by the command that reads it (exit 2): `report`, `prune-scores`, `analyze`."""
    bvq, bvw, bva = tmp_path / "a.bvq", tmp_path / "w.bvw", tmp_path / "s.bva"
    write_artifact([quantize_layer(gaussian_matrix(0, shape=(8, 8)))], bvq)
    write_tensor(gaussian_matrix(0, shape=(2, 2)), bvw)
    write_attention([AttentionTensor(0, np.full((1, 4), 0.25), np.full((1, 2), 0.125),
                                     (1, 2, 1, 0))], bva)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"name": "w", "path": "w.bvw", "role": "vision"}]))
    for path, reads, argv in [
            (bvq, (read_artifact, read_layer_headers), ["report", str(bvq)]),
            (bva, (read_attention,), ["prune-scores", str(bva), "--ratio", "0.5"]),
            (bvw, (read_tensor, read_manifest), ["analyze", str(manifest)])]:
        path.write_bytes(path.read_bytes() + b"\0")
        for read in reads:
            with pytest.raises(FormatError):
                read(manifest if read is read_manifest else path)
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
    with pytest.raises(FormatError, match="1 trailing bytes"):
        read_tensor(bvw)


@pytest.mark.parametrize("dims", [(0, 3), (3, 0), (0, 0)])
def test_zero_dimension_tensor_refused(tmp_path, capsys, dims):
    """A .bvw header with a zero dimension is a FormatError in `read_tensor` and in
    `read_manifest`, before any payload is sized from it; `binq analyze` exits 2."""
    path = tmp_path / "w.bvw"
    write_tensor(gaussian_matrix(0, shape=(2, 2)), path)
    path.write_bytes(path.read_bytes()[:12] + struct.pack("<QQ", *dims))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"name": "w", "path": "w.bvw", "role": "vision"}]))
    for read, arg in [(read_tensor, path), (read_manifest, manifest)]:
        with pytest.raises(FormatError, match="degenerate dims"):
            read(arg)
    assert main(["analyze", str(manifest)]) == 2
    assert "degenerate dims" in capsys.readouterr().err


@pytest.mark.parametrize("change", [1, -1])
def test_stream_one_byte_off_its_counts_refused(tmp_path, capsys, change):
    """A sign stream one byte longer or shorter than the counts make it, with the CRC
    recomputed over the record, is refused by both readers: each stream is taken at
    the length the counts give it, so the reader meets a CRC that is not the record's,
    or runs out of bytes before the CRC."""
    layer = quantize_layer(outlier_matrix(1, shape=(16, 16), frac=0.02, magnitude=6.0))
    path = tmp_path / "m.bvq"
    write_artifact([layer], path)
    raw = bytearray(path.read_bytes())
    end = record_layouts([layer])[0]["signs"].stop
    assert end == len(raw) - 4
    if change > 0:
        raw[end:end] = b"\0"
    else:
        del raw[end - 1]
    reseal(raw)
    path.write_bytes(bytes(raw))
    message = "CRC mismatch" if change > 0 else "needed 4 bytes at offset"
    for read in (read_artifact, read_layer_headers):
        with pytest.raises(FormatError, match=message):
            read(path)
    assert main(["report", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_labels_that_disagree_with_the_counts_refused_on_write(tmp_path):
    """Two shells whose codes differ in length swap their counts: the counts still add
    up, but the labels packed with the code of the swapped counts take
    (c_i - c_j)(l_j - l_i) more bits, so the writer refuses the layer and leaves no file."""
    layer = quantize_layer(outlier_matrix(1, shape=(16, 16), frac=0.02, magnitude=6.0))
    lengths, counts = layer.codebook.lengths, layer.counts.copy()
    extra = {(i, j): abs(int(counts[i] - counts[j]) * (lengths[i] - lengths[j]))
             for i in range(layer.config.n_uns) for j in range(i)}
    i, j = max(extra, key=extra.get)
    assert extra[i, j] >= 8  # bits: the stream changes by a byte or more
    counts[[i, j]] = counts[[j, i]]
    with pytest.raises(ValidationError, match="labels disagree with the group counts"):
        write_artifact([replace(layer, counts=counts)], tmp_path / "m.bvq")
    assert list(tmp_path.iterdir()) == []


def test_held_layer_bytes_per_weight(tmp_path):
    """Labels and packed signs take at most 1.13 bytes per weight, in a layer
    that quantize_layer builds and in one that read_artifact reads."""
    mat = WeightMatrix("h", Role.LANGUAGE,
                       0.02 * np.random.default_rng(3).standard_t(5, (256, 192)))
    built = quantize_layer(mat)
    path = tmp_path / "h.bvq"
    write_artifact([built], path)
    (back,) = read_artifact(path)
    for layer in (built, back):
        assert layer.sign_bits.dtype == np.uint8
        assert (layer.labels.nbytes + layer.sign_bits.nbytes) / (mat.m * mat.n) <= 1.13


def test_golden_layers_read_write_reproduce_bytes(tmp_path):
    """A golden layer read from its .bvq holds the record's sign stream bytes as
    they are, and writing it back reproduces the file."""
    layers, _ = golden_layers(tmp_path)
    for layer in layers:
        path = tmp_path / f"{layer.name}.bvq"
        raw = path.read_bytes()
        (back,) = read_artifact(path)
        (layout,) = record_layouts([layer])
        assert layout["crc"].stop == len(raw)
        assert raw[layout["signs"]] == back.sign_bits.tobytes()
        assert np.array_equal(back.sign_bits, layer.sign_bits)
        write_artifact([back], tmp_path / "again.bvq")
        assert (tmp_path / "again.bvq").read_bytes() == raw


def test_sign_stream_length_and_dtype_checked(tmp_path):
    """validate, and so write_artifact, refuses a sign stream of the wrong byte
    length or one that holds bools."""
    layer = planted_layer((6, 8), 3, seed=0)
    bits = layer.sign_bits
    unpacked = np.unpackbits(bits, count=int(layer.counts[:-1].sum())).view(bool)
    for bad in (bits[:-1], np.append(bits, np.uint8(0)), unpacked, bits.astype(bool)):
        broken = replace(layer, sign_bits=bad)
        with pytest.raises(ValidationError, match="sign stream length"):
            broken.validate()
        with pytest.raises(ValidationError, match="sign stream length"):
            write_artifact([broken], tmp_path / "bad.bvq")
    assert not (tmp_path / "bad.bvq").exists()


def test_decoded_counts_must_match_stored(tmp_path):
    """Two shells with codes of one length swap their stored counts, and the
    CRC is recomputed. The code of the swapped counts has the same lengths, so
    the streams keep theirs and the header reader, which decodes nothing, takes
    the record; read_artifact decodes the index stream and refuses it."""
    layer = quantize_layer(outlier_matrix(1, shape=(16, 16), frac=0.02, magnitude=6.0))
    path = tmp_path / "m.bvq"
    write_artifact([layer], path)
    raw = bytearray(path.read_bytes())
    lengths = layer.codebook.lengths
    i, j = next((i, j) for i in range(layer.config.n_uns) for j in range(i)
                if lengths[i] == lengths[j] and layer.counts[i] != layer.counts[j])
    counts = list(layer.counts)
    counts[i], counts[j] = counts[j], counts[i]
    raw[record_layouts([layer])[0]["counts"]] = struct.pack(f"<{len(counts)}Q", *counts)
    reseal(raw)
    path.write_bytes(bytes(raw))
    read_layer_headers(path)
    with pytest.raises(FormatError, match="decoded group counts"):
        read_artifact(path)


@pytest.mark.parametrize("cap", [None, 0.03], ids=["role_cap", "explicit_cap"])
@pytest.mark.parametrize("search", [True, False], ids=["search", "pinned"])
@pytest.mark.parametrize("n_bits", [1, 2, 3])
@pytest.mark.parametrize("n_uns", [1, 2, 5])
def test_config_and_cap_roundtrip(tmp_path, n_uns, n_bits, search, cap):
    """A layer's config, its cap resolved, reads back equal; the cap is the config's."""
    mat = outlier_matrix(n_uns + n_bits, shape=(24, 32), frac=0.03, magnitude=6.0,
                         role=Role.VISION)
    config = QuantConfig(n_uns=n_uns, n_bits=n_bits, p_sal_max=cap, optimize_saliency=search)
    layer = quantize_layer(mat, config)
    want = replace(config, p_sal_max=0.05 if cap is None else cap)
    path = tmp_path / "c.bvq"
    write_artifact([layer], path)
    (back,) = read_artifact(path)
    assert layer.config == back.config == want
    assert layer.p_sal_max == back.p_sal_max == want.p_sal_max


def test_layer_without_cap_refused(tmp_path):
    """A hand-built layer whose config has no cap is neither valid nor written."""
    layer = planted_layer((6, 8), 3, seed=0)
    layer = replace(layer, config=replace(layer.config, p_sal_max=None))
    with pytest.raises(ValidationError, match="no p_sal_max"):
        layer.validate()
    path = tmp_path / "none.bvq"
    with pytest.raises(ValidationError, match="no p_sal_max"):
        write_artifact([layer], path)
    assert not path.exists()


def _manifest(**fields):
    entry = {"name": "a", "path": "a.bvw", "role": "language", **fields}
    return json.dumps([entry]).encode()


MALFORMED_MANIFESTS = {
    "not_utf8": b'[{"name": "\xff", "path": "a.bvw", "role": "language"}]',
    "path_not_string": _manifest(path=3),
    "name_is_list": _manifest(name=["a"]),
    "role_is_list": _manifest(role=["language"]),
    "p_sal_max_is_list": _manifest(p_sal_max=[0.01]),
    "p_sal_max_is_string": _manifest(p_sal_max="x"),
    "path_with_nul": _manifest(path="a\u0000.bvw"),
    "deeply_nested": b"[" * 100000,
    "empty": b"[]",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_rejected(tmp_path, capsys, case):
    from binq.cli import main
    write_tensor(gaussian_matrix(0, (4, 4)), tmp_path / "a.bvw")
    path = tmp_path / "m.json"
    path.write_bytes(_manifest(p_sal_max=0.01))
    assert main(["analyze", str(path), "-o", str(tmp_path / "a.csv")]) == 0
    path.write_bytes(MALFORMED_MANIFESTS[case])
    assert main(["analyze", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def small_file(tmp_path, kind):
    """(path, reader) of a small file: 988 bytes of .bvw, 282 of .bva or 71 of manifest."""
    rng = np.random.default_rng(0)
    if kind == "bvw":
        path = tmp_path / "w.bvw"
        write_tensor(WeightMatrix("w", Role.VISION, rng.normal(0, 1, (12, 20))), path)
        return path, read_tensor
    if kind == "bva":
        path = tmp_path / "a.bva"
        write_attention([AttentionTensor(layer_index=j, group_sums=rng.random((n, 4)),
                                         image_scores=rng.random((n, n_img)),
                                         group_sizes=(1, n_img, 2, n))
                         for j, (n, n_img) in enumerate([(3, 2), (4, 5)])], path)
        return path, read_attention
    write_tensor(gaussian_matrix(0, (4, 4)), tmp_path / "a.bvw")
    path = tmp_path / "m.json"
    path.write_bytes(_manifest(p_sal_max=0.01))
    return path, read_manifest


# Traced peak of one read (numpy 2.4, Python 3.11): at most 5.8 KiB on the
# files of small_file and their damaged copies, refused or not, and 12.7 KiB on
# an empty file, which Python reads into an 8 KiB buffer. A read copies its
# payload about twice, so the bound allows 4 bytes per file byte on top.
READ_PEAK_BASE, READ_PEAK_PER_FILE_BYTE = 16384, 4


@pytest.mark.parametrize("kind", ["bvw", "bva", "manifest"])
def test_unchecksummed_mutations_read_or_refused(tmp_path, kind):
    """Every truncation and single-byte mutation of a small .bvw, .bva or
    manifest reads or raises FormatError, and no other exception, with a
    traced peak bounded by the file size. These formats have no CRC, so a
    mutated file may read back changed. A .bvw payload value made non-finite
    would be a ValueError (test_nonfinite_rejected_on_read); none of these
    mutations makes one: no flip of these payload bytes gives an all-ones exponent."""
    path, read = small_file(tmp_path, kind)
    raw = path.read_bytes()
    refused = 0
    tracemalloc.start()
    try:
        for data in damaged_copies(raw):
            path.write_bytes(data)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                read(path)
            except FormatError:
                refused += 1
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak <= READ_PEAK_BASE + READ_PEAK_PER_FILE_BYTE * len(data), peak
    finally:
        tracemalloc.stop()
    assert refused > 0


class TestAttentionRoundTrip:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = []
        for j in range(3):
            n, n_img = 4, 6
            img = rng.dirichlet(np.ones(n_img), size=n).astype(np.float32) * 0.5
            sums = np.stack([np.full(n, 0.2), img.sum(axis=1),
                             np.full(n, 0.2), 1 - 0.4 - img.sum(axis=1)],
                            axis=1).astype(np.float32)
            tensors.append(AttentionTensor(layer_index=j, group_sums=sums,
                                           image_scores=img,
                                           group_sizes=(3, n_img, 2, n)))
        path = tmp_path / "a.bva"
        write_attention(tensors, path)
        back = read_attention(path)
        assert len(back) == 3
        for orig, rest in zip(tensors, back):
            assert orig.layer_index == rest.layer_index
            assert orig.group_sizes == rest.group_sizes
            assert np.array_equal(orig.group_sums, rest.group_sums)
            assert np.array_equal(orig.image_scores, rest.image_scores)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bva"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError):
            read_attention(path)


class TestManifest:
    def test_load_and_validate(self, tmp_path):
        for i in range(2):
            write_tensor(gaussian_matrix(i, shape=(4, 4), name=f"l{i}"),
                         tmp_path / f"l{i}.bvw")
        doc = [{"name": "l0", "path": "l0.bvw", "role": "vision"},
               {"name": "l1", "path": "l1.bvw", "role": "language",
                "p_sal_max": 0.02}]
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        manifest = read_manifest(mpath)
        assert len(manifest.entries) == 2
        assert manifest.entries[0].role == Role.VISION
        assert manifest.entries[1].p_sal_max == 0.02

    def test_duplicate_names_rejected(self, tmp_path):
        write_tensor(gaussian_matrix(0, shape=(2, 2)), tmp_path / "a.bvw")
        doc = [{"name": "x", "path": "a.bvw", "role": "vision"},
               {"name": "x", "path": "a.bvw", "role": "vision"}]
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            read_manifest(mpath)

    def test_missing_tensor_rejected(self, tmp_path):
        doc = [{"name": "x", "path": "missing.bvw", "role": "vision"}]
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            read_manifest(mpath)

    def test_wrong_size_rejected(self, tmp_path):
        path = tmp_path / "a.bvw"
        write_tensor(gaussian_matrix(0, shape=(2, 2)), path)
        path.write_bytes(path.read_bytes() + b"extra")
        doc = [{"name": "x", "path": "a.bvw", "role": "vision"}]
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            read_manifest(mpath)


def test_attention_roundtrip_random(tmp_path):
    rng = np.random.default_rng(21)
    tensors = []
    for j in range(6):
        n = int(rng.integers(1, 9))
        n_img = int(rng.integers(1, 17))
        img = rng.random((n, n_img)).astype(np.float32) * 0.1
        sums = rng.dirichlet(np.ones(4), size=n).astype(np.float32)
        tensors.append(AttentionTensor(layer_index=j, group_sums=sums,
                                       image_scores=img,
                                       group_sizes=(int(rng.integers(0, 5)), n_img,
                                                    int(rng.integers(0, 5)), n)))
    path = tmp_path / "rand.bva"
    write_attention(tensors, path)
    back = read_attention(path)
    for orig, rest in zip(tensors, back):
        assert orig.group_sizes == rest.group_sizes
        assert np.array_equal(orig.group_sums, rest.group_sums)
        assert np.array_equal(orig.image_scores, rest.image_scores)
