import json
import re
import struct
import tracemalloc
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
from binq import bit_packer
from binq.bit_packer import storage_report
from binq.cli import main
from binq.saliency_optimizer import LayerObjective
from binq.salient_quantizer import SalientQuant
from binq.tensor_store import AttentionTensor, QuantizedLayer
from conftest import gaussian_matrix, outlier_matrix

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
            and np.array_equal(a.signs, b.signs))


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

    def test_zero_row_matrix_rejected(self, tmp_path):
        mat = WeightMatrix("z", Role.VISION, np.zeros((0, 4), np.float32))
        with pytest.raises(FormatError):
            write_tensor(mat, tmp_path / "z.bvw")

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
        """Both readers read version 2 and refuse versions 1 and 3: the written
        file patched to each, and tests/data/golden_v1.bvq."""
        mat = gaussian_matrix(0, shape=(8, 8))
        path = tmp_path / "v.bvq"
        write_artifact([quantize_layer(mat)], path)
        raw = path.read_bytes()
        assert raw[4:6] == struct.pack("<H", 2)
        read_artifact(path)
        read_layer_headers(path)
        refused = [(DATA / "golden_v1.bvq", 1)]
        for version in (1, 3):
            patched = tmp_path / f"v{version}.bvq"
            patched.write_bytes(raw[:4] + struct.pack("<H", version) + raw[6:])
            refused.append((patched, version))
        for bad, version in refused:
            for reader in (read_artifact, read_layer_headers):
                with pytest.raises(FormatError, match=f"unsupported version {version} ") as info:
                    reader(bad)
                assert "re-quantize" in str(info.value)

    def test_write_is_all_or_nothing(self, tmp_path):
        """A write that fails, on a bad layer, a record count other than the one
        announced or an unwritable path, leaves no temporary file and an earlier
        file at the path as it was."""
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

    def test_degenerate_constant_layer(self, tmp_path):
        mat = WeightMatrix("c", Role.LANGUAGE, np.full((6, 6), 2.0, np.float32))
        layer = quantize_layer(mat)
        path = tmp_path / "c.bvq"
        write_artifact([layer], path)
        (back,) = read_artifact(path)
        assert layers_equal(layer, back)


def reseal(raw):
    """Recompute the CRC of a one-layer file's record, after the 10-byte file header."""
    raw[-4:] = struct.pack("<I", zlib.crc32(raw[10:-4]))


def _fields_offset(layer):
    """Byte offset of the first layer's fixed fields (role, m, n, n_uns, ...)."""
    return 4 + 2 + 4 + 2 + len(layer.name.encode())


def _code_length_offset(layer):
    """Byte offset of the first layer's group code lengths in a .bvq file."""
    cfg = layer.config
    return (_fields_offset(layer) + struct.calcsize("<BQQBBBBdHBdd") + 16
            + 8 * 2 ** cfg.n_bits + 2 * (layer.m + cfg.n_uns))  # binary16 scales


def _corrupt_length(byte):
    def corrupt(raw, layer):
        raw[_code_length_offset(layer)] = byte
    return corrupt


def _break_kraft(raw, layer):
    # Every group one bit long: six one-bit codes cannot be prefix-free.
    off = _code_length_offset(layer)
    raw[off:off + layer.config.n_uns + 1] = bytes([1] * (layer.config.n_uns + 1))


def _corrupt_solo(raw, layer):
    raw[_code_length_offset(layer) + layer.config.n_uns + 1] = 9


def _negative_scalar(raw, layer):
    off = _code_length_offset(layer) - 2 * layer.config.n_uns
    raw[off:off + 2] = np.array([-1.0], "<f2").tobytes()


def _nan_scalar(raw, layer):
    off = _code_length_offset(layer) - 2 * layer.config.n_uns
    raw[off:off + 2] = np.array([np.nan], "<f2").tobytes()


def _float_field(fields_before, value=np.nan):
    """Damage: `value` in the float64 header field that follows `fields_before`."""
    def corrupt(raw, layer):
        off = _fields_offset(layer) + struct.calcsize("<" + fields_before)
        raw[off:off + 8] = struct.pack("<d", value)
    return corrupt


def _count_off_by_one(raw, layer):
    off = _code_length_offset(layer) + layer.config.n_uns + 2
    (count,) = struct.unpack_from("<Q", raw, off)
    struct.pack_into("<Q", raw, off, count + 1)


def _zero_shells(raw, layer):
    raw[_fields_offset(layer) + struct.calcsize("<BQQ")] = 0


def _int8_overflow_shells(raw, layer):
    # 130 shells fit 8-bit indices but not the int8 labels; binq reads index width 3 only.
    off = _fields_offset(layer) + struct.calcsize("<BQQ")
    raw[off] = 130
    raw[off + 3] = 8


def _huge_columns(raw, layer):
    # A solo-coded layer stores no index bits, so only the declared size
    # says how many labels to materialize.
    off = _fields_offset(layer) + struct.calcsize("<BQ")
    raw[off:off + 8] = struct.pack("<Q", 2 ** 37)


def _name_not_utf8(raw, layer):
    raw[_fields_offset(layer) - 1] = 0xFF


# (how the file is damaged, whether the layer is constant): a constant layer
# stores all-zero code lengths and a solo group.
MALFORMED = {
    "code_length_60": (_corrupt_length(60), False),
    "code_length_30": (_corrupt_length(30), False),
    "kraft_violated": (_break_kraft, False),
    "solo_out_of_range": (_corrupt_solo, True),
    "negative_scalar": (_negative_scalar, False),
    "nan_scalar": (_nan_scalar, False),
    "nan_alpha": (_float_field("BQQBBBB"), False),
    "nan_p_sal_max": (_float_field("BQQBBBBdHB"), False),
    "p_sal_used_above_cap": (_float_field("BQQBBBBdHBd", 0.5), False),
    "nan_mu_b": (_float_field("BQQBBBBdHBdd"), False),
    "inf_sigma_b": (_float_field("BQQBBBBdHBddd", np.inf), False),
    "counts_off_by_one": (_count_off_by_one, False),
    "zero_shells": (_zero_shells, False),
    "shells_beyond_int8": (_int8_overflow_shells, False),
    "huge_columns": (_huge_columns, True),
    "name_not_utf8": (_name_not_utf8, False),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact_rejected(tmp_path, capsys, case):
    from binq.cli import main
    corrupt, constant = MALFORMED[case]
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
    with pytest.raises(FormatError):
        read_artifact(path)
    with pytest.raises(FormatError):
        read_layer_headers(path)
    assert main(["report", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def _widths(scale_width, index_width, n_uns):
    """Damage: the config echo's scale width, index width and shell count set to these."""
    def corrupt(raw, layer):
        off = _fields_offset(layer) + struct.calcsize("<BQQ")
        raw[off:off + 4] = bytes([n_uns, layer.config.n_bits, scale_width, index_width])
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_widths(32, 3, 5), "re-quantize"),
    (_widths(16, 4, 6), "re-quantize"),
    (_widths(16, 3, 6), "n_uns must lie in [1, 5]"),
], ids=["scale_width_32", "index_width_4_n_uns_6", "n_uns_6"])
def test_other_widths_refused_before_decode(tmp_path, capsys, monkeypatch, corrupt, message):
    """A record whose scales are not binary16, or whose index width is not 3
    (and so may address more than five shells), is refused from its header."""
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
    positive[~salient] = layer.signs
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
                           signs=rng.random(m * n - int(counts[-1])) < 0.5)
    layer.validate()
    return layer


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, chunk", [((40, 50), None), ((40, 50), 64), ((5, 7), 64),
                                          ((1, 1), None), ((1, 9), None)],
                         ids=["40x50", "40x50-chunk64", "5x7-chunk64", "1x1", "1x9"])
def test_dense_matches_whole_layer_gather(shape, chunk, dtype, monkeypatch):
    # Salient elements on every other chunk edge, so each edge has salient and
    # unsalient elements on both sides across the layers; (5, 7) at 64 is
    # smaller than one chunk.
    if chunk is not None:
        monkeypatch.setattr(bit_packer, "chunk_length", lambda size: chunk)
    size = shape[0] * shape[1]
    step = bit_packer.chunk_length(size)
    edges = [e for k in range(2, size // step + 1, 2) for e in (k * step - 1, k * step)]
    for seed in range(3):
        layer = planted_layer(shape, [e for e in edges if e < size], seed)
        got = layer.dense(dtype)
        assert got.dtype == dtype and got.shape == shape
        assert np.array_equal(got, dense_whole_layer(layer, dtype))


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_load_memory_per_weight(tmp_path):
    # Traced peaks on a 1024x1024 Student-t layer (numpy 2.4): read_artifact
    # 5.77 bytes per weight and dense(np.float32) 3.07 beyond its output with
    # a whole-layer cell matrix and gather; 4.87 and 0.86 in chunks.
    rng = np.random.default_rng(5)
    mat = WeightMatrix("t", Role.LANGUAGE, 0.02 * rng.standard_t(5, (1024, 1024)))
    path = tmp_path / "t.bvq"
    write_artifact([quantize_layer(mat, QuantConfig(optimize_saliency=False))], path)
    weights = mat.m * mat.n
    (layer,), peak = traced_peak(lambda: read_artifact(path))
    assert peak / weights < 5.3
    out, peak = traced_peak(lambda: layer.dense(np.float32))
    assert np.array_equal(out, dense_whole_layer(layer, np.float32))
    assert (peak - out.nbytes) / weights < 1.5


def test_decoded_counts_must_match_stored(tmp_path):
    """Two shells with codes of one length swap their stored counts, and the
    CRC is recomputed. The codebook and stream lengths still agree with the
    counts, so the header reader, which decodes nothing, takes the record;
    read_artifact decodes the index stream and refuses it."""
    layer = quantize_layer(outlier_matrix(1, shape=(16, 16), frac=0.02, magnitude=6.0))
    path = tmp_path / "m.bvq"
    write_artifact([layer], path)
    raw = bytearray(path.read_bytes())
    lengths = layer.codebook.lengths
    i, j = next((i, j) for i in range(layer.config.n_uns) for j in range(i)
                if lengths[i] == lengths[j] and layer.counts[i] != layer.counts[j])
    off = _code_length_offset(layer) + layer.config.n_uns + 2
    counts = list(layer.counts)
    counts[i], counts[j] = counts[j], counts[i]
    raw[off:off + 8 * len(counts)] = struct.pack(f"<{len(counts)}Q", *counts)
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
