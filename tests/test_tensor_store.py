import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binq import (FormatError, QuantConfig, Role, TruncationError, WeightMatrix,
                  quantize_layer, read_artifact, read_attention, read_manifest,
                  read_tensor, write_artifact, write_attention, write_tensor)
from binq.bit_packer import storage_report
from binq.tensor_store import AttentionTensor
from conftest import gaussian_matrix, outlier_matrix


def layers_equal(a, b):
    if (a.name, a.role, a.m, a.n) != (b.name, b.role, b.m, b.n):
        return False
    if not np.array_equal(a.labels, b.labels):
        return False
    if a.p_sal_used != b.p_sal_used or a.p_sal_max != b.p_sal_max:
        return False
    sa, sb = a.salient, b.salient
    if not (np.array_equal(sa.scales, sb.scales)
            and np.array_equal(sa.codes, sb.codes)
            and np.array_equal(sa.centers, sb.centers)):
        return False
    if (sa.mu_b, sa.sigma_b, sa.alpha) != (sb.mu_b, sb.sigma_b, sb.alpha):
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
        mat = gaussian_matrix(0, shape=(8, 8))
        path = tmp_path / "v.bvq"
        write_artifact([quantize_layer(mat)], path)
        raw = bytearray(path.read_bytes())
        raw[4] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_artifact(path)

    def test_degenerate_constant_layer(self, tmp_path):
        mat = WeightMatrix("c", Role.LANGUAGE, np.full((6, 6), 2.0, np.float32))
        layer = quantize_layer(mat)
        path = tmp_path / "c.bvq"
        write_artifact([layer], path)
        (back,) = read_artifact(path)
        assert layers_equal(layer, back)


def _fields_offset(layer):
    """Byte offset of the first layer's fixed fields (role, m, n, n_uns, ...)."""
    return 4 + 2 + 4 + 2 + len(layer.name.encode())


def _code_length_offset(layer):
    """Byte offset of the first layer's group code lengths in a .bvq file."""
    cfg = layer.config
    return (_fields_offset(layer) + struct.calcsize("<BQQBBBBdHBdd") + 16
            + 8 * 2 ** cfg.n_bits + cfg.scale_width // 8 * (layer.m + cfg.n_uns))


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


def _nan_field(fields_before):
    """Damage: NaN in the float64 header field that follows `fields_before`."""
    def corrupt(raw, layer):
        off = _fields_offset(layer) + struct.calcsize("<" + fields_before)
        raw[off:off + 8] = struct.pack("<d", np.nan)
    return corrupt


def _zero_shells(raw, layer):
    raw[_fields_offset(layer) + struct.calcsize("<BQQ")] = 0


def _int8_overflow_shells(raw, layer):
    # 130 shells fit 8-bit indices but not the int8 labels.
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
    "nan_alpha": (_nan_field("BQQBBBB"), False),
    "nan_p_sal_max": (_nan_field("BQQBBBBdHB"), False),
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
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_artifact(path)
    assert main(["report", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


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
