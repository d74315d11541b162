"""Bit-exact file formats for weight matrices, quantized artifacts, and attention scores.

Three container formats, all little-endian with fixed field widths:

``.bvw`` weight tensor
    magic "BVW1", version u16, dtype u8 (0 = IEEE 754 binary32), role u8,
    rank u32 (always 2), dims as two u64, then the row-major f32 payload.

``.bvq`` quantized artifact
    magic "BVQ1", version u16, layer count u32, then per layer: name
    (u16 length + UTF-8), role u8, m and n (u64), config echo, salient level
    parameters and centers, salient row-scales (binary16 by default),
    unsalient scalars, the group codebook, and the three packed streams
    (group indices, salient codes, sign bits), each length-prefixed.

``.bva`` attention scores
    magic "BVA1", version u16, layer count u32, then per layer: layer index
    u32, output-token count n u32, image-token count u32, the four group
    sizes u32, then n rows of (4 group sums + per-image-token scores) as f32.

The manifest is a JSON array of {"name", "path", "role", "p_sal_max"?}.
"""

import json
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import bit_packer
from .config import QuantConfig
from .errors import (DomainError, FormatError, IoError, TruncationError,
                     ValidationError)
from .salient_quantizer import SalientQuant

TENSOR_MAGIC = b"BVW1"
ARTIFACT_MAGIC = b"BVQ1"
ATTENTION_MAGIC = b"BVA1"
FORMAT_VERSION = 1

_DTYPE_F32 = 0


class Role(Enum):
    VISION = "vision"
    LANGUAGE = "language"
    ADAPTOR = "adaptor"


_ROLE_CODES = {Role.VISION: 0, Role.LANGUAGE: 1, Role.ADAPTOR: 2}
_ROLE_FROM_CODE = {v: k for k, v in _ROLE_CODES.items()}


def _as_role(role) -> Role:
    if isinstance(role, Role):
        return role
    try:
        return Role(role)
    except ValueError:
        raise FormatError(f"unknown role {role!r}") from None


@dataclass
class WeightMatrix:
    """One layer's weights: an (m, n) float32 array plus metadata."""

    name: str
    role: Role
    data: np.ndarray

    def __post_init__(self):
        self.role = _as_role(self.role)
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise ValueError(f"weight data must be 2-D, got shape {self.data.shape}")

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def require_finite(self):
        if not np.all(np.isfinite(self.data)):
            raise ValueError(f"tensor {self.name!r} contains non-finite values")

    def squared_norm(self) -> float:
        """Squared Frobenius norm, accumulated in float64 (one copy, squared in place)."""
        sq = self.data.astype(np.float64)
        return float(np.sum(np.square(sq, out=sq)))


@dataclass
class AttentionTensor:
    """Recorded attention masses for one layer.

    group_sums holds, per output token, the attention mass on each of the
    four input groups (system, image, instruction, output); image_scores
    holds the per-image-token breakdown. A tensor whose system, instruction,
    and output group sizes are all zero is a vision-encoder tensor.
    """

    layer_index: int
    group_sums: np.ndarray    # (n, 4) float32
    image_scores: np.ndarray  # (n, n_img) float32
    group_sizes: tuple[int, int, int, int]  # (n_sys, n_img, n_ins, n_out)

    def __post_init__(self):
        self.group_sums = np.ascontiguousarray(self.group_sums, dtype=np.float32)
        self.image_scores = np.ascontiguousarray(self.image_scores, dtype=np.float32)
        if self.group_sums.ndim != 2 or self.group_sums.shape[1] != 4:
            raise ValueError("group_sums must have shape (n, 4)")
        if self.image_scores.ndim != 2:
            raise ValueError("image_scores must be 2-D")
        if self.image_scores.shape[0] != self.group_sums.shape[0]:
            raise ValueError("group_sums and image_scores disagree on token count")

    @property
    def n_tokens(self) -> int:
        return self.group_sums.shape[0]

    @property
    def n_img(self) -> int:
        return self.image_scores.shape[1]

    @property
    def is_vision(self) -> bool:
        n_sys, _, n_ins, n_out = self.group_sizes
        return n_sys == 0 and n_ins == 0 and n_out == 0


@dataclass
class ManifestEntry:
    name: str
    path: Path
    role: Role
    p_sal_max: float | None = None

    def load(self) -> WeightMatrix:
        """Read the entry's tensor under the manifest's layer name and role."""
        matrix = read_tensor(self.path)
        matrix.name = self.name
        matrix.role = self.role
        return matrix


@dataclass
class ModelManifest:
    entries: list[ManifestEntry]


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _write_bytes(path, payload: bytes):
    try:
        Path(path).write_bytes(payload)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


class _Reader:
    """Cursor over a byte buffer raising TruncationError on short reads."""

    def __init__(self, buf: bytes, origin: str):
        self.buf = buf
        self.pos = 0
        self.origin = origin

    def take(self, size: int) -> bytes:
        if self.pos + size > len(self.buf):
            raise TruncationError(
                f"{self.origin}: needed {size} bytes at offset {self.pos}, "
                f"only {len(self.buf) - self.pos} left")
        out = self.buf[self.pos:self.pos + size]
        self.pos += size
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        dt = np.dtype(dtype).newbyteorder("<")
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt).copy()

    def done(self):
        if self.pos != len(self.buf):
            raise FormatError(f"{self.origin}: {len(self.buf) - self.pos} trailing bytes")


def _check_magic(reader: _Reader, magic: bytes):
    got = reader.take(len(magic))
    if got != magic:
        raise FormatError(f"{reader.origin}: bad magic {got!r}, expected {magic!r}")
    (version,) = reader.unpack("H")
    if version != FORMAT_VERSION:
        raise FormatError(f"{reader.origin}: unsupported version {version}")


# --- weight tensors ---------------------------------------------------------

def write_tensor(matrix: WeightMatrix, path):
    """Write a weight matrix as a .bvw file; rereading yields an equal matrix."""
    if matrix.m < 1 or matrix.n < 1:
        raise FormatError(f"cannot write degenerate tensor of shape "
                          f"{matrix.m}x{matrix.n}")
    matrix.require_finite()
    header = TENSOR_MAGIC + struct.pack(
        "<HBBIQQ", FORMAT_VERSION, _DTYPE_F32, _ROLE_CODES[matrix.role], 2,
        matrix.m, matrix.n)
    payload = matrix.data.astype("<f4", copy=False).tobytes()
    _write_bytes(path, header + payload)


def _tensor_header(reader: _Reader):
    """Parse a .bvw header up to the payload; returns (role, m, n)."""
    _check_magic(reader, TENSOR_MAGIC)
    dtype_code, role_code, rank = reader.unpack("BBI")
    if dtype_code != _DTYPE_F32:
        raise FormatError(f"{reader.origin}: unsupported dtype code {dtype_code}")
    if role_code not in _ROLE_FROM_CODE:
        raise FormatError(f"{reader.origin}: unknown role code {role_code}")
    if rank != 2:
        raise FormatError(f"{reader.origin}: rank must be 2, got {rank}")
    m, n = reader.unpack("QQ")
    if m < 1 or n < 1:
        raise FormatError(f"{reader.origin}: degenerate dims {m}x{n}")
    return _ROLE_FROM_CODE[role_code], m, n


def read_tensor(path) -> WeightMatrix:
    """Read a .bvw file; the layer name defaults to the file stem."""
    reader = _Reader(_read_bytes(path), str(path))
    role, m, n = _tensor_header(reader)
    data = reader.array("f4", m * n).reshape(m, n)
    reader.done()
    matrix = WeightMatrix(name=Path(path).stem, role=role, data=data)
    matrix.require_finite()
    return matrix


# --- manifests --------------------------------------------------------------

def read_manifest(path) -> ModelManifest:
    """Load and validate a JSON manifest; tensor paths resolve relative to it."""
    raw = _read_bytes(path)
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # also undecodable (non-UTF) text
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise FormatError(f"{path}: manifest must be a JSON array")
    base = Path(path).parent
    entries = []
    seen = set()
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or not {"name", "path", "role"} <= set(item):
            raise FormatError(f"{path}: entry {i} needs 'name', 'path', and 'role'")
        name, p_cap = item["name"], item.get("p_sal_max")
        if not isinstance(name, str) or not isinstance(item["path"], str):
            raise FormatError(f"{path}: entry {i} 'name' and 'path' must be strings")
        if name in seen:
            raise FormatError(f"{path}: duplicate layer name {name!r}")
        seen.add(name)
        tensor_path = base / item["path"]
        _validate_tensor_header(tensor_path)
        if p_cap is not None and not (type(p_cap) in (int, float) and 0.0 < p_cap < 1.0):
            raise FormatError(f"{path}: entry {name!r} p_sal_max must be a number in (0, 1)")
        entries.append(ManifestEntry(name=name, path=tensor_path,
                                     role=_as_role(item["role"]),
                                     p_sal_max=None if p_cap is None else float(p_cap)))
    return ModelManifest(entries=entries)


def _validate_tensor_header(path):
    """Check a referenced tensor parses: header fields plus exact file size."""
    try:
        size = Path(path).stat().st_size
        with open(path, "rb") as fh:
            head = fh.read(28)
    except OSError as exc:
        raise FormatError(f"manifest references unreadable tensor {path}: {exc}") from exc
    _, m, n = _tensor_header(_Reader(head, str(path)))
    if size != 28 + 4 * m * n:
        raise FormatError(f"{path}: file size {size} does not match dims {m}x{n}")


# --- quantized artifacts ----------------------------------------------------

@dataclass
class QuantizedLayer:
    """Everything needed to reconstruct one quantized layer, as a .bvq layer holds it.

    labels is the group-index matrix (unsalient shells 0..n_uns-1, salient
    = n_uns); each element belongs to exactly one group, so the salient and
    unsalient reconstructions have disjoint supports that cover the matrix.
    scalars holds one nonnegative scalar per shell at the stored scale width;
    signs holds one bool per unsalient element in row-major order (True =
    +1), which is the packed sign stream. An unsalient element reconstructs
    as scalars[label] times its sign, a salient one from `salient`.
    """

    name: str
    role: Role
    m: int
    n: int
    labels: np.ndarray
    salient: SalientQuant
    scalars: np.ndarray
    signs: np.ndarray
    p_sal_used: float
    p_sal_max: float
    config: QuantConfig

    def validate(self):
        cfg = self.config
        if self.labels.shape != (self.m, self.n):
            raise ValidationError(f"layer {self.name!r}: label shape mismatch")
        counts = np.bincount(self.labels.ravel(), minlength=cfg.n_uns + 1)
        if counts.size > cfg.n_uns + 1:
            raise ValidationError(f"layer {self.name!r}: label outside group range")
        if self.salient.scales.shape != (self.m,):
            raise ValidationError(f"layer {self.name!r}: need one scale per row")
        if self.salient.codes.size != counts[cfg.n_uns]:
            raise ValidationError(f"layer {self.name!r}: salient code count mismatch")
        if self.salient.centers.size != 2 ** cfg.n_bits:
            raise ValidationError(f"layer {self.name!r}: center table size mismatch")
        if self.scalars.shape != (cfg.n_uns,):
            raise ValidationError(f"layer {self.name!r}: expected {cfg.n_uns} scalars")
        if not np.all(np.isfinite(self.scalars) & (self.scalars >= 0.0)):
            raise ValidationError(f"layer {self.name!r}: shell scalar negative or not finite")
        sal = self.salient
        if not (np.isfinite(sal.scales).all() and np.isfinite(sal.centers).all()):
            raise ValidationError(f"layer {self.name!r}: salient scale or center not finite")
        if self.signs.size != self.labels.size - counts[cfg.n_uns]:
            raise ValidationError(f"layer {self.name!r}: sign count mismatch")
        if not 0.0 <= self.p_sal_used <= 1.0:
            raise ValidationError(f"layer {self.name!r}: invalid p_sal_used")
        if not 0.0 < self.p_sal_max < 1.0:
            raise ValidationError(f"layer {self.name!r}: p_sal_max outside (0, 1)")

    def dense(self, dtype=np.float64) -> np.ndarray:
        """Reconstruction of the layer as `dtype`.

        Each element takes its group's signed scalar from a (group, sign)
        table in one gather; the salient values, computed in float64, are
        then written over their positions. So a float32 reconstruction is
        the float64 one rounded.
        """
        salient = self.labels == self.config.n_uns
        positive = np.ones(self.labels.shape, dtype=bool)
        positive[~salient] = self.signs
        signed = np.append(self.scalars, 0.0).astype(dtype).repeat(2)
        signed[::2] *= -1  # entry 2 * group + sign; fits uint8 as n_uns <= 127
        out = signed[(self.labels.astype(np.uint8) << 1) | positive]
        where = np.flatnonzero(salient)
        sal = self.salient
        out.ravel()[where] = (sal.scales.astype(np.float64)[where // self.n]
                              * sal.centers[sal.codes])
        return out


def _pack_scales(values: np.ndarray, width: int) -> bytes:
    dt = "<f2" if width == 16 else "<f4"
    return np.asarray(values).astype(dt, copy=False).tobytes()


def _blob(data: bytes) -> bytes:
    return struct.pack("<Q", len(data)) + data


def write_artifact(layers, path):
    """Serialize quantized layers to a .bvq file (lossless round trip)."""
    chunks = [ARTIFACT_MAGIC, struct.pack("<HI", FORMAT_VERSION, len(layers))]
    for layer in layers:
        if not isinstance(layer, QuantizedLayer):
            raise ValidationError("write_artifact expects QuantizedLayer values")
        layer.validate()
        cfg = layer.config
        name_bytes = layer.name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack(
            "<BQQBBBBdHBdd", _ROLE_CODES[layer.role], layer.m, layer.n,
            cfg.n_uns, cfg.n_bits, cfg.scale_width, cfg.l_i_max, cfg.alpha,
            cfg.iters, int(cfg.optimize_saliency), layer.p_sal_max,
            layer.p_sal_used))
        sal = layer.salient
        chunks.append(struct.pack("<dd", sal.mu_b, sal.sigma_b))
        chunks.append(sal.centers.astype("<f8").tobytes())
        chunks.append(_pack_scales(sal.scales, cfg.scale_width))
        chunks.append(_pack_scales(layer.scalars, cfg.scale_width))

        book = bit_packer.layer_codebook(layer)
        chunks.append(bytes(book.lengths))
        chunks.append(struct.pack("<B", 0xFF if book.solo is None else book.solo))
        chunks.append(_blob(bit_packer.pack_stream(layer.labels.ravel(), book)))
        code_book = bit_packer.CodeBook.fixed(2 ** cfg.n_bits, cfg.n_bits)
        chunks.append(_blob(bit_packer.pack_stream(sal.codes, code_book)))
        chunks.append(_blob(np.packbits(layer.signs).tobytes()))
    _write_bytes(path, b"".join(chunks))


def _index_codebook(lengths: list[int], solo: int | None, origin: str):
    """Codebook of a stored group-index stream, checked before any decoding.

    The writer stores either a complete Huffman code over the n_uns + 1
    groups, whose depth is at most n_uns (and MAX_CODE_LEN), or all-zero
    lengths with a solo group in range. Anything else would decode to
    garbage or ask for a decode table of 2**length entries.
    """
    depth = min(len(lengths) - 1, bit_packer.MAX_CODE_LEN)
    if solo is None:
        valid = (0 < max(lengths) <= depth
                 and sum(1 << (depth - l) for l in lengths if l) == 1 << depth)
    else:
        valid = max(lengths) == 0 and solo < len(lengths)
    if not valid:
        raise FormatError(f"{origin}: invalid group codebook (lengths {lengths}, "
                          f"solo {solo})")
    return bit_packer.CodeBook.from_lengths(lengths, solo=solo)


def read_artifact(path) -> list:
    """Parse a .bvq file back into QuantizedLayer values, each validated."""
    reader = _Reader(_read_bytes(path), str(path))
    _check_magic(reader, ARTIFACT_MAGIC)
    (layer_count,) = reader.unpack("I")
    layers = []
    for _ in range(layer_count):
        (name_len,) = reader.unpack("H")
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: layer name is not UTF-8: {exc}") from exc
        (role_code, m, n, n_uns, n_bits, scale_width, l_i_max, alpha, iters,
         optimize, p_sal_max, p_sal_used) = reader.unpack("BQQBBBBdHBdd")
        if role_code not in _ROLE_FROM_CODE:
            raise FormatError(f"{path}: unknown role code {role_code}")
        try:
            cfg = QuantConfig(n_uns=n_uns, n_bits=n_bits, p_sal_max=None,
                              alpha=alpha, iters=iters, scale_width=scale_width,
                              l_i_max=l_i_max, optimize_saliency=bool(optimize))
        except DomainError as exc:
            raise FormatError(f"{path}: layer {name!r}: {exc}") from exc
        # Every weight costs at least one stored bit: an index code, a sign
        # or a salient code. Checked before any (m, n)-sized allocation.
        if m * n > 8 * (len(reader.buf) - reader.pos):
            raise TruncationError(f"{path}: layer {name!r} declares {m}x{n} weights, "
                                  f"more than the remaining bytes can hold")
        mu_b, sigma_b = reader.unpack("dd")
        centers = reader.array("f8", 2 ** n_bits)
        scale_dt = "f2" if scale_width == 16 else "f4"
        scales = reader.array(scale_dt, m)
        scalars = reader.array(scale_dt, n_uns)

        lengths = list(reader.take(n_uns + 1))
        (solo,) = reader.unpack("B")
        book = _index_codebook(lengths, None if solo == 0xFF else solo,
                               f"{path}: layer {name!r}")
        (index_len,) = reader.unpack("Q")
        # Group indices are at most n_uns <= 127, so the int8 view keeps them.
        labels = bit_packer.unpack_stream(reader.take(index_len), book, m * n)
        labels = labels.view(np.int8).reshape(m, n)

        salient_count = int(np.count_nonzero(labels == n_uns))
        (codes_len,) = reader.unpack("Q")
        code_book = bit_packer.CodeBook.fixed(2 ** n_bits, n_bits)
        codes = bit_packer.unpack_stream(reader.take(codes_len), code_book,
                                         salient_count)
        (signs_len,) = reader.unpack("Q")
        sign_count = m * n - salient_count
        sign_bytes = reader.take(signs_len)
        if signs_len * 8 < sign_count:
            raise TruncationError(f"{path}: sign stream too short for layer {name!r}")
        signs = np.unpackbits(np.frombuffer(sign_bytes, dtype=np.uint8),
                              count=sign_count).astype(bool)

        salient = SalientQuant(scales=scales, codes=codes, centers=centers,
                               mu_b=mu_b, sigma_b=sigma_b, alpha=alpha)
        layer = QuantizedLayer(name=name, role=_ROLE_FROM_CODE[role_code],
                               m=m, n=n, labels=labels, salient=salient,
                               scalars=scalars, signs=signs, p_sal_used=p_sal_used,
                               p_sal_max=p_sal_max, config=cfg)
        try:
            layer.validate()
        except ValidationError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        layers.append(layer)
    reader.done()
    return layers


# --- attention tensors ------------------------------------------------------

def write_attention(tensors: list[AttentionTensor], path):
    chunks = [ATTENTION_MAGIC, struct.pack("<HI", FORMAT_VERSION, len(tensors))]
    for t in tensors:
        n_sys, n_img, n_ins, n_out = t.group_sizes
        if n_img != t.n_img:
            raise ValidationError(
                f"layer {t.layer_index}: group size {n_img} != score columns {t.n_img}")
        chunks.append(struct.pack("<IIIIIII", t.layer_index, t.n_tokens, t.n_img,
                                  n_sys, n_img, n_ins, n_out))
        row_block = np.concatenate([t.group_sums, t.image_scores], axis=1)
        chunks.append(row_block.astype("<f4", copy=False).tobytes())
    _write_bytes(path, b"".join(chunks))


def read_attention(path) -> list[AttentionTensor]:
    reader = _Reader(_read_bytes(path), str(path))
    _check_magic(reader, ATTENTION_MAGIC)
    (count,) = reader.unpack("I")
    tensors = []
    for _ in range(count):
        layer_index, n_tokens, n_img, n_sys, n_img2, n_ins, n_out = reader.unpack(
            "IIIIIII")
        if n_img != n_img2:
            raise FormatError(f"{path}: inconsistent image-token counts "
                              f"({n_img} vs {n_img2}) in layer {layer_index}")
        block = reader.array("f4", n_tokens * (4 + n_img)).reshape(n_tokens, 4 + n_img)
        tensors.append(AttentionTensor(layer_index=layer_index,
                                       group_sums=block[:, :4],
                                       image_scores=block[:, 4:],
                                       group_sizes=(n_sys, n_img, n_ins, n_out)))
    reader.done()
    return tensors
