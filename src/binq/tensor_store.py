"""Bit-exact file formats for weight matrices, quantized artifacts, and attention scores.

Three container formats, all little-endian with fixed field widths:

``.bvw`` weight tensor, version 1
    magic "BVW1", version u16, dtype u8 (0 = IEEE 754 binary32), role u8,
    rank u32 (always 2), dims as two u64, then the row-major f32 payload.

``.bvq`` quantized artifact, version 2
    magic "BVQ1", version u16, layer count u32, then per layer: name
    (u16 length + UTF-8), role u8, m and n (u64), config echo (its scale
    width always 16 and index width always 3; other values are refused),
    salient level parameters and centers, salient row-scales and unsalient
    scalars (binary16), the group codebook, the n_uns + 1 group counts (u64,
    salient last), the three packed streams (group indices, salient codes,
    sign bits), each length-prefixed, and a CRC32 (u32) of the record from
    the name length to the end of the sign stream. The counts fix every
    stream's length, so `read_layer_headers` checks a record without
    decoding a stream, and its header is all a storage report needs.
    Version 1, which stored neither counts nor CRC, is refused.

``.bva`` attention scores, version 1
    magic "BVA1", version u16, layer count u32, then per layer: layer index
    u32, output-token count n u32, image-token count u32, the four group
    sizes u32, then n rows of (4 group sums + per-image-token scores) as f32.

The manifest is a JSON array of {"name", "path", "role", "p_sal_max"?}.
"""

import json
import os
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from pathlib import Path

import numpy as np

from . import bit_packer
from .bit_packer import INDEX_WIDTH, SCALE_WIDTH
from .config import QuantConfig
from .errors import (DomainError, FormatError, IoError, TruncationError,
                     ValidationError)
from .salient_quantizer import SalientQuant

TENSOR_MAGIC = b"BVW1"
ARTIFACT_MAGIC = b"BVQ1"
ATTENTION_MAGIC = b"BVA1"
# The one version of each format that its writer stores and its reader reads.
TENSOR_VERSION = 1
ARTIFACT_VERSION = 2
ATTENTION_VERSION = 1

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
            raise ValueError("tensor contains non-finite values")

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


def _check_magic(reader: _Reader, magic: bytes, version: int, remedy: str = ""):
    """Check the magic and that the file is of `version`, the one the reader reads."""
    got = reader.take(len(magic))
    if got != magic:
        raise FormatError(f"{reader.origin}: bad magic {got!r}, expected {magic!r}")
    (got,) = reader.unpack("H")
    if got != version:
        raise FormatError(f"{reader.origin}: unsupported version {got} "
                          f"(binq reads version {version}){remedy}")


# --- weight tensors ---------------------------------------------------------

def write_tensor(matrix: WeightMatrix, path):
    """Write a weight matrix as a .bvw file; rereading yields an equal matrix."""
    if matrix.m < 1 or matrix.n < 1:
        raise FormatError(f"cannot write degenerate tensor of shape "
                          f"{matrix.m}x{matrix.n}")
    matrix.require_finite()
    header = TENSOR_MAGIC + struct.pack(
        "<HBBIQQ", TENSOR_VERSION, _DTYPE_F32, _ROLE_CODES[matrix.role], 2,
        matrix.m, matrix.n)
    payload = matrix.data.astype("<f4", copy=False).tobytes()
    _write_bytes(path, header + payload)


def _tensor_header(reader: _Reader):
    """Parse a .bvw header up to the payload; returns (role, m, n)."""
    _check_magic(reader, TENSOR_MAGIC, TENSOR_VERSION)
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
    except (ValueError, RecursionError) as exc:  # also non-UTF text, too deep nesting
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise FormatError(f"{path}: manifest must be a JSON array")
    if not doc:
        raise FormatError(f"{path}: manifest lists no layers")
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
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise FormatError(f"manifest references unreadable tensor {path}: {exc}") from exc
    _, m, n = _tensor_header(_Reader(head, str(path)))
    if size != 28 + 4 * m * n:
        raise FormatError(f"{path}: file size {size} does not match dims {m}x{n}")


# --- quantized artifacts ----------------------------------------------------

@dataclass
class LayerHeader:
    """What a layer's storage report needs: its shape, config, shares and group counts.

    counts holds the number of elements of each group: the unsalient shells
    0..n_uns-1, then the salient group n_uns. With the config they fix the
    length of every packed stream. The config holds the layer's cap, which
    `p_sal_max` reads.
    """

    name: str
    role: Role
    m: int
    n: int
    counts: np.ndarray
    p_sal_used: float
    config: QuantConfig

    @property
    def p_sal_max(self) -> float:
        return self.config.p_sal_max

    @cached_property
    def codebook(self) -> "bit_packer.CodeBook":
        """Canonical Huffman codebook over the group counts, built once per header."""
        return bit_packer.CodeBook.from_frequencies(self.counts)

    def validate(self):
        # A Python-int sum: int64 counts cannot wrap around to m * n.
        if (self.counts.shape != (self.config.n_uns + 1,) or self.counts.min() < 0
                or sum(self.counts.tolist()) != self.m * self.n):
            raise ValidationError(f"layer {self.name!r}: group counts do not add up "
                                  f"to {self.m}x{self.n}")
        if self.p_sal_max is None:
            raise ValidationError(f"layer {self.name!r}: config has no p_sal_max")
        if not 0.0 <= self.p_sal_used <= self.p_sal_max:
            raise ValidationError(f"layer {self.name!r}: p_sal_used outside [0, p_sal_max]")


def _check_levels(name: str, scalars, scales, centers, *params):
    """Shell scalars finite and >= 0; salient scales, centers and level parameters finite."""
    if not np.all(np.isfinite(scalars) & (scalars >= 0.0)):
        raise ValidationError(f"layer {name!r}: shell scalar negative or not finite")
    if not (np.isfinite(scales).all() and np.isfinite(centers).all()
            and np.isfinite(params).all()):
        raise ValidationError(f"layer {name!r}: salient scale, center or level "
                              f"parameter not finite")


@dataclass
class QuantizedLayer(LayerHeader):
    """Everything needed to reconstruct one quantized layer, as a .bvq layer holds it.

    labels is the group-index matrix (unsalient shells 0..n_uns-1, salient
    = n_uns); each element belongs to exactly one group, so the salient and
    unsalient reconstructions have disjoint supports that cover the matrix.
    counts counts the labels; it is set where the labels are made, and
    nothing counts them again. scalars holds one nonnegative scalar per
    shell as stored, in binary16; signs holds one bool per unsalient
    element in row-major order (True = +1), which is the packed sign stream.
    An unsalient element reconstructs as scalars[label] times its sign, a
    salient one from `salient`.
    """

    labels: np.ndarray
    salient: SalientQuant
    scalars: np.ndarray
    signs: np.ndarray

    def validate(self):
        super().validate()
        cfg, sal, salient_count = self.config, self.salient, self.counts[-1]
        if self.labels.shape != (self.m, self.n):
            raise ValidationError(f"layer {self.name!r}: label shape mismatch")
        if sal.scales.shape != (self.m,):
            raise ValidationError(f"layer {self.name!r}: need one scale per row")
        if sal.codes.size != salient_count:
            raise ValidationError(f"layer {self.name!r}: salient code count mismatch")
        if sal.centers.size != 2 ** cfg.n_bits:
            raise ValidationError(f"layer {self.name!r}: center table size mismatch")
        if self.scalars.shape != (cfg.n_uns,):
            raise ValidationError(f"layer {self.name!r}: expected {cfg.n_uns} scalars")
        if self.signs.size != self.labels.size - salient_count:
            raise ValidationError(f"layer {self.name!r}: sign count mismatch")
        _check_levels(self.name, self.scalars, sal.scales, sal.centers, sal.mu_b, sal.sigma_b)

    def dense(self, dtype=np.float64) -> np.ndarray:
        """Reconstruction of the layer as `dtype`.

        Each element takes its group's signed scalar from a (group, sign)
        table, a chunk at a time through a reused code 2 * group + sign; the
        salient values, computed in float64, are then written over their
        positions. So a float32 reconstruction is the float64 one rounded.
        On 4096x1024 (numpy 2.4, Xeon) float32 takes 20-25 ms and 0.56 traced
        bytes per weight beyond its output (one gather: 28-31 ms, 3.0 bytes).
        """
        n_uns, labels = self.config.n_uns, self.labels.reshape(-1)
        where = np.flatnonzero(labels == n_uns)
        signed = np.append(self.scalars, 0.0).astype(dtype).repeat(2)
        signed[::2] *= -1  # entry 2 * group + sign; fits uint8 as n_uns <= 5
        out, step, at = np.empty(self.labels.shape, dtype), bit_packer.chunk_length(labels.size), 0
        # 2 * n_uns plus a stale sign gathers 0: all codes index `signed`, so "clip" is unbuffered.
        code, positive = np.empty(step, dtype=np.uint8), np.zeros(step, dtype=bool)
        for j in range(0, labels.size, step):
            part = labels[j:j + step]
            unsalient, chunk, sign = part != n_uns, code[:part.size], positive[:part.size]
            size = np.count_nonzero(unsalient)
            sign[unsalient], at = self.signs[at:at + size], at + size
            np.bitwise_or(np.left_shift(part, 1, out=chunk, casting="unsafe"), sign, out=chunk)
            np.take(signed, chunk, out=out.reshape(-1)[j:j + step], mode="clip")
        sal = self.salient
        out.ravel()[where] = (sal.scales.astype(np.float64)[where // self.n]
                              * sal.centers[sal.codes])
        return out


def _blob(data: bytes) -> bytes:
    return struct.pack("<Q", len(data)) + data


def _layer_record(layer: QuantizedLayer) -> bytes:
    """One layer's .bvq record followed by its CRC32; the layer is validated first."""
    if not isinstance(layer, QuantizedLayer):
        raise ValidationError("a .bvq record is written from a QuantizedLayer")
    layer.validate()
    cfg, sal = layer.config, layer.salient
    book = layer.codebook
    index = bit_packer.pack_stream(layer.labels.ravel(), book)
    if len(index) != bit_packer.stream_bytes(layer.counts, book, cfg.n_bits)[0]:
        raise ValidationError(f"layer {layer.name!r}: labels disagree with the group counts")
    name_bytes = layer.name.encode("utf-8")
    record = b"".join([
        struct.pack("<H", len(name_bytes)), name_bytes,
        struct.pack("<BQQBBBBdHBdd", _ROLE_CODES[layer.role], layer.m, layer.n,
                    cfg.n_uns, cfg.n_bits, SCALE_WIDTH, INDEX_WIDTH, cfg.alpha, cfg.iters,
                    int(cfg.optimize_saliency), layer.p_sal_max, layer.p_sal_used),
        struct.pack("<dd", sal.mu_b, sal.sigma_b), sal.centers.astype("<f8").tobytes(),
        sal.scales.astype("<f2", copy=False).tobytes(),
        layer.scalars.astype("<f2", copy=False).tobytes(),
        bytes(book.lengths), struct.pack("<B", 0xFF if book.solo is None else book.solo),
        layer.counts.astype("<u8").tobytes(), _blob(index),
        _blob(bit_packer.pack_stream(sal.codes, bit_packer.CodeBook.fixed(cfg.n_bits))),
        _blob(np.packbits(layer.signs).tobytes())])
    return record + struct.pack("<I", zlib.crc32(record))


def _write_records(path, count: int, records):
    """Write a version 2 .bvq file of `count` records, each as it comes from `records`.

    The file is written as a temporary sibling of `path` and replaced into
    place only once every record is in (no fsync), so a failure (in the
    writer or in whatever yields the records) leaves no partial file and
    any earlier file at `path` as it was. A record count other than `count`
    is refused.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")

    def io(call, *args):  # an OSError of the file, not of what yields the records
        try:
            return call(*args)
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc

    written = 0
    try:
        with io(open, tmp, "wb") as out:
            io(out.write, ARTIFACT_MAGIC + struct.pack("<HI", ARTIFACT_VERSION, count))
            for record in records:
                written += 1
                if written > count:
                    break
                io(out.write, record)
            io(out.flush)
        if written != count:
            raise ValidationError(f"{path}: {'more' if written > count else 'fewer'} "
                                  f"than the {count} layer records announced")
        io(os.replace, tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_artifact(layers, path):
    """Serialize quantized layers to a version 2 .bvq file (lossless round trip)."""
    _write_records(path, len(layers), map(_layer_record, layers))


def _parse_record(reader: _Reader):
    """Parse one .bvq layer record into (header, decode).

    header is the record's checked LayerHeader; decode() decodes the streams
    into the QuantizedLayer. The CRC is checked first; then the counts must
    add up to m x n, the levels pass `_check_levels`, the codebook must be the
    Huffman code of the counts, each stream as long as the counts make it, and
    the decoded counts the stored ones, so `QuantizedLayer.validate` holds.
    """
    start, origin = reader.pos, reader.origin
    (name_len,) = reader.unpack("H")
    try:
        name = reader.take(name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{origin}: layer name is not UTF-8: {exc}") from exc
    where = f"{origin}: layer {name!r}"
    (role_code, m, n, n_uns, n_bits, scale_width, l_i_max, alpha, iters,
     optimize, p_sal_max, p_sal_used) = reader.unpack("BQQBBBBdHBdd")
    if role_code not in _ROLE_FROM_CODE:
        raise FormatError(f"{origin}: unknown role code {role_code}")
    if (scale_width, l_i_max) != (SCALE_WIDTH, INDEX_WIDTH):
        raise FormatError(f"{where}: scale width {scale_width} and index width {l_i_max}; "
                          f"binq reads {SCALE_WIDTH} and {INDEX_WIDTH} only; re-quantize the model")
    try:
        cfg = QuantConfig(n_uns=n_uns, n_bits=n_bits, p_sal_max=p_sal_max, alpha=alpha,
                          iters=iters, optimize_saliency=bool(optimize))
    except DomainError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    mu_b, sigma_b = reader.unpack("dd")
    centers = reader.array("f8", 2 ** n_bits)
    scales = reader.array("f2", m)
    scalars = reader.array("f2", n_uns)
    lengths = list(reader.take(n_uns + 1))
    (solo,) = reader.unpack("B")
    solo = None if solo == 0xFF else solo
    # Stored as u64; a count from 2**63 on reads negative here and is refused.
    stored = reader.array("i8", n_uns + 1)
    streams = [reader.take(*reader.unpack("Q")) for _ in range(3)]
    (crc,) = reader.unpack("I")
    if crc != zlib.crc32(memoryview(reader.buf)[start:reader.pos - 4]):
        raise FormatError(f"{where}: CRC mismatch, the record is damaged")

    fields = dict(name=name, role=_ROLE_FROM_CODE[role_code], m=m, n=n,
                  p_sal_used=p_sal_used, config=cfg)
    header = LayerHeader(counts=stored, **fields)
    try:
        header.validate()
        _check_levels(name, scalars, scales, centers, mu_b, sigma_b)
        book = header.codebook
    except (ValidationError, DomainError) as exc:
        raise FormatError(f"{origin}: {exc}") from exc
    if (book.lengths, book.solo) != (tuple(lengths), solo):
        raise FormatError(f"{where}: group codebook is not the Huffman code of "
                          f"the group counts")
    # Each of the m x n weights has a bit in some stream, so these lengths
    # bound m x n by the file size before decode makes (m, n) arrays.
    if [len(s) for s in streams] != list(bit_packer.stream_bytes(stored, book, n_bits)):
        raise FormatError(f"{where}: stream lengths disagree with the group counts")

    def decode() -> QuantizedLayer:
        index, codes, signs = streams
        labels, counts = bit_packer.unpack_stream(index, book, m * n, return_counts=True)
        labels = labels.reshape(m, n)
        if not np.array_equal(counts, stored):
            raise FormatError(f"{where}: decoded group counts differ from the stored ones")
        salient_count = int(counts[-1])
        salient = SalientQuant(scales=scales, centers=centers, mu_b=mu_b, sigma_b=sigma_b,
                               codes=bit_packer.unpack_stream(
                                   codes, bit_packer.CodeBook.fixed(n_bits), salient_count))
        return QuantizedLayer(counts=counts, labels=labels, salient=salient, scalars=scalars,
                              signs=np.unpackbits(np.frombuffer(signs, dtype=np.uint8),
                                                  count=m * n - salient_count).view(bool),
                              **fields)

    return header, decode


def _parsed_records(path) -> list:
    """The (header, decode) pair of each layer record of a .bvq file."""
    reader = _Reader(_read_bytes(path), str(path))
    _check_magic(reader, ARTIFACT_MAGIC, ARTIFACT_VERSION, "; re-quantize the model")
    (layer_count,) = reader.unpack("I")
    records = [_parse_record(reader) for _ in range(layer_count)]
    reader.done()
    return records


def read_artifact(path) -> list[QuantizedLayer]:
    """Parse a .bvq file back into QuantizedLayer values, each checked as `_parse_record` says."""
    return [decode() for _, decode in _parsed_records(path)]


def read_layer_headers(path) -> list[LayerHeader]:
    """Each layer's checked header from a .bvq file, for storage reports.

    Each record is checked whole (CRC, counts, stream lengths and stored
    values) and no stream is decoded. The CRC-covered counts are trusted:
    swapping the counts of two shells whose codes have one length, then
    recomputing the CRC, passes here and is refused only by `read_artifact`.
    Damage cannot do that; an edit can.
    """
    return [header for header, _ in _parsed_records(path)]


# --- attention tensors ------------------------------------------------------

def write_attention(tensors: list[AttentionTensor], path):
    chunks = [ATTENTION_MAGIC, struct.pack("<HI", ATTENTION_VERSION, len(tensors))]
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
    _check_magic(reader, ATTENTION_MAGIC, ATTENTION_VERSION)
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
