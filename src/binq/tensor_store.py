"""Bit-exact file formats for weight matrices, quantized artifacts, and attention scores.

Three container formats, all little-endian with fixed field widths:

``.bvw`` weight tensor, version 1
    magic "BVW1", version u16, dtype u8 (0 = IEEE 754 binary32), role u8,
    rank u32 (always 2), dims as two u64, then the row-major f32 payload.

``.bvq`` quantized artifact, version 4
    magic "BVQ1", version u16, layer count u32, then per layer: name
    (u16 length + UTF-8), role u8, m and n (u64), config echo, salient level
    parameters and centers, salient row-scales and unsalient scalars
    (binary16), the n_uns + 1 group counts (u64, salient last), the three
    packed streams (group indices, salient codes, sign bits) and a CRC32 (u32)
    of the record from the name length on. A record stores nothing its reader
    derives: the index code follows from the counts and m x n
    (`bit_packer.index_code`), and the counts fix each stream's length, so
    `read_layer_headers` checks a record without decoding a stream. A
    pair-coded index stream (a large layer's) is the exception: a u64 of its
    length goes before it, and one decoder entry state byte per
    `bit_packer.ENTRY_BLOCK` stream bytes after the first follows it.
    Versions 1 to 3 are refused.

``.bva`` attention scores, version 1
    magic "BVA1", version u16, layer count u32, then per layer: layer index
    u32, output-token count n u32, image-token count u32, the four group
    sizes u32, then n rows of (4 group sums + per-image-token scores) as f32.

The manifest is a JSON array of {"name", "path", "role", "p_sal_max"?}.
"""

import json
import os
import stat
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, reduce
from enum import Enum
from pathlib import Path

import numpy as np

from . import bit_packer
from .bit_packer import CHUNK
from .config import QuantConfig
from .errors import (DomainError, FormatError, IoError, TruncationError,
                     ValidationError)
from .salient_quantizer import SalientQuant
from .weight_stats import squared_deviation_sum

TENSOR_MAGIC = b"BVW1"
ARTIFACT_MAGIC = b"BVQ1"
ATTENTION_MAGIC = b"BVA1"
# The one version of each format that its writer stores and its reader reads.
TENSOR_VERSION = 1
ARTIFACT_VERSION = 4
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
    """One layer's weights: an (m, n) float32 array plus metadata. This is the one place
    an empty matrix is refused (`ValueError`); every command takes one-weight, constant
    and all-zero layers."""

    name: str
    role: Role
    data: np.ndarray

    def __post_init__(self):
        self.role = _as_role(self.role)
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2 or not self.data.size:
            raise ValueError(f"weight data must be 2-D and not empty, got shape {self.data.shape}")

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def require_finite(self):  # a chunk at a time: no layer-sized mask
        flat = self.data.reshape(-1)
        if not all(np.isfinite(flat[i:i + CHUNK]).all() for i in range(0, flat.size, CHUNK)):
            raise ValueError("tensor contains non-finite values")

    def squared_norm(self) -> float:
        """Squared Frobenius norm in float64, a chunk at a time (`squared_deviation_sum`)."""
        return squared_deviation_sum(self.data)


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
        self.group_sums = np.asarray(self.group_sums, dtype=np.float32)  # views are kept, not copied
        self.image_scores = np.asarray(self.image_scores, dtype=np.float32)
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


def _write(path, magic: bytes, version: int, chunks):
    """Write magic, version (u16) and each byte chunk as it comes to a temporary sibling of
    `path`, replaced into place once every chunk is in (no fsync): a failure, in the writer
    or in what yields the chunks, leaves no partial file and any earlier file at `path` as
    it was. The file's own OSErrors raise IoError."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")

    def io(call, *args):  # an OSError of the file, not of what yields the chunks
        try:
            return call(*args)
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc

    out = io(open, tmp, "wb")
    try:
        try:
            io(out.write, magic + struct.pack("<H", version))
            for chunk in chunks:
                io(out.write, chunk)
        finally:  # flushes, and closes the file even when the flush fails
            io(out.close)
        io(os.replace, tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    """Cursor over an open file of `size` bytes: `take` checks a length against the bytes left
    before it reads them into a fresh bytearray. While `crc` is set, a CRC32 runs over them."""

    def __init__(self, file, origin: str, size: int):
        self.file, self.origin, self.size, self.pos, self.crc = file, origin, size, 0, None

    def take(self, size: int) -> bytearray:
        if self.pos + size > self.size:
            raise TruncationError(
                f"{self.origin}: needed {size} bytes at offset {self.pos}, "
                f"only {self.size - self.pos} left")
        buf = bytearray(size)
        if self.file.readinto(buf) != size:
            raise TruncationError(f"{self.origin}: the file shrank while it was read")
        self.pos += size
        if self.crc is not None:
            self.crc = zlib.crc32(buf, self.crc)
        return buf

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        dt = np.dtype(dtype).newbyteorder("<")
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt)

    def done(self):
        if self.pos != self.size:
            raise FormatError(f"{self.origin}: {self.size - self.pos} trailing bytes")


@contextmanager
def _reading(path, magic: bytes = b"", version: int = 0, remedy: str = ""):
    """The read-side twin of `_write`: open `path`, check its magic and `version`, the one the
    reader reads (a manifest has neither), yield a `_Reader` for the caller's fields, and require
    that the file ends where they did. The file's own OSErrors raise IoError."""
    try:
        with open(path, "rb") as file:
            info = os.fstat(file.fileno())
            if not stat.S_ISREG(info.st_mode):  # a pipe or device has no size to bound reads by
                raise FormatError(f"{path}: not a regular file")
            reader = _Reader(file, str(path), info.st_size)
            if magic:
                got = bytes(reader.take(len(magic)))
                if got != magic:
                    raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
                (got,) = reader.unpack("H")
                if got != version:
                    raise FormatError(f"{path}: unsupported version {got} "
                                      f"(binq reads version {version}){remedy}")
            yield reader
            reader.done()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


# --- weight tensors ---------------------------------------------------------

def write_tensor(matrix: WeightMatrix, path):
    """Write a weight matrix as a .bvw file; rereading yields an equal matrix."""
    matrix.require_finite()
    _write(path, TENSOR_MAGIC, TENSOR_VERSION, [
        struct.pack("<BBIQQ", _DTYPE_F32, _ROLE_CODES[matrix.role], 2, matrix.m, matrix.n),
        np.ascontiguousarray(matrix.data, "<f4")])  # written from the matrix, not a copy


def _tensor_header(reader: _Reader):
    """Parse a .bvw header from after the version up to the payload; returns (role, m, n)."""
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
    with _reading(path, TENSOR_MAGIC, TENSOR_VERSION) as reader:
        role, m, n = _tensor_header(reader)
        data = reader.array("f4", m * n).reshape(m, n)
    matrix = WeightMatrix(name=Path(path).stem, role=role, data=data)
    matrix.require_finite()
    return matrix


# --- manifests --------------------------------------------------------------

def read_manifest(path) -> ModelManifest:
    """Load and validate a JSON manifest; tensor paths resolve relative to it."""
    with _reading(path) as reader:
        raw = reader.take(reader.size)
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
        _name_bytes(name, FormatError)  # refused before any layer is quantized
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
    """Check a referenced tensor's header fields, and that its payload fills the file."""
    try:
        with _reading(path, TENSOR_MAGIC, TENSOR_VERSION) as reader:
            _, m, n = _tensor_header(reader)
            if reader.size - reader.pos != 4 * m * n:
                raise FormatError(f"{path}: file size {reader.size} does not match dims {m}x{n}")
            reader.pos = reader.size  # the payload is not read
    except (IoError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise FormatError(f"manifest references unreadable tensor {path}: "
                          f"{exc.__cause__ or exc}") from exc


# --- quantized artifacts ----------------------------------------------------

@dataclass
class LayerHeader:
    """What a layer's storage report needs: its shape, config, shares and group counts.

    counts holds the number of elements of each group: the unsalient shells
    0..n_uns-1, then the salient group n_uns. With the config they fix the
    length of every packed stream but a pair-coded index stream, whose
    record stores its length: the reader sets index_length, and a
    QuantizedLayer counts it from its labels. The config holds the layer's
    cap, which `p_sal_max` reads.
    """

    name: str
    role: Role
    m: int
    n: int
    counts: np.ndarray
    p_sal_used: float
    config: QuantConfig
    index_length: int | None = field(default=None, kw_only=True)

    @property
    def p_sal_max(self) -> float:
        return self.config.p_sal_max

    @cached_property
    def codebook(self) -> "bit_packer.CodeBook":
        """The index stream's canonical Huffman code, of label pairs or of single labels as
        `bit_packer.index_code` picks from the counts and m x n, built once per header."""
        return bit_packer.index_code(self.counts, self.m * self.n)

    def stream_sizes(self) -> tuple[int, int, int]:
        """Bytes of the index stream (entry states included), salient codes and signs."""
        return bit_packer.stream_bytes(self.counts, self.codebook, self.config.n_bits,
                                       self.index_length)

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
    shell as stored, in binary16; sign_bits is the .bvq sign stream: uint8,
    one bit per unsalient element in row-major order (1 = +1), MSB-first and
    zero-padded, so labels and signs take 1.13 bytes per weight. An unsalient
    element reconstructs as scalars[label] times its sign, a salient one from `salient`.
    """

    labels: np.ndarray
    salient: SalientQuant
    scalars: np.ndarray
    sign_bits: np.ndarray

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
        if (self.sign_bits.dtype != np.uint8
                or self.sign_bits.shape != ((self.labels.size - salient_count + 7) // 8,)):
            raise ValidationError(f"layer {self.name!r}: sign stream length mismatch")
        _check_levels(self.name, self.scalars, sal.scales, sal.centers, sal.mu_b, sal.sigma_b)

    def stream_sizes(self) -> tuple[int, int, int]:
        """As `LayerHeader.stream_sizes`, a pair-coded index stream's length from the labels."""
        book = self.codebook
        index = bit_packer.pair_stream_bytes(self.labels, book) if book.span == 2 else None
        return bit_packer.stream_bytes(self.counts, book, self.config.n_bits, index)

    def dense(self, dtype=np.float64) -> np.ndarray:
        """Reconstruction of the layer as `dtype`, in chunks of at most 64K elements.

        Each element takes its group's signed scalar from a (group, sign)
        table through a reused code 2 * group + sign: a chunk unpacks its
        slice of the sign stream from the bit where it starts, and then
        writes its salient values, computed in float64, over their positions.
        So a float32 reconstruction is the float64 one rounded, and no
        layer-sized mask or index is made. On 4096x1024 (numpy 2.4, Xeon) float32
        takes 18-20 ms and 0.20 traced bytes per weight beyond its output.
        """
        n_uns, labels, sal = self.config.n_uns, self.labels.reshape(-1), self.salient
        signed = np.append(self.scalars, 0.0).astype(dtype).repeat(2)
        signed[::2] *= -1  # entry 2 * group + sign; fits uint8 as n_uns <= 5
        out, scales = np.empty(self.labels.shape, dtype), sal.scales.astype(np.float64)
        flat, step, at = out.reshape(-1), max(1, min(bit_packer.CHUNK, labels.size)), 0
        # 2 * n_uns plus a stale sign gathers 0: all codes index `signed`. "clip" keeps the
        # output unbuffered, but np.take still turns each chunk's uint8 codes into an intp
        # index, 512 KB per 64K chunk; intp codes took 176 us a chunk against 132 (2 vCPUs).
        code, positive = np.empty(step, dtype=np.uint8), np.zeros(step, dtype=bool)
        for j in range(0, labels.size, step):  # at: the unsalient elements before j
            part = labels[j:j + step]
            unsalient, chunk, sign = part != n_uns, code[:part.size], positive[:part.size]
            where, skip = j + np.flatnonzero(~unsalient), at & 7
            size = part.size - where.size
            bits = np.unpackbits(self.sign_bits[at >> 3:(at + size + 7) >> 3])
            sign[unsalient] = bits[skip:skip + size].view(bool)
            np.bitwise_or(np.left_shift(part, 1, out=chunk, casting="unsafe"), sign, out=chunk)
            np.take(signed, chunk, out=flat[j:j + step], mode="clip")
            flat[where] = scales[where // self.n] * sal.centers[sal.codes[j - at:][:where.size]]
            at += size
        return out


def _name_bytes(name: str, error=ValidationError) -> bytes:
    """A layer name as a .bvq record stores it: UTF-8 of at most 65,535 bytes (u16 length)."""
    try:
        raw = name.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        raw = None
    if raw is None or len(raw) > 0xFFFF:
        raise error(f"layer name {name[:40]!r}: not UTF-8 text of at most 65535 bytes")
    return raw


def _layer_record(layer: QuantizedLayer) -> bytes:
    """One layer's .bvq record followed by its CRC32; the layer is validated first.
    The parts, the layer's sign stream among them, are joined once; the CRC runs over them."""
    if not isinstance(layer, QuantizedLayer):
        raise ValidationError("a .bvq record is written from a QuantizedLayer")
    layer.validate()
    cfg, sal, name = layer.config, layer.salient, _name_bytes(layer.name)
    labels, book = layer.labels.ravel(), layer.codebook
    if book.span == 2:  # the stream's length, which the counts do not fix, goes before it
        index, entries = bit_packer.pack_stream(labels, book, entries=True)
        length = struct.pack("<Q", len(index))
    else:
        index, entries, length = bit_packer.pack_stream(labels, book), b"", b""
        if len(index) != layer.stream_sizes()[0]:
            raise ValidationError(f"layer {layer.name!r}: labels disagree with the group counts")
    parts = [
        struct.pack("<H", len(name)), name,
        struct.pack("<BQQBBdHBdd", _ROLE_CODES[layer.role], layer.m, layer.n, cfg.n_uns,
                    cfg.n_bits, cfg.alpha, cfg.iters, int(cfg.optimize_saliency),
                    layer.p_sal_max, layer.p_sal_used),
        struct.pack("<dd", sal.mu_b, sal.sigma_b), sal.centers.astype("<f8").tobytes(),
        sal.scales.astype("<f2", copy=False).tobytes(),
        layer.scalars.astype("<f2", copy=False).tobytes(), layer.counts.astype("<u8").tobytes(),
        length, index, entries,
        bit_packer.pack_stream(sal.codes, bit_packer.CodeBook.fixed(cfg.n_bits)),
        np.ascontiguousarray(layer.sign_bits)]
    crc = reduce(lambda crc, part: zlib.crc32(part, crc), parts, 0)
    return b"".join(parts + [struct.pack("<I", crc)])


def _write_records(path, count: int, records):
    """Write a version 4 .bvq of `count` records as they come; 0 or another count is refused."""
    if count == 0:
        raise ValidationError(f"{path}: a .bvq holds at least one layer")

    def chunks():
        yield struct.pack("<I", count)
        written = 0
        for written, record in enumerate(records, 1):
            if written > count:
                break
            yield record
        if written != count:
            raise ValidationError(f"{path}: {'more' if written > count else 'fewer'} "
                                  f"than the {count} layer records announced")

    _write(path, ARTIFACT_MAGIC, ARTIFACT_VERSION, chunks())


def write_artifact(layers, path):
    """Serialize quantized layers to a version 4 .bvq file (lossless round trip)."""
    _write_records(path, len(layers), map(_layer_record, layers))


def _parse_record(reader: _Reader, decode: bool):
    """Parse one .bvq layer record into its checked LayerHeader, or with `decode` into the
    QuantizedLayer decoded from its streams, whose sign stream is the one buffer it keeps.

    The counts must add up to m x n and the levels pass `_check_levels`; each stream is
    then taken at the length the counts give it under their Huffman code, a pair-coded index
    stream at its stored length and its entry states at one per ENTRY_BLOCK bytes after the
    first. The CRC, run over the record's bytes as the reader takes them, is checked next.
    Decoding checks each pair-coded block's exit against the next block's entry, and the
    decoded counts must equal the stored ones, so `QuantizedLayer.validate` holds.
    """
    origin, reader.crc = reader.origin, 0
    (name_len,) = reader.unpack("H")
    try:
        name = str(reader.take(name_len), "utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{origin}: layer name is not UTF-8: {exc}") from exc
    where = f"{origin}: layer {name!r}"
    (role_code, m, n, n_uns, n_bits, alpha, iters, optimize, p_sal_max,
     p_sal_used) = reader.unpack("BQQBBdHBdd")
    if role_code not in _ROLE_FROM_CODE:
        raise FormatError(f"{origin}: unknown role code {role_code}")
    try:
        cfg = QuantConfig(n_uns=n_uns, n_bits=n_bits, p_sal_max=p_sal_max, alpha=alpha,
                          iters=iters, optimize_saliency=bool(optimize))
    except DomainError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    mu_b, sigma_b = reader.unpack("dd")
    centers = reader.array("f8", 2 ** n_bits)
    scales = reader.array("f2", m)
    scalars = reader.array("f2", n_uns)
    # Stored as u64; a count from 2**63 on reads negative here and is refused.
    stored = reader.array("i8", n_uns + 1)
    fields = dict(name=name, role=_ROLE_FROM_CODE[role_code], m=m, n=n,
                  p_sal_used=p_sal_used, config=cfg)
    header = LayerHeader(counts=stored, **fields)
    try:
        header.validate()
        _check_levels(name, scalars, scales, centers, mu_b, sigma_b)
        book = header.codebook
    except (ValidationError, DomainError) as exc:
        raise FormatError(f"{origin}: {exc}") from exc
    pairs = book.span == 2
    if pairs:
        (header.index_length,) = reader.unpack("Q")
    # Each of the m x n weights has a bit in some stream, so `take` bounds m x n by the
    # bytes left before decode makes (m, n) arrays.
    index_bytes, code_bytes, sign_bytes = header.stream_sizes()
    index = reader.take(header.index_length if pairs else index_bytes)
    entries = reader.take(index_bytes - len(index))  # none for single labels
    codes, signs = reader.take(code_bytes), reader.take(sign_bytes)
    crc, reader.crc = reader.crc, None
    if reader.unpack("I") != (crc,):
        raise FormatError(f"{where}: CRC mismatch, the record is damaged")
    if not decode:
        return header
    try:
        labels, counts = bit_packer.unpack_stream(index, book, m * n, return_counts=True,
                                                  entries=entries if pairs else None)
    except FormatError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    if not np.array_equal(counts, stored):
        raise FormatError(f"{where}: decoded group counts differ from the stored ones")
    salient = SalientQuant(scales=scales, centers=centers, mu_b=mu_b, sigma_b=sigma_b,
                           codes=bit_packer.unpack_stream(
                               codes, bit_packer.CodeBook.fixed(n_bits), int(counts[-1])))
    return QuantizedLayer(counts=counts, labels=labels.reshape(m, n), salient=salient,
                          scalars=scalars, sign_bits=np.frombuffer(signs, np.uint8), **fields)


def _records(path, decode: bool):
    """Each layer record of a .bvq file, decoded or its header only, as it is parsed."""
    with _reading(path, ARTIFACT_MAGIC, ARTIFACT_VERSION, "; re-quantize the model") as reader:
        (layer_count,) = reader.unpack("I")
        if layer_count == 0:
            raise FormatError(f"{path}: artifact holds no layers")
        for _ in range(layer_count):
            yield _parse_record(reader, decode)


def read_artifact(path) -> list[QuantizedLayer]:
    """Parse a .bvq file back into QuantizedLayer values, each checked as `_parse_record` says."""
    return list(_records(path, decode=True))


def read_layer_headers(path) -> list[LayerHeader]:
    """Each layer's checked header from a .bvq file, for storage reports.

    Each record is checked whole (counts, stored values and CRC) and no
    stream is decoded. The CRC-covered counts are trusted: swapping the
    counts of two shells whose codes have one length, then recomputing the
    CRC, passes here and is refused only by `read_artifact`. Damage cannot
    do that; an edit can. One record is held at a time.
    """
    return list(_records(path, decode=False))


# --- attention tensors ------------------------------------------------------

def write_attention(tensors: list[AttentionTensor], path):
    def chunks():
        yield struct.pack("<I", len(tensors))
        for t in tensors:
            fields = (t.layer_index, t.n_tokens, t.n_img, *t.group_sizes)
            if not all(isinstance(field, (int, np.integer)) and 0 <= field <= 0xFFFFFFFF
                       for field in fields):
                raise ValidationError(f"layer {t.layer_index}: a field of {fields} is not an "
                                      f"integer or is outside u32")
            if t.group_sizes[1] != t.n_img:
                raise ValidationError(f"layer {t.layer_index}: group size "
                                      f"{t.group_sizes[1]} != score columns {t.n_img}")
            yield struct.pack("<7I", *fields)
            yield np.concatenate([t.group_sums, t.image_scores], axis=1).astype("<f4", copy=False)

    _write(path, ATTENTION_MAGIC, ATTENTION_VERSION, chunks())


def read_attention(path) -> list[AttentionTensor]:
    tensors = []
    with _reading(path, ATTENTION_MAGIC, ATTENTION_VERSION) as reader:
        (count,) = reader.unpack("I")
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
    return tensors
