"""Prefix-code packing of group-index streams and storage accounting.

Group indices are packed with a canonical Huffman code built from realized
frequencies; the packed stream is MSB-first within bytes and zero-padded to
a byte boundary. Storage reports carry both the closed-form budget numbers
and the realized packed sizes so the two can be compared side by side.
"""

import functools
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, TruncationError

if TYPE_CHECKING:  # pragma: no cover
    from .config import QuantConfig
    from .tensor_store import LayerHeader

# Longest code `CodeBook.from_frequencies` builds. A .bvq's six groups take at most 5 bits, so
# longer codes come only from API callers of the codec; each decode block first runs from every
# live state (up to n_groups - 1), so a 112-group code decodes 6-10x slower per MB.
MAX_CODE_LEN = 20
# A .bvq layer stores its scales and shell scalars as binary16, and its 3-bit index width
# addresses at most max_partitions(INDEX_WIDTH) = 5 shells.
SCALE_WIDTH = 16
INDEX_WIDTH = 3
CHUNK = 1 << 16  # the most elements a chunked pass takes at once (cache)


def max_partitions(l_i_max: int) -> int:
    """Largest number of unsalient shells addressable with l_i_max index bits."""
    if l_i_max < 2:
        raise DomainError(f"index width l_i_max must be >= 2 bits, got {l_i_max}")
    return 2 ** l_i_max - 3


def index_bits(n_uns: int, p_sal_max: float) -> float:
    """Closed-form estimate of index-stream bits per weight.

    Evaluates sum_eta eta * min(2^eta, n_uns - 2^eta + 1) over eta = 1..INDEX_WIDTH,
    scaled by each shell's share (1 - p_sal_max) / n_uns, plus INDEX_WIDTH bits
    for the salient share. The inner min is clamped at 0 where it would go negative.
    """
    if n_uns < 1:
        raise DomainError(f"n_uns must be >= 1, got {n_uns}")
    total = 0.0
    for eta in range(1, INDEX_WIDTH + 1):
        total += eta * max(0, min(2 ** eta, n_uns - 2 ** eta + 1))
    return total * ((1.0 - p_sal_max) / n_uns) + p_sal_max * INDEX_WIDTH


@dataclass(frozen=True)
class CodeBook:
    """Prefix-free canonical code over group indices 0 .. n_groups-1.

    A length of 0 means the group has no code. When only one group occurs
    at all, every length is 0 and `solo` names that group: its streams are
    encoded by count alone and pack to zero bytes.
    """

    lengths: tuple[int, ...]
    codes: tuple[int, ...]
    solo: int | None = None

    @classmethod
    def from_frequencies(cls, freqs) -> "CodeBook":
        """Huffman code over the groups of positive frequency, in canonical order.

        Heap entries are (frequency, age, groups), leaves aged first in group order; merging the
        two lightest adds one bit to every group in both. Codes count up in (length, group) order.
        """
        freqs = np.asarray(freqs, dtype=np.float64)
        if freqs.size == 0 or not np.all(freqs >= 0) or freqs.sum() <= 0:
            raise DomainError("frequencies must be nonnegative with a positive sum")
        live = np.flatnonzero(freqs).tolist()
        lengths = np.zeros(freqs.size, dtype=np.int64)
        heap = sorted((freqs[g], age, [g]) for age, g in enumerate(live))  # sorted: a valid heap
        for age in range(len(live), 2 * len(live) - 1):
            (f1, _, a), (f2, _, b) = heapq.heappop(heap), heapq.heappop(heap)
            lengths[a + b] += 1
            heapq.heappush(heap, (f1 + f2, age, a + b))
        if lengths.max() > MAX_CODE_LEN:
            raise DomainError(f"code lengths exceed {MAX_CODE_LEN} bits; "
                              "too many groups or too skewed frequencies")
        codes, code, prev = [0] * freqs.size, 0, 0
        for length, g in sorted((l, g) for g, l in enumerate(lengths.tolist()) if l):
            code <<= length - prev
            codes[g], code, prev = code, code + 1, length
        return cls(lengths=tuple(lengths.tolist()), codes=tuple(codes),
                   solo=live[0] if len(live) == 1 else None)

    @classmethod
    def fixed(cls, width: int) -> "CodeBook":
        """Fixed-width code of all 2**width groups: `width` bits each, code value = index."""
        return cls(lengths=(width,) * 2 ** width, codes=tuple(range(2 ** width)))

    @property
    def n_groups(self) -> int:
        return len(self.lengths)

    @property
    def max_length(self) -> int:
        return max(self.lengths)


def stream_bytes(counts, book: CodeBook, n_bits: int) -> tuple[int, int, int]:
    """Bytes of the index, salient code and sign streams of a layer with these group counts."""
    salient, weights = int(counts[-1]), sum(counts.tolist())
    payload = sum(c * l for c, l in zip(counts.tolist(), book.lengths))
    return (payload + 7) // 8, (salient * n_bits + 7) // 8, (weights - salient + 7) // 8


def pack_stream(symbols, codebook: CodeBook) -> bytes:
    """Pack a symbol stream with the codebook; MSB-first, zero-padded to bytes.

    Runs of k symbols index a table of their joined codes and lengths, items
    are joined pairwise in uint64 while any two fit in 64 bits, and each item
    goes to its bit offset: its high part into its 64-bit word, one OR-reduce
    per word, and any spill into the next word. This runs on CHUNK symbols at
    a time, each chunk from the bit where the last one ended, in one buffer of
    max_length bits per symbol. On 4M symbols of 6 groups (numpy 2.4, Xeon)
    it takes 18-20 ms and peaks at 0.86 bytes per symbol (26 ms and 4.6 bytes
    in one pass); chunks of 32K symbols take 11% longer, and 128K as long.
    """
    symbols = np.asarray(symbols).ravel()
    if symbols.size == 0:
        return b""
    if symbols.min() < 0 or symbols.max() >= codebook.n_groups:
        raise DomainError("symbol outside the codebook's group range")
    if codebook.solo is not None:
        if np.any(symbols != codebook.solo):
            raise DomainError("stream contains a group with no code")
        return b""

    # The k-tuple table, indexed in base n_groups, squares while it stays at
    # 4096 entries and 32-bit codes: k = 4 for six groups of codes up to 8
    # bits, 1 for 20-bit codes.
    groups, k = codebook.n_groups, 1
    table = one_codes = np.asarray(codebook.codes, dtype=np.uint64)
    widths = one_lengths = np.asarray(codebook.lengths, dtype=np.uint8)
    while groups ** (2 * k) <= 4096 and 2 * k * codebook.max_length <= 32:
        table = (table[:, None] << widths | table).ravel()
        widths = (widths[:, None] + widths).ravel()
        k *= 2
    # Then single symbols, for the tail, and an empty item, for padding.
    table = np.concatenate((table, one_codes, [np.uint64(0)]))
    widths = np.concatenate((widths, one_lengths, [np.uint8(0)]))
    rounds = (64 // (k * codebook.max_length)).bit_length() - 1

    words, end = np.zeros((symbols.size * codebook.max_length >> 6) + 2, np.uint64), np.uint64(0)
    for j in range(0, symbols.size, CHUNK):
        chunk = symbols[j:j + CHUNK]
        if any(np.any(chunk == g) for g, length in enumerate(codebook.lengths) if length == 0):
            raise DomainError("stream contains a group with no code")
        full = chunk.size - chunk.size % k
        index = chunk[0:full:k].astype(np.intp)
        for i in range(1, k):
            index *= groups
            np.add(index, chunk[i:full:k], out=index, casting="unsafe")  # any integer dtype
        if chunk.size % (k << rounds):  # the last chunk: its tail, then empty items to
            tail = chunk[full:].astype(np.intp) + groups ** k  # make 2**rounds divide the count
            index = np.concatenate((index, tail, np.full(-(index.size + tail.size) % (1 << rounds), -1)))
        codes, lengths = table[index], widths[index]
        del index
        for _ in range(rounds):
            codes = codes[0::2] << lengths[1::2] | codes[1::2]
            lengths = lengths[0::2] + lengths[1::2]

        # An item of length l from bit b of word w fills bits [b, b + l) of the
        # 128-bit pair (w, w + 1): with r = 128 - b - l its part in w is
        # c >> (64 - r) | c << (r - 64) and its spill c << r. numpy shifts by 64
        # or more give 0, and the uint64 differences wrap to such shifts.
        ends = end + np.cumsum(lengths, dtype=np.uint64)
        word = (ends - lengths) >> 6
        shift = (word << 6) + 128 - ends
        runs = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))  # monotone
        high = codes >> (64 - shift) | codes << (shift - 64)
        first = words[word[0]]  # the last chunk's bits in this chunk's first word
        words[word[runs]] = np.bitwise_or.reduceat(high, runs)
        words[word[0]] |= first
        words[word[runs] + 1] |= np.bitwise_or.reduceat(codes << shift, runs)
        end = ends[-1]
    packed = words[:-(-int(end) // 64)]
    if np.little_endian:  # MSB-first bytes are big-endian words
        packed.byteswap(inplace=True)
    return packed.view(np.uint8)[:(int(end) + 7) // 8].tobytes()


def chunk_length(size: int) -> int:
    """Elements per chunk of a `size`-element gather: at most CHUNK and size / 8."""
    return max(1, min(CHUNK, size >> 3))


def _block_size(nbytes: int) -> int:
    """Bytes per decode block: 16 up to 32 KB of stream, doubling to 128 from 128 KB."""
    return min(128, max(16, 1 << (nbytes >> 11).bit_length()))


@functools.lru_cache(maxsize=8)
def _byte_automaton(codebook: CodeBook):
    """Decoding automaton tables of (states x 256) cells, cell = state * 256 + byte.

    States are the code tree's internal nodes (root 0), then a dead state that
    emits nothing and only exits to itself; the code is complete, so it only
    marks cells past a stream's end. Returns the dead state's first cell and per
    cell the next state's first cell, a mask of the slots filled and the
    symbols the byte completes in them, as rows of 1, 2, 4 or 8 uint8 slots.
    """
    nodes = {(0, 0): 0}  # (depth, code prefix) -> state
    leaves = {}
    for sym, (code, length) in enumerate(zip(codebook.codes, codebook.lengths)):
        if length:
            leaves[length, code] = sym
            for depth in range(1, length):
                nodes.setdefault((depth, code >> (length - depth)), len(nodes))
    dead = len(nodes)
    bit_next = np.full((dead + 1, 2), dead)
    bit_sym = np.full((dead + 1, 2), -1)
    for (depth, prefix), state in nodes.items():
        for bit in (0, 1):
            child = (depth + 1, 2 * prefix + bit)
            bit_next[state, bit] = nodes.get(child, 0)  # a leaf returns to the root
            bit_sym[state, bit] = leaves.get(child, -1)

    state, byte = np.divmod(np.arange((dead + 1) * 256), 256)
    emitted = np.zeros(state.size, dtype=np.uint8)
    slots = np.zeros((state.size, 8), dtype=np.uint8)
    for shift in range(7, -1, -1):
        bit = (byte >> shift) & 1
        sym = bit_sym[state, bit]
        hit = np.flatnonzero(sym >= 0)
        slots[hit, emitted[hit]] = sym[hit]
        emitted[hit] += 1
        state = bit_next[state, bit]
    width = 1 << (int(emitted.max()) - 1).bit_length()
    used = np.arange(width) < emitted[:, None]
    row = lambda a: np.ascontiguousarray(a[:, :width]).view(f"u{width}").ravel()
    return dead * 256, state.astype(np.intp) * 256, row(used.view(np.uint8)), row(slots)


def unpack_stream(data: bytes, codebook: CodeBook, count: int, return_counts: bool = False):
    """Decode the first `count` symbols of a packed stream, as uint8.

    With `return_counts`, also return each group's count among them. Codes of
    one length up to 8 bits, equal to their groups, are cut by shifts and
    masks. Others run a byte automaton over the code tree on blocks of bytes
    (data-parallel FSM decoding, Mytkowicz et al., ASPLOS 2014) from every
    live state until all agree in every block, then as one run, and compress
    the symbols out in chunks. On 4M symbols of 6 groups (numpy 2.4, Xeon)
    this takes 35-42 ms and 13 traced bytes per input byte, 8 of them cell
    indices (one compress: 38-58 ms, 25 bytes). The code must be complete, as
    binq's are: any bits decode. Raises TruncationError if the stream holds
    fewer than `count` whole symbols; later bits are ignored.
    """
    if count < 0:
        raise DomainError(f"count must be nonnegative, got {count}")
    if codebook.n_groups > 256:
        raise DomainError(f"{codebook.n_groups} groups exceed the uint8 symbols")
    raw = np.frombuffer(data, dtype=np.uint8)
    groups, width = codebook.n_groups, codebook.max_length
    if count == 0 or codebook.solo is not None:
        symbols, counts = np.full(count, codebook.solo or 0, dtype=np.uint8), None
    elif width <= 8 and codebook.codes == tuple(range(groups)) and min(codebook.lengths) == width:
        # Each `width` bytes hold 8 fields: field j is in the 16 bits from byte j * width // 8.
        whole, counts = min(count, 8 * raw.size // width), None
        rows = np.pad(raw, (0, width))[:-(-whole // 8) * width].reshape(-1, width)
        pairs = rows.astype(np.uint16) << 8 | np.pad(rows[:, 1:], ((0, 0), (0, 1)))
        fields = [pairs[:, j * width // 8] >> 16 - j * width % 8 - width for j in range(8)]
        symbols = (np.stack(fields, axis=1) & (1 << width) - 1).astype(np.uint8).ravel()[:whole]
    else:
        symbols, counts = _run_automaton(raw, codebook)
    if symbols.size < count:
        raise TruncationError(f"{8 * raw.size}-bit stream holds fewer than {count} whole symbols")
    if return_counts:
        counts = np.bincount(symbols, minlength=groups) if counts is None else counts
        return symbols[:count], counts - np.bincount(symbols[count:], minlength=groups)
    return symbols[:count]


def _run_automaton(raw: np.ndarray, codebook: CodeBook):
    """Every whole symbol of a stream, by the byte automaton, and each group's count."""
    dead, next_row, used, rows = _byte_automaton(codebook)
    block = _block_size(raw.size)
    n_blocks = max(1, -(-raw.size // block))
    blocks = np.pad(raw, (0, n_blocks * block - raw.size)).reshape(n_blocks, block).T.copy()
    # Row t holds byte t of every block. Live states run until all agree,
    # checked after 1, 2, 4, ... bytes.
    state, t = np.arange(0, dead, 256)[:, None].repeat(n_blocks, axis=1), 0
    while len(state) > 1 and t < block:
        state = next_row[np.add(state, blocks[t], out=state)]
        t += 1
        if t & (t - 1) == 0 and (state == state[0]).all():
            state = state[:1]
    cells = np.empty(blocks.shape, dtype=np.intp)
    for u in range(t, block):  # once all agree, bytes t on are run once
        np.add(state[0], blocks[u], out=cells[u])
        np.take(next_row, cells[u], out=state[0])
    if len(state) == 1:
        entry = np.r_[0, state[0, :-1]]
    else:  # the states never agreed: chain the blocks' exits from the root
        entry = [0]
        with memoryview(state) as exits:
            for k in range(n_blocks - 1):
                entry.append(exits[entry[k] >> 8, k])
        entry = np.array(entry, dtype=np.intp)
    del state
    for u in range(t):  # the first t bytes, from each block's entry state
        np.add(entry, blocks[u], out=cells[u])
        np.take(next_row, cells[u], out=entry)
    cells.T.flat[raw.size:] = dead  # the padding's cells: no symbols
    # Each cell's count times its symbols gives the group counts and their sum.
    hit = used.view(bool).reshape(len(used), -1)
    tally = np.bincount(cells.ravel(), minlength=len(used))[:, None] * hit
    counts = np.bincount(rows.view(np.uint8), tally.ravel(), minlength=codebook.n_groups)
    symbols, at = np.empty(int(counts.sum()), dtype=np.uint8), 0
    step = max(1, chunk_length(raw.size * used.itemsize) // (used.itemsize * block))
    for j in range(0, n_blocks, step):  # a chunk of slots: gather, then compress the used ones
        part = cells[:, j:j + step].T  # the chunk's cells in stream order
        keep = np.take(used, part).view(bool).ravel()
        size = np.count_nonzero(keep)
        np.compress(keep, np.take(rows, part).view(np.uint8).ravel(), out=symbols[at:at + size])
        at += size
    return symbols, counts.astype(np.int64)


@dataclass(frozen=True)
class StorageReport:
    """Bits-per-weight accounting for one layer or an aggregate.

    l_b, l_a, and l_model come from the closed-form budget; l_i is the
    closed-form index estimate while l_i_realized is the packed Huffman
    average, reported side by side because the two disagree by design.
    realized_total_bits covers scales, scalars, and all packed streams
    (byte padding included), excluding fixed per-layer metadata.
    """

    weights: int
    l_b: float
    l_a: float
    l_i: float
    l_model: float
    l_i_realized: float
    realized_total_bits: int
    bits_per_weight: float
    salient_fraction: float
    over_budget: bool


def storage_budget(m: int, n: int, config: "QuantConfig", p_sal_max: float) -> tuple[float, float, float, float]:
    """Closed-form (l_b, l_a, l_i, l_model) for the given dims and config."""
    if m < 1 or n < 1:
        raise DomainError("storage budget needs positive dimensions")
    l_b = 1.0 + (config.n_bits - 1) * p_sal_max
    l_a = SCALE_WIDTH * (config.n_uns + m) / (m * n)
    return l_b, l_a, index_bits(config.n_uns, p_sal_max), l_b + l_a


def storage_report(layer: "LayerHeader") -> StorageReport:
    """Storage accounting for a quantized layer, or a layer header read from a file.

    Realized stream sizes come from `stream_bytes`, as the artifact
    writer's and reader's do, so they match the artifact byte for byte.
    """
    cfg = layer.config
    weights = layer.m * layer.n
    p_cap = layer.p_sal_max
    l_b, l_a, l_i, l_model = storage_budget(layer.m, layer.n, cfg, p_cap)

    salient = int(layer.counts[cfg.n_uns])
    index_bytes, code_bytes, sign_bytes = stream_bytes(layer.counts, layer.codebook, cfg.n_bits)
    realized = SCALE_WIDTH * (layer.m + cfg.n_uns) + 8 * (index_bytes + code_bytes + sign_bytes)
    bpw = realized / weights
    l_i_real = 8.0 * index_bytes / weights

    # Scales and the index stream count alike on both sides, so this compares the salient
    # codes and signs with l_b, the padding of the three streams the only slack: a salient
    # share above the cap trips it only at n_bits > 1, where a salient weight costs more.
    budget = l_model + l_i_real + (3 * 7) / weights
    return StorageReport(weights=weights, l_b=l_b, l_a=l_a, l_i=l_i,
                         l_model=l_model, l_i_realized=l_i_real,
                         realized_total_bits=int(realized),
                         bits_per_weight=bpw,
                         salient_fraction=salient / weights,
                         over_budget=bool(bpw > budget + 1e-12))


def aggregate_reports(reports: list[StorageReport]) -> StorageReport:
    """Size-weighted aggregate of per-layer reports."""
    if not reports:
        raise DomainError("nothing to aggregate")
    weights = sum(r.weights for r in reports)
    wmean = lambda attr: sum(getattr(r, attr) * r.weights for r in reports) / weights
    realized = sum(r.realized_total_bits for r in reports)
    return StorageReport(weights=weights,
                         l_b=wmean("l_b"), l_a=wmean("l_a"), l_i=wmean("l_i"),
                         l_model=wmean("l_model"), l_i_realized=wmean("l_i_realized"),
                         realized_total_bits=realized,
                         bits_per_weight=realized / weights,
                         salient_fraction=wmean("salient_fraction"),
                         over_budget=any(r.over_budget for r in reports))
