"""Prefix-code packing of group-index streams and storage accounting.

Group indices are packed with a canonical Huffman code built from realized
frequencies, one label or a pair of labels per symbol; the packed stream is
MSB-first within bytes and zero-padded to a byte boundary. Storage reports
carry both the closed-form budget numbers and the realized packed sizes so
the two can be compared side by side.
"""

import functools
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, FormatError, TruncationError

if TYPE_CHECKING:  # pragma: no cover
    from .config import QuantConfig
    from .tensor_store import LayerHeader

# Longest code `CodeBook.from_frequencies` builds. A .bvq's six groups take at most 5 bits and
# its label pairs at most this many, so longer codes come only from API callers of the codec;
# each speculative decode block first runs from every live state (up to n_groups - 1), so a
# 112-group code decodes 6-10x slower per MB.
MAX_CODE_LEN = 20
# A .bvq layer stores its scales and shell scalars as binary16, and its 3-bit index width
# addresses at most max_partitions(INDEX_WIDTH) = 5 shells.
SCALE_WIDTH = 16
INDEX_WIDTH = 3
CHUNK = 1 << 16  # the most elements a chunked pass takes at once (cache)
# Stream bytes per decode block of a stream packed with its entry states: one state byte
# per block, 0.0047 bits per weight on a pair-coded 4096x1024 layer.
ENTRY_BLOCK = 512
# A layer of at least this many weights codes its index stream in label pairs, with entry
# states (`index_code`). On pinned Student-t layers (numpy 2.4, 2 shared Xeon vCPUs, medians
# of 15) pairs took the stream from 2.497 to 2.411 bits per weight at every size, its decode
# from 25.6 to 21.7 ms at 4096x1024, 6.7 to 6.7 ms at 1024x1024, 3.8 to 4.4 ms at 512x1024
# and 2.1 to 3.3 ms at 512x512 (a block's 512 lockstep steps cost the same at any width),
# and its packing from 21.6 to 22.3, 5.4 to 5.6, 2.7 to 3.0 and 1.5 to 1.7 ms.
PAIR_WEIGHTS = 1 << 19


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
    encoded by count alone and pack to zero bytes. A code of span 2 codes
    label pairs: its symbol a * G + b stands for the labels (a, b) of G =
    `n_labels` groups, and its streams hold labels, an even number of them.
    """

    lengths: tuple[int, ...]
    codes: tuple[int, ...]
    solo: int | None = None
    span: int = 1

    @classmethod
    def from_frequencies(cls, freqs) -> "CodeBook":
        """Huffman code over the groups of positive frequency, in canonical order.

        Heap entries are (frequency, age, groups), leaves aged first in group order; merging the
        two lightest adds one bit to every group in both. Codes count up in (length, group) order.
        """
        freqs = np.asarray(freqs, dtype=np.float64)
        if freqs.size == 0 or not np.all(freqs >= 0) or freqs.sum() <= 0:
            raise DomainError("frequencies must be nonnegative with a positive sum")
        live, lengths = np.flatnonzero(freqs).tolist(), [0] * freqs.size
        heap = sorted((freqs[g], age, [g]) for age, g in enumerate(live))  # sorted: a valid heap
        for age in range(len(live), 2 * len(live) - 1):
            (f1, _, a), (f2, _, b) = heapq.heappop(heap), heapq.heappop(heap)
            for g in a + b:
                lengths[g] += 1
            heapq.heappush(heap, (f1 + f2, age, a + b))
        if max(lengths) > MAX_CODE_LEN:
            raise DomainError(f"code lengths exceed {MAX_CODE_LEN} bits; "
                              "too many groups or too skewed frequencies")
        codes, code, prev = [0] * freqs.size, 0, 0
        for length, g in sorted((l, g) for g, l in enumerate(lengths) if l):
            code <<= length - prev
            codes[g], code, prev = code, code + 1, length
        return cls(lengths=tuple(lengths), codes=tuple(codes),
                   solo=live[0] if len(live) == 1 else None)

    @classmethod
    def pairs(cls, counts) -> "CodeBook":
        """Huffman code over the label pairs (a, b) of groups with these counts, of frequency
        c_a * c_b; symbol a * G + b. Like `from_frequencies`, raises DomainError past
        MAX_CODE_LEN."""
        counts = np.asarray(counts, dtype=np.float64)
        book = cls.from_frequencies(np.outer(counts, counts).ravel())
        return cls(book.lengths, book.codes, book.solo, span=2)

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

    @property
    def n_labels(self) -> int:
        """Groups of the labels a stream holds: n_groups, or its square root for a pair code."""
        return round(self.n_groups ** (1 / self.span))


def index_code(counts, weights: int) -> CodeBook:
    """The code of a layer's index stream, from its group counts and weights: the label pair
    code from PAIR_WEIGHTS weights on, unless one group takes them all or a pair's code would
    be longer than MAX_CODE_LEN bits (two near-empty groups among unequal ones); else the
    group code."""
    book = CodeBook.from_frequencies(counts)
    if weights >= PAIR_WEIGHTS and book.solo is None:
        try:
            return CodeBook.pairs(counts)
        except DomainError:
            pass
    return book


def entry_count(nbytes: int) -> int:
    """Entry states stored with a stream of `nbytes`: one per ENTRY_BLOCK-byte block after
    the first."""
    return max(0, -(-nbytes // ENTRY_BLOCK) - 1)


def stream_bytes(counts, book: CodeBook, n_bits: int,
                 stream: int | None = None) -> tuple[int, int, int]:
    """Bytes of the index (entry states included), salient code and sign streams of a layer with
    these group counts. A pair-coded index stream's length does not follow from the counts:
    `stream` gives it, and its entry states are added."""
    salient, weights = int(counts[-1]), sum(counts.tolist())
    if book.span == 1:
        index = (sum(c * l for c, l in zip(counts.tolist(), book.lengths)) + 7) // 8
    else:
        index = stream + entry_count(stream)
    return index, (salient * n_bits + 7) // 8, (weights - salient + 7) // 8


def pair_stream_bytes(labels, codebook: CodeBook) -> int:
    """Bytes of the stream `pack_stream` packs these labels to under a pair code, without
    packing it: its pair symbols counted a chunk at a time (6.5 ms on 4M labels)."""
    labels, base = np.asarray(labels).ravel(), codebook.n_labels
    pairs = np.zeros(base * base, dtype=np.int64)
    for j in range(0, labels.size, CHUNK):
        chunk = labels[j:j + CHUNK]
        if chunk.size % 2:  # the last label pairs with itself, as packed
            chunk = np.append(chunk, chunk[-1])
        pairs += np.bincount(chunk[0::2].astype(np.intp) * base + chunk[1::2],
                             minlength=base * base)
    return (int(pairs @ np.asarray(codebook.lengths)) + 7) // 8


def pack_stream(symbols, codebook: CodeBook, entries: bool = False):
    """Pack a stream of labels with the codebook; MSB-first, zero-padded to bytes.

    A pair code takes the labels two at a time, an odd count padded with a
    copy of the last label, which the decoder drops by count. Runs of k
    symbols index a table of their joined codes and lengths, items are joined
    pairwise in uint64 while any two fit in 64 bits, and each item goes to its
    bit offset: its high part into its 64-bit word, one OR-reduce per word,
    and any spill into the next word. This runs on CHUNK labels at a time,
    each chunk from the bit where the last one ended, in one buffer of
    max_length bits per symbol. On 4M labels of 6 groups (numpy 2.4, Xeon) it
    takes 18-20 ms and peaks at 0.86 bytes per label (26 ms and 4.6 bytes in
    one pass); chunks of 32K labels take 11% longer, and 128K as long. In
    label pairs with entry states it takes about 1 ms longer: 22.4 against
    21.3 ms on a pinned 4096x1024 Student-t layer, medians of 10.

    With `entries`, returns (stream, entry states): the code tree's state at
    the start of each ENTRY_BLOCK-byte block after the first, one byte each,
    found by running the tree over the first bits of the item that holds
    the block's first bit, from the item's start found by its bit offset.
    """
    symbols = np.asarray(symbols).ravel()
    if symbols.size == 0:
        return (b"", b"") if entries else b""
    base, span = codebook.n_labels, codebook.span
    if symbols.min() < 0 or symbols.max() >= base:
        raise DomainError("symbol outside the codebook's group range")
    if codebook.solo is not None:
        if np.any(symbols != codebook.solo % base):
            raise DomainError("stream contains a group with no code")
        return (b"", b"") if entries else b""

    # The k-symbol table, indexed in base `base` over k * span labels, squares
    # while it stays at 4096 entries and 32-bit codes: k = 4 for six groups of
    # codes up to 8 bits, 2 for their pairs, 1 for 20-bit codes.
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
    rounds = (64 // (k * min(filter(None, codebook.lengths)))).bit_length() - 1  # at most
    uncoded = [g for g in range(base) if codebook.lengths[g * (base + 1) if span == 2 else g] == 0]
    per, block_bits, starts = k * span, 8 * ENTRY_BLOCK, []

    words = np.zeros((-(-symbols.size // span) * codebook.max_length >> 6) + 2, np.uint64)
    end = np.uint64(0)
    for j in range(0, symbols.size, CHUNK):
        chunk = symbols[j:j + CHUNK]
        if any(np.any(chunk == g) for g in uncoded):
            raise DomainError("stream contains a group with no code")
        full = chunk.size - chunk.size % per
        index = chunk[0:full:per].astype(np.intp)
        for i in range(1, per):
            index *= base
            np.add(index, chunk[i:full:per], out=index, casting="unsafe")  # any integer dtype
        if chunk.size % (per << rounds):  # the last chunk: its tail, then empty items to
            tail = chunk[full:].astype(np.intp)  # make 2**rounds divide the count
            if span == 2:
                tail = np.append(tail, tail[-1:][:tail.size % 2])  # an even count of labels
                tail = tail[0::2] * base + tail[1::2]
            tail += groups ** k
            empty = np.full(-(index.size + tail.size) % (1 << rounds), -1)
            index = np.concatenate((index, tail, empty))
        codes, lengths = table[index], widths[index]
        del index
        for r in range(rounds):  # while every joined pair of items fits 64 bits
            joined = lengths[0::2] + lengths[1::2]
            if (k << r + 1) * codebook.max_length > 64 and joined.max() > 64:
                break
            codes, lengths = codes[0::2] << lengths[1::2] | codes[1::2], joined

        # An item of length l from bit b of word w fills bits [b, b + l) of the
        # 128-bit pair (w, w + 1): with r = 128 - b - l its part in w is
        # c >> (64 - r) | c << (r - 64) and its spill c << r. numpy shifts by 64
        # or more give 0, and the uint64 differences wrap to such shifts.
        ends = end + np.cumsum(lengths, dtype=np.uint64)
        start = ends - lengths
        if entries:  # where the item that holds each block edge of this chunk starts
            first, stop = -(-int(end) // block_bits), -(-int(ends[-1]) // block_bits)
            edges = np.arange(max(first, 1), stop, dtype=np.uint64) * np.uint64(block_bits)
            starts.append(start[np.searchsorted(ends, edges, side="right")])
        word = start >> 6
        shift = (word << 6) + 128 - ends
        runs = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))  # monotone
        high = codes >> (64 - shift) | codes << (shift - 64)
        first = words[word[0]]  # the last chunk's bits in this chunk's first word
        words[word[runs]] = np.bitwise_or.reduceat(high, runs)
        words[word[0]] |= first
        words[word[runs] + 1] |= np.bitwise_or.reduceat(codes << shift, runs)
        end = ends[-1]
    if entries:  # the 64 bits from each such item's start, and the edge's offset in them
        start = np.concatenate(starts)
        word, bit = start >> 6, start & 63
        window = words[word] << bit | words[word + 1] >> (64 - bit)
        edges = np.arange(1, start.size + 1, dtype=np.uint64) * np.uint64(block_bits)
        states = _entry_states(codebook, window, (edges - start).astype(np.intp))
    packed = words[:-(-int(end) // 64)]
    if np.little_endian:  # MSB-first bytes are big-endian words
        packed.byteswap(inplace=True)
    stream = packed.view(np.uint8)[:(int(end) + 7) // 8].tobytes()
    return (stream, states.tobytes()) if entries else stream


def _entry_states(codebook: CodeBook, window, offsets) -> np.ndarray:
    """The code tree's state, as uint8, after the first `offsets` bits (below 64) of uint64
    windows that start on a symbol, MSB first, a nibble at a time: cell (r * states + state)
    * 16 + nibble of `after` holds the state after the nibble's first r bits."""
    bit_next = _code_tree(codebook)[0]
    cells = np.arange(bit_next.size * 8)  # states x 16 nibbles
    after = [cells >> 4]
    for r in range(4):
        after.append(bit_next[after[-1], cells >> 3 - r & 1])
    after = np.concatenate(after)
    octets = window.astype(">u8").view(np.uint8).reshape(-1, 8)
    nibbles = np.stack((octets >> 4, octets & 15), axis=2).reshape(-1, 16).T  # row j: nibble j
    state = np.zeros(offsets.size, dtype=np.intp)
    for j in range(-(-int(offsets.max(initial=0)) // 4)):
        taken = np.minimum(np.maximum(offsets - 4 * j, 0), 4)  # the bits taken of nibble j
        state = after[taken * cells.size + state * 16 + nibbles[j]]
    return state.astype(np.uint8)


def chunk_length(size: int) -> int:
    """Elements per chunk of a `size`-element gather: at most CHUNK and size / 8."""
    return max(1, min(CHUNK, size >> 3))


def _block_size(nbytes: int) -> int:
    """Bytes per decode block: 16 up to 32 KB of stream, doubling to 128 from 128 KB."""
    return min(128, max(16, 1 << (nbytes >> 11).bit_length()))


def _code_tree(codebook: CodeBook):
    """(next state, symbol completed or -1) per (state, bit) of the code tree's internal nodes
    (root 0), then a dead state that emits nothing and only exits to itself."""
    nodes = {(0, 0): 0}  # (depth, code prefix) -> state
    leaves = {}
    for sym, (code, length) in enumerate(zip(codebook.codes, codebook.lengths)):
        if length:
            leaves[length, code] = sym
            for depth in range(1, length):
                nodes.setdefault((depth, code >> (length - depth)), len(nodes))
    dead = len(nodes)
    bit_next, bit_sym = [[dead, dead]] * (dead + 1), [[-1, -1]] * (dead + 1)
    for (depth, prefix), state in nodes.items():
        children = [(depth + 1, 2 * prefix + bit) for bit in (0, 1)]
        bit_next[state] = [nodes.get(child, 0) for child in children]  # a leaf returns to the root
        bit_sym[state] = [leaves.get(child, -1) for child in children]
    return np.array(bit_next), np.array(bit_sym)


@functools.lru_cache(maxsize=8)
def _byte_automaton(codebook: CodeBook):
    """Decoding automaton tables of (states x 256) cells, cell = state * 256 + byte.

    States are `_code_tree`'s; the code is complete, so the dead state only
    marks cells past a stream's end. Each state's 16 nibbles run bit by bit,
    and a byte composes two nibble cells: its high nibble's, then its low
    nibble's from the state the first left. Returns the dead state's first
    cell and per cell the next state's first cell, a mask of the slots filled
    and the symbols the byte completes in them, as rows of 1, 2, 4 or 8 uint8
    slots. On a pinned 4096x1024 Student-t layer's counts (medians of 30)
    the 36 pair symbols' tables build in 0.56 ms (1.46 ms bit by bit over
    all cells), its six groups' in 0.19 ms (0.36 ms).
    """
    bit_next, bit_sym = _code_tree(codebook)
    states = len(bit_next)
    # Per nibble cell state * 16 + nibble: the next state, and the symbols completed in slots.
    state, nibble = np.divmod(np.arange(states * 16), 16)
    count = np.zeros(state.size, dtype=np.uint8)
    slots = np.zeros((state.size, 8), dtype=np.uint8)
    for shift in (3, 2, 1, 0):
        bit = (nibble >> shift) & 1
        sym = bit_sym[state, bit]
        hit = np.flatnonzero(sym >= 0)
        slots[hit, count[hit]] = sym[hit]
        count[hit] += 1
        state = bit_next[state, bit]
    low = (state.reshape(states, 16, 1) * 16 + np.arange(16)).ravel()  # the low nibble's cell
    first = count.repeat(16)
    out = slots.repeat(16, axis=0)
    second = count[low]
    for j in range(4):  # a nibble completes at most 4 symbols
        hit = np.flatnonzero(second > j)
        out[hit, first[hit] + j] = slots[low[hit], j]
    emitted = first + second
    width = 1 << (int(emitted.max()) - 1).bit_length()
    used = np.arange(width) < emitted[:, None]
    row = lambda a: np.ascontiguousarray(a[:, :width]).view(f"u{width}").ravel()
    return (states - 1) * 256, state[low].astype(np.intp) * 256, row(used.view(np.uint8)), row(out)


def unpack_stream(data: bytes, codebook: CodeBook, count: int, return_counts: bool = False,
                  entries: bytes | None = None):
    """Decode the first `count` labels of a packed stream, as uint8.

    With `return_counts`, also return each group's count among them. Codes of
    one length up to 8 bits, equal to their groups, are cut by shifts and
    masks. Others run a byte automaton over the code tree on blocks of bytes
    (data-parallel FSM decoding, Mytkowicz et al., ASPLOS 2014) and compress
    the symbols out in chunks, a pair code's symbols then gathered into label
    pairs. Without `entries` each block runs from every live state until all
    agree, then as one run: on 4M labels of 6 groups (numpy 2.4, 2 shared
    Xeon vCPUs) this takes 21-26 ms and 13 traced bytes per input byte, 8 of
    them cell indices (one compress: 38-58 ms, 25 bytes). With the entry
    states `pack_stream` stores, the ENTRY_BLOCK-byte blocks run from them in
    lockstep, and a block whose exit differs from the next entry raises
    FormatError: the same labels in pairs take 17-22 ms and 13 bytes per
    input byte, half the compress work, since each slot holds two labels.
    The code must be complete, as binq's are: any bits decode. Raises
    TruncationError if the stream holds fewer than `count` whole labels;
    later bits are ignored.
    """
    if count < 0:
        raise DomainError(f"count must be nonnegative, got {count}")
    if codebook.n_groups > 256:
        raise DomainError(f"{codebook.n_groups} groups exceed the uint8 symbols")
    raw = np.frombuffer(data, dtype=np.uint8)
    groups, width = codebook.n_labels, codebook.max_length
    if count == 0 or codebook.solo is not None:
        symbols, counts = np.full(count, (codebook.solo or 0) % groups, dtype=np.uint8), None
    elif (width <= 8 and codebook.span == 1 and codebook.codes == tuple(range(groups))
          and min(codebook.lengths) == width):
        # Each `width` bytes hold 8 fields: field j is in the 16 bits from byte j * width // 8.
        whole, counts = min(count, 8 * raw.size // width), None
        rows = np.pad(raw, (0, width))[:-(-whole // 8) * width].reshape(-1, width)
        pairs = rows.astype(np.uint16) << 8 | np.pad(rows[:, 1:], ((0, 0), (0, 1)))
        fields = [pairs[:, j * width // 8] >> 16 - j * width % 8 - width for j in range(8)]
        symbols = (np.stack(fields, axis=1) & (1 << width) - 1).astype(np.uint8).ravel()[:whole]
    else:
        symbols, counts = _run_automaton(raw, codebook, entries)
    if symbols.size < count:
        raise TruncationError(f"{8 * raw.size}-bit stream holds fewer than {count} whole symbols")
    if return_counts:
        counts = np.bincount(symbols, minlength=groups) if counts is None else counts
        return symbols[:count], counts - np.bincount(symbols[count:], minlength=groups)
    return symbols[:count]


def _run_automaton(raw: np.ndarray, codebook: CodeBook, entries: bytes | None = None):
    """Every whole label of a stream, by the byte automaton, and each group's count.

    With `entries`, block k + 1 starts in entries[k] (an entry past the dead state runs
    dead), and every block's exit must equal the next one's entry; else the blocks'
    entries are found by `_speculate`. A pair code's slots expand to labels through one
    gather of its rows on a (pair -> two labels) uint16 table."""
    # A pair code follows from its one layer's counts, and its tables (110 KB at 36 symbols,
    # built in 0.56 ms) would outlive that layer in the cache: they are built per decode.
    build = _byte_automaton.__wrapped__ if codebook.span == 2 else _byte_automaton
    dead, next_row, used, rows = build(codebook)
    if entries is None:
        block = _block_size(raw.size)
        n_blocks = max(1, -(-raw.size // block))
    else:
        block, n_blocks = ENTRY_BLOCK, entry_count(raw.size) + 1
        entry = np.frombuffer(entries, dtype=np.uint8)
        if entry.size != n_blocks - 1:
            raise DomainError(f"{raw.size} stream bytes take {n_blocks - 1} entry states, "
                              f"not {entry.size}")
    blocks = np.pad(raw, (0, n_blocks * block - raw.size)).reshape(n_blocks, block).T.copy()
    cells = np.empty(blocks.shape, dtype=np.intp)
    if entries is not None:  # each block from its stored entry: one that is no state runs dead
        state = np.minimum(np.r_[0, entry].astype(np.intp), dead >> 8) << 8
        for u in range(block):
            np.add(state, blocks[u], out=cells[u])
            np.take(next_row, cells[u], out=state)
        wrong = np.flatnonzero(state[:-1] >> 8 != entry)
        if wrong.size:
            k = int(wrong[0])
            raise FormatError(f"index stream block {k} exits in state {state[k] >> 8}, "
                              f"block {k + 1} enters in {entry[k]}")
    else:
        _speculate(blocks, cells, dead, next_row)
    cells.T.flat[raw.size:] = dead  # the padding's cells: no symbols
    # Each cell's count times its symbols gives the group counts and their sum.
    hit = used.view(bool).reshape(len(used), -1)
    tally = np.bincount(cells.ravel(), minlength=len(used))[:, None] * hit
    counts = np.bincount(rows.view(np.uint8), tally.ravel(), minlength=codebook.n_groups)
    pairs = codebook.span == 2
    if pairs:  # each slot's pair as its labels, the two bytes of a uint16 in memory order
        labels = codebook.n_labels
        expand = np.array(np.divmod(np.arange(labels * labels), labels), np.uint8).T.copy()
        rows = expand.view(np.uint16)[rows.view(np.uint8)].reshape(len(rows), -1)
        counts = counts.reshape(labels, labels)
        counts = counts.sum(axis=1) + counts.sum(axis=0)
    symbols, at = np.empty(int(counts.sum()) >> pairs, dtype=rows.dtype if pairs else np.uint8), 0
    slot_bytes = used.itemsize << pairs  # a cell's slots, in bytes
    step = max(1, chunk_length(raw.size * slot_bytes) // (slot_bytes * block))
    for j in range(0, n_blocks, step):  # a chunk of slots: gather, then compress the used ones
        part = cells[:, j:j + step].T  # the chunk's cells in stream order
        keep = np.take(used, part).view(bool).ravel()
        size = np.count_nonzero(keep)
        slots = np.take(rows, part, axis=0).view(symbols.dtype).ravel()
        np.compress(keep, slots, out=symbols[at:at + size])
        at += size
    return symbols.view(np.uint8), counts.astype(np.int64)


def _speculate(blocks: np.ndarray, cells: np.ndarray, dead: int, next_row: np.ndarray):
    """Fill `cells` (row t: byte t of every block) with no entry states known: live states
    run until all agree, checked after 1, 2, 4, ... bytes."""
    n_blocks, block = blocks.shape[1], blocks.shape[0]
    state, t = np.arange(0, dead, 256)[:, None].repeat(n_blocks, axis=1), 0
    while len(state) > 1 and t < block:
        state = next_row[np.add(state, blocks[t], out=state)]
        t += 1
        if t & (t - 1) == 0 and (state == state[0]).all():
            state = state[:1]
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

    Realized stream sizes come from `LayerHeader.stream_sizes`, as the
    artifact writer's and reader's do, so they match the artifact byte for
    byte: a pair-coded index stream with its entry states, not its length.
    """
    cfg = layer.config
    weights = layer.m * layer.n
    p_cap = layer.p_sal_max
    l_b, l_a, l_i, l_model = storage_budget(layer.m, layer.n, cfg, p_cap)

    salient = int(layer.counts[cfg.n_uns])
    index_bytes, code_bytes, sign_bytes = layer.stream_sizes()
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
