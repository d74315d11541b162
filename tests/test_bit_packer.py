import heapq
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from binq import (DomainError, FormatError, QuantConfig, TruncationError, bit_packer,
                  read_artifact, write_artifact)
from binq.bit_packer import (MAX_CODE_LEN, CodeBook, index_bits,
                             max_partitions, pack_stream, storage_budget, unpack_stream)
from conftest import golden_layers, record_layouts


def is_prefix_free(book):
    """Oracle: no codeword is a prefix of another."""
    bits = [(format(c, f"0{l}b") if l else "") for c, l in zip(book.codes, book.lengths)]
    coded = [b for b in bits if b]
    for i, a in enumerate(coded):
        for j, b in enumerate(coded):
            if i != j and b.startswith(a):
                return False
    return True


def tree_huffman(freqs):
    """Oracle: (lengths, codes, solo) from a Huffman tree of nested pairs, walked
    for the depths, then canonical codes counted up in (length, group) order."""
    heap, tick = [], 0
    for group, f in enumerate(freqs):
        if f > 0:
            heap.append((float(f), tick, group))
            tick += 1
    heapq.heapify(heap)
    lengths = [0] * len(freqs)
    if len(heap) == 1:
        return lengths, lengths, heap[0][2]
    while len(heap) > 1:
        f1, _, n1 = heapq.heappop(heap)
        f2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, tick, (n1, n2)))
        tick += 1

    def walk(node, depth):
        if isinstance(node, int):
            lengths[node] = depth
        else:
            walk(node[0], depth + 1)
            walk(node[1], depth + 1)

    walk(heap[0][2], 0)
    codes, code, prev_len = [0] * len(freqs), 0, 0
    for length, group in sorted((l, g) for g, l in enumerate(lengths) if l > 0):
        code <<= length - prev_len
        codes[group] = code
        code += 1
        prev_len = length
    return lengths, codes, None


def average_length(book, freqs):
    """Expected code length in bits under the given group frequencies."""
    freqs = np.asarray(freqs, dtype=np.float64)
    probs = freqs / freqs.sum()
    return float(np.sum(probs * np.asarray(book.lengths)))


def stream_entropy_bits(counts):
    """Shannon information content of a label stream, in bits."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    probs = counts[counts > 0] / total
    return float(-np.sum(counts[counts > 0] * np.log2(probs)))


def jump_doubling_decode(data, book, count):
    """Oracle decoder: resolve every bit offset through a 2**max_length window
    table, then materialize the chain of symbol starts by doubling the jump map.
    A chain that reaches bits no codeword covers, or the end of the stream,
    before `count` symbols raises TruncationError."""
    out = np.zeros(count, dtype=np.int64)
    if count == 0:
        return out
    if book.solo is not None:
        out[:] = book.solo
        return out
    maxlen = book.max_length
    table_sym = np.zeros(1 << maxlen, dtype=np.int64)
    table_len = np.zeros(1 << maxlen, dtype=np.int64)
    for s, (c, l) in enumerate(zip(book.codes, book.lengths)):
        if l:
            table_sym[c << (maxlen - l):(c + 1) << (maxlen - l)] = s
            table_len[c << (maxlen - l):(c + 1) << (maxlen - l)] = l
    raw = np.frombuffer(data, dtype=np.uint8)
    nbits = raw.size * 8
    bits = np.zeros(nbits + maxlen, dtype=np.uint8)
    bits[:nbits] = np.unpackbits(raw)
    windows = np.zeros(nbits + 1, dtype=np.int64)
    for j in range(maxlen):
        windows = (windows << 1) | bits[j:j + nbits + 1]
    sym_at, len_at = table_sym[windows], table_len[windows]
    jump = np.minimum(np.arange(nbits + 1, dtype=np.int64) + len_at, nbits)
    starts = np.zeros(count, dtype=np.int64)
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        starts[filled:filled + take] = jump[starts[:take]]
        filled += take
        jump = jump[jump]
    if not len_at[starts].all():
        raise TruncationError("no codeword covers the bits at a symbol start")
    if starts[-1] + len_at[starts[-1]] > nbits:
        raise TruncationError("stream ends inside the last symbol")
    out[:] = sym_at[starts]
    return out


def bitwise_pack(symbols, book):
    """Oracle packer: place every code bit at its stream offset, then packbits."""
    symbols = np.asarray(symbols, dtype=np.int64)
    lens = np.asarray(book.lengths, dtype=np.int64)[symbols]
    vals = np.asarray(book.codes, dtype=np.int64)[symbols]
    starts = np.cumsum(lens) - lens
    bits = np.zeros(int(lens.sum()), dtype=np.uint8)
    for k in range(int(lens.max(initial=0))):
        m = lens > k
        bits[starts[m] + k] = (vals[m] >> (lens[m] - 1 - k)) & 1
    return np.packbits(bits).tobytes()


def fibonacci_book():
    """21 groups with Fibonacci frequencies: a Huffman code MAX_CODE_LEN deep."""
    fib = [1, 1]
    while len(fib) < MAX_CODE_LEN + 1:
        fib.append(fib[-1] + fib[-2])
    return CodeBook.from_frequencies(fib)


def skewed_book(rng, n_groups):
    return CodeBook.from_frequencies(rng.dirichlet(np.full(n_groups, 0.3)) + 1e-3)


class TestMaxPartitions:
    def test_three_bits(self):
        assert max_partitions(3) == 5

    def test_two_bits(self):
        assert max_partitions(2) == 1

    def test_four_bits(self):
        assert max_partitions(4) == 13

    def test_too_narrow(self):
        with pytest.raises(DomainError):
            max_partitions(1)


class TestIndexBits:
    def test_reference_configuration(self):
        # eta=1: 1*min(2,4)=2; eta=2: 2*min(4,2)=4; eta=3: clamped to 0.
        p_uns = (1 - 0.01) / 5
        value = index_bits(5, 0.01)
        assert value == pytest.approx(6 * p_uns + 0.01 * 3, abs=1e-12)
        assert value == pytest.approx(1.218, abs=1e-3)

    def test_single_partition(self):
        p_uns = (1 - 0.02) / 1
        value = index_bits(1, 0.02)
        # eta=1: min(2, 0) = 0; all eta terms clamp to zero
        assert value == pytest.approx(0.02 * 3, abs=1e-12)

    def test_zero_salient_share(self):
        p_uns = 1.0 / 5
        value = index_bits(5, 0.0)
        assert value == pytest.approx(6 * p_uns, abs=1e-12)


class TestCodeBook:
    def test_two_equal_groups_one_bit_each(self):
        book = CodeBook.from_frequencies([10, 10])
        assert book.lengths == (1, 1)

    def test_dominant_group_gets_one_bit(self):
        book = CodeBook.from_frequencies([0.97, 0.01, 0.01, 0.01])
        assert book.lengths[0] == 1
        assert is_prefix_free(book)

    def test_uniform_six_groups_within_entropy_plus_one(self):
        freqs = [1.0] * 6
        book = CodeBook.from_frequencies(freqs)
        assert average_length(book, freqs) <= math.log2(6) + 1
        assert is_prefix_free(book)

    def test_prefix_free_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            freqs = rng.integers(0, 100, n)
            if freqs.sum() == 0:
                freqs[0] = 1
            book = CodeBook.from_frequencies(freqs)
            assert is_prefix_free(book)

    def test_single_group_zero_length(self):
        book = CodeBook.from_frequencies([0, 42, 0])
        assert book.max_length == 0
        assert book.solo == 1

    def test_fixed_width(self):
        book = CodeBook.fixed(2)
        assert book.lengths == (2, 2, 2, 2)
        assert book.codes == (0, 1, 2, 3)

    def test_average_within_one_bit_of_entropy(self, rng):
        for _ in range(10):
            freqs = rng.integers(1, 200, int(rng.integers(2, 8))).astype(float)
            probs = freqs / freqs.sum()
            entropy = -np.sum(probs * np.log2(probs))
            book = CodeBook.from_frequencies(freqs)
            assert entropy <= average_length(book, freqs) <= entropy + 1


@settings(max_examples=150, deadline=None)
@given(freqs=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10 ** 6),
                                st.sampled_from([0.5, 0.25, 2.0 ** -30]),
                                st.floats(0.0, 1.0, allow_subnormal=False)),
                      min_size=2, max_size=128))
@example(freqs=[1, 1, 2, 2])  # the merged 1 + 1 ties both leaves of 2, and pops after them
@example(freqs=[0, 5, 0])
def test_codebook_matches_tree_walk_oracle(freqs):
    """Zeros, ties, dyadic and skewed frequencies: the same lengths, codes and solo
    as the tree-walk oracle, or DomainError where its lengths pass MAX_CODE_LEN."""
    assume(sum(freqs) > 0)
    lengths, codes, solo = tree_huffman(freqs)
    if max(lengths) > MAX_CODE_LEN:
        with pytest.raises(DomainError, match="code lengths exceed"):
            CodeBook.from_frequencies(freqs)
        return
    book = CodeBook.from_frequencies(freqs)
    assert (book.lengths, book.codes, book.solo) == (tuple(lengths), tuple(codes), solo)


class TestPackUnpack:
    def test_empty_stream(self):
        book = CodeBook.from_frequencies([1, 1])
        assert pack_stream([], book) == b""
        assert unpack_stream(b"", book, 0).size == 0

    def test_nine_one_bit_codes_pack_to_two_bytes(self):
        book = CodeBook.from_frequencies([1, 1])
        packed = pack_stream([0, 1, 0, 1, 0, 1, 0, 1, 0], book)
        assert len(packed) == 2

    def test_roundtrip_large(self):
        rng = np.random.default_rng(17)
        labels = rng.integers(0, 6, 100_000)
        freqs = np.bincount(labels, minlength=6)
        book = CodeBook.from_frequencies(freqs)
        packed = pack_stream(labels, book)
        assert np.array_equal(unpack_stream(packed, book, labels.size), labels)

    def test_single_group_stream_count_only(self):
        book = CodeBook.from_frequencies([0, 7])
        packed = pack_stream([1, 1, 1, 1], book)
        assert packed == b""
        assert np.array_equal(unpack_stream(b"", book, 4), [1, 1, 1, 1])

    def test_truncated_stream_detected(self):
        book = CodeBook.from_frequencies([1, 1, 1, 1])
        labels = np.arange(4).repeat(10)
        packed = pack_stream(labels, book)
        with pytest.raises(TruncationError):
            unpack_stream(packed[:-1], book, labels.size)
        with pytest.raises(TruncationError):
            unpack_stream(b"", book, 3)

    def test_symbol_outside_codebook(self):
        book = CodeBook.from_frequencies([1, 1])
        with pytest.raises(DomainError):
            pack_stream([0, 2], book)

    def test_solo_stream_with_a_foreign_symbol(self):
        # A solo code packs to nothing, so a symbol of another group would be lost.
        book = CodeBook.from_frequencies([0, 7, 0])
        with pytest.raises(DomainError, match="group with no code"):
            pack_stream([1, 0, 1], book)

    def test_symbol_without_code(self):
        book = CodeBook.from_frequencies([5, 5, 0])
        with pytest.raises(DomainError):
            pack_stream([0, 2], book)

    def test_realized_bits_at_least_entropy(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            labels = rng.integers(0, n, int(rng.integers(100, 5000)))
            freqs = np.bincount(labels, minlength=n)
            book = CodeBook.from_frequencies(freqs)
            packed = pack_stream(labels, book)
            assert len(packed) * 8 >= stream_entropy_bits(freqs) - 1e-9


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_property(data):
    n_groups = data.draw(st.integers(min_value=2, max_value=7))
    length = data.draw(st.integers(min_value=0, max_value=2000))
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    # skewed frequencies exercise unequal code lengths
    weights = rng.dirichlet(np.full(n_groups, 0.3))
    labels = rng.choice(n_groups, size=length, p=weights)
    freqs = np.bincount(labels, minlength=n_groups)
    if freqs.sum() == 0:
        freqs = np.ones(n_groups, dtype=np.int64)
    book = CodeBook.from_frequencies(freqs)
    packed = pack_stream(labels, book)
    assert np.array_equal(unpack_stream(packed, book, labels.size), labels)
    if book.solo is not None:  # a solo book has no code
        assert book.codes == (0,) * n_groups


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=128),
       width=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2 ** 31))
@example(counts=[0, 5, 0, 9], width=1, seed=0)
@example(counts=list(range(128)), width=8, seed=0)
def test_every_codebook_is_complete(counts, width, seed):
    # The decoders rely on it: under a complete code every bit path decodes,
    # so they need no way out of a bit path that no codeword covers.
    if not any(counts):
        counts[0] = 1
    try:
        book = CodeBook.from_frequencies(counts)
    except DomainError:  # codes longer than MAX_CODE_LEN
        assume(False)
    fixed = CodeBook.fixed(width)
    assert fixed.lengths == (width,) * 2 ** width and fixed.codes == tuple(range(2 ** width))
    books = [fixed]
    if book.solo is None:
        # Kraft's sum over the coded groups is 1, in integers.
        coded = [length for length in book.lengths if length]
        assert sum(2 ** (book.max_length - length) for length in coded) == 2 ** book.max_length
        books.append(book)
    data = np.random.default_rng(seed).integers(0, 256, 200, dtype=np.uint8).tobytes()
    for b in books:
        for size in (1, 7, 200):
            count = 8 * size // b.max_length
            expected = jump_doubling_decode(data[:size], b, count)
            assert np.array_equal(unpack_stream(data[:size], b, count), expected)


class TestStorageBudget:
    def test_reference_model_dimensions(self):
        config = QuantConfig(n_uns=5, p_sal_max=0.01, n_bits=2)
        l_b, l_a, l_i, l_model = storage_budget(4096, 4096, config, 0.01)
        assert l_b == pytest.approx(1.01, abs=1e-12)
        assert l_a == pytest.approx((5 * 16 + 16 * 4096) / 4096 ** 2, abs=1e-15)
        assert l_model == pytest.approx(1.014, abs=1e-3)

    def test_zero_cap_gives_one_bit(self):
        config = QuantConfig(n_uns=5, n_bits=2)
        l_b, _, _, _ = storage_budget(512, 512, config, 0.0)
        assert l_b == 1.0

    def test_closed_form_any_dims(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 5000))
            n = int(rng.integers(1, 5000))
            cap = float(rng.uniform(0.001, 0.2))
            config = QuantConfig(n_uns=5, n_bits=2)
            l_b, l_a, _, l_model = storage_budget(m, n, config, cap)
            assert l_model == pytest.approx(
                1 + cap + (5 * 16 + 16 * m) / (m * n), abs=1e-6)


def test_roundtrip_million_symbols():
    rng = np.random.default_rng(31)
    labels = rng.choice(6, size=10 ** 6, p=[0.4, 0.3, 0.15, 0.1, 0.04, 0.01])
    freqs = np.bincount(labels, minlength=6)
    book = CodeBook.from_frequencies(freqs)
    packed = pack_stream(labels, book)
    assert np.array_equal(unpack_stream(packed, book, labels.size), labels)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["deep", "fixed2", "fixed8", "skewed"]),
       length=st.integers(min_value=0, max_value=3000),
       seed=st.integers(min_value=0, max_value=2 ** 31),
       random_bytes=st.booleans())
@example(kind="fixed2", length=511, seed=0, random_bytes=False)  # 128 bytes, one block
@example(kind="fixed2", length=513, seed=0, random_bytes=False)  # 129 bytes
@example(kind="fixed8", length=700, seed=0, random_bytes=False)  # holds symbol 255
@example(kind="deep", length=1, seed=0, random_bytes=False)
@example(kind="deep", length=0, seed=0, random_bytes=True)
def test_pack_unpack_match_oracles(kind, length, seed, random_bytes):
    rng = np.random.default_rng(seed)
    book = {"deep": fibonacci_book, "fixed2": lambda: CodeBook.fixed(2),
            "fixed8": lambda: CodeBook.fixed(8),
            "skewed": lambda: skewed_book(rng, int(rng.integers(2, 9)))}[kind]()
    if kind == "deep":
        assert book.max_length == MAX_CODE_LEN
    if random_bytes:
        # Any bytes decode under a complete code; ask for about as many
        # symbols as they hold, so some requests are truncated.
        data = rng.integers(0, 256, length // 4, dtype=np.uint8).tobytes()
        count = int(rng.integers(0, 8 * len(data) // min(book.lengths) + 2))
    else:
        symbols = rng.integers(0, book.n_groups, length)
        data = pack_stream(symbols, book)
        assert data == bitwise_pack(symbols, book)
        count = length
    try:
        expected = jump_doubling_decode(data, book, count)
    except TruncationError:
        with pytest.raises(TruncationError):
            unpack_stream(data, book, count)
    else:
        got = unpack_stream(data, book, count)
        assert got.dtype == np.uint8 and np.array_equal(got, expected)


def packer_books():
    """Codebooks for the packer's edges; k is the tuple size pack_stream picks."""
    return {
        "six": CodeBook.from_frequencies([0.3, 0.25, 0.2, 0.15, 0.08, 0.02]),  # k = 4
        "fixed2": CodeBook.fixed(2),  # k = 4: a 256-entry tuple table
        "binary": CodeBook.fixed(1),  # k = 8: merged items are full words
        "deep": fibonacci_book(),  # k = 1: 20-bit codes
        "fixed8": CodeBook.fixed(8),  # k = 1: every uint8 symbol
        "wide": CodeBook.from_frequencies(np.arange(20) + 10),  # k = 2: 400 pairs
    }


@pytest.mark.parametrize("kind", sorted(packer_books()))
def test_pack_matches_oracle_at_edges(kind):
    book = packer_books()[kind]
    if kind == "wide":
        assert book.max_length <= 16  # so pairs of its 20 groups are tabled
    rng = np.random.default_rng(8)
    # Every length up to 2k + 1 for any k the packer picks (k <= 8), so each
    # tail length occurs with and without whole tuples before it.
    for length in range(18):
        for dtype in (np.int64, np.uint64, np.uint16 if kind == "fixed8" else np.int8):
            symbols = rng.integers(0, book.n_groups, length).astype(dtype)
            assert pack_stream(symbols, book) == bitwise_pack(symbols, book)
    # Streams of exactly 1, 2 and 5 64-bit words: the last code ends on a
    # word boundary and no byte is padded.
    for words in (1, 2, 5):
        ends = []
        while 64 * words not in ends:
            symbols = rng.integers(0, book.n_groups, 64 * words)
            ends = np.cumsum(np.asarray(book.lengths)[symbols])
        symbols = symbols[:np.searchsorted(ends, 64 * words) + 1]
        assert pack_stream(symbols, book) == bitwise_pack(symbols, book)


def string_bits(symbols, book) -> list:
    """Reference packer: each symbol's code as a bit string. Joined, the first n of
    them and zero padding to a byte are the packed stream of the first n symbols."""
    return [format(book.codes[s], f"0{book.lengths[s]}b") if book.lengths[s] else ""
            for s in symbols.tolist()]


def string_pack(codes) -> bytes:
    bits = "".join(codes)
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


def chunk_edge_books():
    """Codebooks for the chunk edges: the six-group Huffman code, fixed widths 1 to 3,
    a 20-bit code (tuples of one symbol) and a solo code (no bits at all)."""
    return {
        "six": CodeBook.from_frequencies([0.3, 0.25, 0.2, 0.15, 0.08, 0.02]),
        **{f"fixed{w}": CodeBook.fixed(w) for w in (1, 2, 3)},
        "deep": fibonacci_book(),
        "solo": CodeBook.from_frequencies([0, 0, 9]),
    }


@pytest.mark.parametrize("kind", sorted(chunk_edge_books()))
def test_pack_matches_string_reference_at_chunk_edges(kind):
    """Every stream length from 0 to 5 and within 5 of 1, 2 and 3 whole chunks
    packs as the string reference does: each chunk starts at the bit where the
    last one ended, and only the last chunk has a tail and padding."""
    book = chunk_edge_books()[kind]
    chunk = bit_packer.CHUNK
    rng = np.random.default_rng(23)
    if book.solo is None:
        symbols = rng.integers(0, book.n_groups, 3 * chunk + 5).astype(np.uint8)
    else:
        symbols = np.full(3 * chunk + 5, book.solo, dtype=np.uint8)
    lengths = {*range(6), *(c * chunk + d for c in (1, 2, 3) for d in range(-5, 6))}
    codes = string_bits(symbols, book)
    for length in sorted(lengths):
        assert pack_stream(symbols[:length], book) == string_pack(codes[:length]), length
    if kind == "six":  # a group with no code, met first in the last chunk, is refused
        book = CodeBook.from_frequencies([0.3, 0.25, 0.2, 0.15, 0.1, 0])
        symbols = np.minimum(symbols, 4)
        symbols[2 * chunk + 3] = 5
        with pytest.raises(DomainError, match="no code"):
            pack_stream(symbols, book)


@pytest.mark.parametrize("kind", ["six", "deep", "wide"])
def test_pack_codes_straddling_words_match_oracle(kind):
    book = packer_books()[kind]
    short = int(np.argmin(book.lengths))
    long = int(np.argmax(book.lengths))
    rng = np.random.default_rng(9)
    for before in range(64):
        # Short codes up to `before` bits, so that the longest code after
        # them starts at offsets across the first word, then random symbols.
        head = [short] * (before // book.lengths[short])
        symbols = np.array(head + [long] + list(rng.integers(0, book.n_groups, 300)))
        lens = np.asarray(book.lengths)[symbols]
        ends = np.cumsum(lens)
        assert np.any((ends - lens) // 64 != (ends - 1) // 64)
        assert pack_stream(symbols, book) == bitwise_pack(symbols, book)


@pytest.mark.parametrize("kind", ["deep", "fixed2", "fixed8", "skewed"])
def test_every_prefix_decodes_or_is_truncated(kind):
    rng = np.random.default_rng(5)
    book = {"deep": fibonacci_book(), "fixed2": CodeBook.fixed(2),
            "fixed8": CodeBook.fixed(8),
            "skewed": skewed_book(rng, 6)}[kind]
    labels = rng.integers(0, book.n_groups, 300)
    packed = pack_stream(labels, book)
    for cut in range(len(packed) + 1):
        try:
            got = unpack_stream(packed[:cut], book, labels.size)
        except TruncationError:
            continue
        assert np.array_equal(got, labels)
    # Bytes after the last symbol are ignored.
    assert np.array_equal(unpack_stream(packed + b"\xff" * 200, book, labels.size), labels)


def test_index_stream_mutations_rejected(tmp_path):
    # Every mutation of the first 117 bytes of the index stream of the 32x48
    # layer of the golden layers' file is refused: the record's CRC covers
    # them. Mutations of every byte of a smaller file are in test_tensor_store.py.
    layers, _ = golden_layers(tmp_path)
    path = tmp_path / "m.bvq"
    write_artifact(layers, path)
    raw = path.read_bytes()
    layer = layers[1]
    assert (layer.m, layer.n) == (32, 48)
    index = record_layouts(layers)[1]["index"]
    assert raw[index] == pack_stream(layer.labels.ravel(), layer.codebook)
    assert index.stop - index.start >= 117
    for pos in range(index.start, index.start + 117):
        for flip in (0x01, 0x80, 0xFF):
            mutated = bytearray(raw)
            mutated[pos] ^= flip
            path.write_bytes(bytes(mutated))
            with pytest.raises(FormatError, match="CRC mismatch"):
                read_artifact(path)


def test_decode_memory_per_symbol():
    # Traced peak per decoded symbol on this stream (numpy 2.4): 119 bytes
    # for a decoder holding per-bit int64 windows and jump maps, as the
    # jump-doubling one did; 8.8 bytes for the byte automaton that ran every
    # state through every block, 6.6 once the states' runs merge, 3.9 once
    # the used slots are compressed out in chunks.
    rng = np.random.default_rng(31)
    labels = rng.choice(6, size=10 ** 6, p=[0.4, 0.3, 0.15, 0.1, 0.04, 0.01])
    book = CodeBook.from_frequencies(np.bincount(labels, minlength=6))
    packed = pack_stream(labels, book)
    tracemalloc.start()
    try:
        out = unpack_stream(packed, book, labels.size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, labels)
    assert peak / labels.size < 24


def test_pack_memory_per_symbol():
    # Traced peak per packed symbol on this stream (numpy 2.4): 12.1 bytes for
    # a packer gathering a (group, bit) byte table and compressing it; 7.7
    # bytes for the k-symbol tuple packer over the whole stream; 1.28 for it
    # run a chunk at a time into one buffer of 5 bits (the longest code) per symbol.
    rng = np.random.default_rng(31)
    labels = rng.choice(6, size=10 ** 6, p=[0.4, 0.3, 0.15, 0.1, 0.04, 0.01])
    book = CodeBook.from_frequencies(np.bincount(labels, minlength=6))
    tracemalloc.start()
    try:
        packed = pack_stream(labels, book)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert packed == bitwise_pack(labels, book)
    assert peak / labels.size < 1.5


def bitwise_decode(data, book):
    """Oracle: every whole symbol of a stream, read bit by bit from the root."""
    codes = {(l, c): s for s, (c, l) in enumerate(zip(book.codes, book.lengths)) if l}
    out, code, length = [], 0, 0
    for bit in np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tolist():
        code, length = 2 * code + bit, length + 1
        if (length, code) in codes:
            out.append(codes[length, code])
            code = length = 0
    return np.array(out, dtype=np.int64)


def assert_decodes(data, book, symbols):
    """unpack_stream gives these symbols, the oracle's, and their counts. Asked
    for one more symbol it agrees with the oracle."""
    count = symbols.size
    assert np.array_equal(jump_doubling_decode(data, book, count), symbols)
    got, counts = unpack_stream(data, book, count, return_counts=True)
    assert got.dtype == np.uint8 and np.array_equal(got, symbols)
    assert np.array_equal(counts, np.bincount(symbols, minlength=book.n_groups))
    try:
        expected = jump_doubling_decode(data, book, count + 1)
    except TruncationError:
        with pytest.raises(TruncationError):
            unpack_stream(data, book, count + 1)
    else:
        assert np.array_equal(unpack_stream(data, book, count + 1), expected)


def dyadic_book(lengths):
    """The Huffman code of frequencies 2**-length: it has exactly these lengths."""
    book = CodeBook.from_frequencies(2.0 ** -np.asarray(lengths, dtype=np.float64))
    assert book.lengths == tuple(lengths)
    return book


def decoder_books():
    return {
        "six": CodeBook.from_frequencies([0.3, 0.25, 0.2, 0.15, 0.08, 0.02]),
        "deep": fibonacci_book(),
        "even": dyadic_book([2, 2, 2, 4, 4, 4, 4]),  # depth parity never merges
    }


@pytest.mark.parametrize("block", [16, 32, 64, 128])
def test_decode_matches_oracle_at_every_length(block, monkeypatch):
    # Every stream length from 0 to two blocks plus one, at each block size
    # _block_size can pick; the streams are cut from one packed stream, so
    # the bits after the last whole symbol start a symbol they do not end.
    monkeypatch.setattr(bit_packer, "_block_size", lambda nbytes: block)
    rng = np.random.default_rng(block)
    for kind, book in decoder_books().items():
        symbols = rng.integers(0, book.n_groups, 16 * block)
        data = pack_stream(symbols, book)
        ends = np.cumsum(np.asarray(book.lengths)[symbols])
        for size in range(2 * block + 2):
            whole = int(np.searchsorted(ends, 8 * size, side="right"))
            assert_decodes(data[:size], book, symbols[:whole])


@pytest.mark.parametrize("sync_at", [0, 1, 6, 7, 8, 14, 15, None])
def test_decode_matches_oracle_where_states_merge_at_a_block_edge(sync_at, monkeypatch):
    # Under the 20-deep comb code of fibonacci_book a one bit moves every
    # state one level deeper (the deepest back to the root), so 0xff bytes
    # keep all 20 live states apart, and a zero byte sends every state to
    # the root. With the zero byte at offset 15 of 16-byte blocks the states
    # agree only at the blocks' last byte; with None they never agree.
    monkeypatch.setattr(bit_packer, "_block_size", lambda nbytes: 16)
    book = fibonacci_book()
    block = np.full(16, 0xFF, dtype=np.uint8)
    if sync_at is not None:
        block[sync_at] = 0
    for blocks in (1, 2, 5):
        for tail in (0, 1, 9):
            data = np.tile(block, blocks).tobytes() + b"\xff" * tail
            assert_decodes(data, book, bitwise_decode(data, book))


def test_decode_never_merging_code_matches_oracle():
    # All code lengths even: a state's depth parity never changes, so the
    # states never agree and every block runs from every state.
    book = decoder_books()["even"]
    rng = np.random.default_rng(12)
    for size in (1, 100, 5000, 70_000):
        symbols = rng.integers(0, book.n_groups, size)
        assert_decodes(pack_stream(symbols, book), book, symbols)


def slots_per_cell(book):
    """Symbol slots of one automaton cell, which the decoder's chunks count."""
    return bit_packer._byte_automaton(book)[2].itemsize


@pytest.mark.parametrize("kind", ["six", "deep"])
def test_decode_matches_oracle_at_chunk_edges(kind, monkeypatch):
    # Chunks of four 16-byte blocks: streams one byte below, at and one above
    # each of the first three chunk edges, cut from one packed stream.
    book = decoder_books()[kind]
    monkeypatch.setattr(bit_packer, "_block_size", lambda nbytes: 16)
    monkeypatch.setattr(bit_packer, "chunk_length", lambda size: 64 * slots_per_cell(book))
    symbols = np.random.default_rng(8).integers(0, book.n_groups, 3000)
    data = pack_stream(symbols, book)
    ends = np.cumsum(np.asarray(book.lengths)[symbols])
    for size in (63, 64, 65, 127, 128, 129, 191, 192, 193):
        whole = int(np.searchsorted(ends, 8 * size, side="right"))
        assert_decodes(data[:size], book, symbols[:whole])


def test_decode_at_chunk_edges_of_a_large_stream():
    # From 128 KB on, six-group streams run 128-byte blocks in chunks of 64K
    # slots: 16K bytes at 4 slots per byte. Cut one below, at and one above
    # the 8th and the 16th chunk edge.
    book = decoder_books()["six"]
    assert slots_per_cell(book) == 4
    rng = np.random.default_rng(15)
    symbols = rng.choice(6, 1_000_000, p=[0.3, 0.25, 0.2, 0.15, 0.08, 0.02]).astype(np.uint8)
    data = pack_stream(symbols, book)
    ends = np.cumsum(np.asarray(book.lengths)[symbols])
    for size in (8 * 16384 - 1, 8 * 16384, 8 * 16384 + 1, 16 * 16384 - 1, 16 * 16384,
                 16 * 16384 + 1):
        whole = int(np.searchsorted(ends, 8 * size, side="right"))
        got, counts = unpack_stream(data[:size], book, whole, return_counts=True)
        assert np.array_equal(got, symbols[:whole])
        assert np.array_equal(counts, np.bincount(symbols[:whole], minlength=6))
        with pytest.raises(TruncationError):
            unpack_stream(data[:size], book, whole + 1)


@pytest.mark.parametrize("width", range(1, 9))
def test_fixed_width_codes_match_oracle(width):
    rng = np.random.default_rng(width)
    book = CodeBook.fixed(width)
    for length in range(20):
        symbols = rng.integers(0, 2 ** width, length)
        data = pack_stream(symbols, book)
        assert_decodes(data, book, symbols)
        # Bits after the last symbol are ignored, whatever they hold.
        assert np.array_equal(unpack_stream(data + b"\xff", book, length), symbols)


@pytest.mark.parametrize("kind", ["six", "deep", "even"])
def test_decoded_counts_ignore_symbols_past_count(kind):
    # Bytes after the last symbol decode to extra symbols under a complete
    # code; the counts cover the first `count` symbols only.
    book = decoder_books()[kind]
    rng = np.random.default_rng(4)
    symbols = rng.integers(0, book.n_groups, 3000)
    for extra in (b"", b"\x00", b"\xff" * 7, rng.integers(0, 256, 500, dtype=np.uint8).tobytes()):
        data = pack_stream(symbols, book) + extra
        for count in (0, 1, 999, 3000):
            got, counts = unpack_stream(data, book, count, return_counts=True)
            assert np.array_equal(got, symbols[:count])
            assert np.array_equal(counts, np.bincount(symbols[:count], minlength=book.n_groups))


@pytest.mark.parametrize("kind", ["deep", "deep_ones", "even112"])
def test_decode_memory_per_input_byte(kind):
    # Traced peak per input byte (numpy 2.4): 25.3, 13.4 and 17.7 bytes on
    # these streams; 27.0, 25.1 and 18.5 when the used slots of the whole
    # stream were compressed at once, and 36.3, 35.0 and 29.6 for the
    # decoder that ran every state through every block. The stream of
    # fibonacci_book's longest code, all one bits, never lets the states agree.
    rng = np.random.default_rng(6)
    if kind == "even112":
        book = dyadic_book([6] * 48 + [8] * 64)
    else:
        book = fibonacci_book()
    if kind == "deep_ones":
        symbols = np.full(100_000, int(np.argmax(book.lengths)))
    else:
        p = 2.0 ** -np.asarray(book.lengths, dtype=np.float64)
        symbols = rng.choice(book.n_groups, 300_000, p=p / p.sum())
    data = pack_stream(symbols, book)
    tracemalloc.start()
    try:
        out = unpack_stream(data, book, symbols.size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, symbols)
    assert peak / len(data) < 32


def test_widest_bvq_code_decodes_within_time_bound():
    # A .bvq holds at most six groups, and (5, 5, 4, 3, 2, 1) is the longest
    # code six groups can get. Its decode took 0.027-0.037 s/MB (numpy 2.4,
    # 2 shared Xeon vCPUs); the bound leaves a 10x margin for a loaded machine.
    book = dyadic_book([5, 5, 4, 3, 2, 1])
    p = 2.0 ** -np.asarray(book.lengths, dtype=np.float64)
    symbols = np.random.default_rng(18).choice(6, 4_400_000, p=p).astype(np.uint8)
    data = pack_stream(symbols, book)
    assert len(data) >= 2 ** 20
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        out = unpack_stream(data, book, symbols.size)
        seconds.append(time.perf_counter() - start)
    assert np.array_equal(out, symbols)
    assert min(seconds) / (len(data) / 2 ** 20) < 0.4
