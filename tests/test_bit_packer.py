import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binq import DomainError, QuantConfig, TruncationError
from binq.bit_packer import (CodeBook, index_bits, max_partitions, pack_stream,
                             storage_budget, unpack_stream)


def is_prefix_free(book):
    """Oracle: no codeword is a prefix of another."""
    bits = [(format(c, f"0{l}b") if l else "") for c, l in zip(book.codes, book.lengths)]
    coded = [b for b in bits if b]
    for i, a in enumerate(coded):
        for j, b in enumerate(coded):
            if i != j and b.startswith(a):
                return False
    return True


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
        value = index_bits(5, 0.01, p_uns, 3)
        assert value == pytest.approx(6 * p_uns + 0.01 * 3, abs=1e-12)
        assert value == pytest.approx(1.218, abs=1e-3)

    def test_single_partition(self):
        p_uns = (1 - 0.02) / 1
        value = index_bits(1, 0.02, p_uns, 3)
        # eta=1: min(2, 0) = 0; all eta terms clamp to zero
        assert value == pytest.approx(0.02 * 3, abs=1e-12)

    def test_zero_salient_share(self):
        p_uns = 1.0 / 5
        value = index_bits(5, 0.0, p_uns, 3)
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
        book = CodeBook.fixed(4, 2)
        assert book.lengths == (2, 2, 2, 2)
        assert book.codes == (0, 1, 2, 3)

    def test_average_within_one_bit_of_entropy(self, rng):
        for _ in range(10):
            freqs = rng.integers(1, 200, int(rng.integers(2, 8))).astype(float)
            probs = freqs / freqs.sum()
            entropy = -np.sum(probs * np.log2(probs))
            book = CodeBook.from_frequencies(freqs)
            assert entropy <= average_length(book, freqs) <= entropy + 1


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
    # canonical books rebuild identically from their lengths
    rebuilt = CodeBook.from_lengths(book.lengths, solo=book.solo)
    assert rebuilt.codes == book.codes


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
