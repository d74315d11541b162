"""One property over the whole layer path: quantize, write, read back, reconstruct.

Random small layers of ten kinds, at random group counts, code widths, caps and
search settings, each quantized on one thread and on two, go through
`write_artifact` and `read_artifact`; the round trip, the objective, the counts
and the storage report must agree with each other and with the file.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binq import (DomainError, QuantConfig, Role, WeightMatrix, pipeline, read_artifact,
                  read_tensor, write_artifact, write_tensor)
from binq.bit_packer import SCALE_WIDTH, storage_report
from binq.tensor_store import _layer_record
from conftest import BVQ_HEADER_BYTES, record_layouts


def _one_hot_columns(rng, m, n):
    w = np.zeros((m, n))
    w[rng.integers(0, m, n), np.arange(n)] = 1.0
    return w


def _one_nonzero(rng, m, n):
    w = np.zeros(m * n)
    w[rng.integers(0, m * n)] = rng.standard_normal()
    return w.reshape(m, n)


KINDS = {
    "gaussian": lambda rng, m, n: rng.standard_normal((m, n)),
    "student_t3": lambda rng, m, n: rng.standard_t(3, (m, n)),
    "constant": lambda rng, m, n: np.full((m, n), rng.uniform(-2.0, 2.0)),
    "mostly_zero": lambda rng, m, n: rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.1),
    "biased": lambda rng, m, n: 0.5 + 0.1 * rng.standard_normal((m, n)),
    "scaled_2e4": lambda rng, m, n: 2e4 * rng.standard_normal((m, n)),
    "scaled_1e-30": lambda rng, m, n: 1e-30 * rng.standard_normal((m, n)),
    "one_nonzero": _one_nonzero,
    "small_integers": lambda rng, m, n: rng.integers(-3, 4, (m, n)).astype(float),
    "one_hot_columns": _one_hot_columns,
}


def quantize(matrix, config, threads):
    """(layer, J) as `binq quantize` makes them, its groups fitted on `threads` threads."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "THREADED_WEIGHTS", 0)  # thread even the smallest layer
        return pipeline._quantize(matrix, config, None, score=True, cores=threads)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(KINDS)), m=st.integers(1, 48), n=st.integers(1, 48),
       seed=st.integers(0, 2 ** 32 - 1), n_uns=st.integers(1, 5), n_bits=st.integers(1, 8),
       cap=st.sampled_from([0.01, 0.05, 0.3, 0.9]), search=st.booleans())
def test_layer_path_round_trip(tmp_path_factory, kind, m, n, seed, n_uns, n_bits, cap, search):
    folder = tmp_path_factory.mktemp("layer")
    data = KINDS[kind](np.random.default_rng(seed), m, n).astype(np.float32)
    write_tensor(WeightMatrix("w", Role.LANGUAGE, data), folder / "w.bvw")
    matrix = read_tensor(folder / "w.bvw")
    assert np.array_equal(matrix.data, data)
    config = QuantConfig(n_uns=n_uns, n_bits=n_bits, p_sal_max=cap, optimize_saliency=search)
    try:
        (layer, j), (layer2, j2) = (quantize(matrix, config, threads) for threads in (1, 2))
    except DomainError as exc:  # a scale past binary16's 65504, the one refusal
        assert kind == "scaled_2e4" and "overflows binary16" in str(exc), exc
        return
    record = _layer_record(layer)
    assert _layer_record(layer2) == record and j2 == j  # the same bytes on any thread count

    write_artifact([layer], folder / "m.bvq")
    (back,) = read_artifact(folder / "m.bvq")
    assert _layer_record(back) == record
    assert (folder / "m.bvq").read_bytes()[BVQ_HEADER_BYTES:] == record

    dense = layer.dense()
    assert np.isfinite(dense).all() and np.array_equal(back.dense(), dense)
    w = matrix.data.astype(np.float64)
    norm = float(np.sum(np.square(w)))
    if norm == 0.0:
        assert j == 0.0 and not dense.any()
    else:
        assert math.isclose(j, float(np.sum(np.square(w - dense))) / norm, rel_tol=1e-6)

    assert np.array_equal(np.bincount(layer.labels.ravel(), minlength=n_uns + 1), layer.counts)
    (layout,) = record_layouts([layer], start=0)
    assert layout["crc"].stop == len(record)  # the record's closed-form size
    assert record[layout["counts"]] == layer.counts.astype("<u8").tobytes()
    assert record[layout["signs"]] == layer.sign_bits.tobytes()
    streams = layout["crc"].start - layout["index"].start  # index, codes and signs
    assert storage_report(back).realized_total_bits == SCALE_WIDTH * (m + n_uns) + 8 * streams
