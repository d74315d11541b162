"""Closed-form 1-bit binarization of the unsalient shells.

Each shell is represented by one nonnegative scalar times the signs of its
members; for signs fixed to sign(w) the squared error is minimized exactly
by the mean absolute value of the members.
"""

import numpy as np

from .partitioner import LayerPartition


def shell_scalars(magnitudes: np.ndarray, labels: np.ndarray, n_uns: int):
    """Yield (shell, scalar) per unsalient shell k, one at a time: the float64 |w|
    labelled k, picked row-major from flat magnitudes, and its mean (0 if empty)."""
    for k in range(n_uns):
        shell = np.compress(labels == k, magnitudes).astype(np.float64, copy=False)
        yield shell, shell.sum() / max(shell.size, 1)


def binarize_unsalient(matrix, part: LayerPartition):
    """Optimal scalar per unsalient shell and the sign of every unsalient element.

    Returns (scalars, signs): scalars from `shell_scalars`, and one bool per
    unsalient element in row-major order; True encodes +1 (the sign of an exact zero).
    """
    labels, n_uns = part.labels.ravel(), part.n_uns
    shells = shell_scalars(np.abs(matrix.data).ravel(), labels, n_uns)
    return np.array([a for _, a in shells]), (matrix.data >= 0.0).ravel()[labels < n_uns]
