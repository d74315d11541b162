"""Closed-form 1-bit binarization of the unsalient shells.

Each shell is represented by one nonnegative scalar times the signs of its
members; for signs fixed to sign(w) the squared error is minimized exactly
by the mean absolute value of the members.
"""

import numpy as np

from .partitioner import LayerPartition


def binarize_unsalient(matrix, part: LayerPartition):
    """Optimal scalar per unsalient shell and the sign of every unsalient element.

    Returns (scalars, signs). scalars[k] is the mean |w| over the members of
    shell k (label k) in row-major order, or 0 for an empty shell. signs
    holds one bool per unsalient element in row-major order; True encodes +1
    (the sign of an exact zero weight).
    """
    labels = part.labels.ravel()
    magnitudes = np.abs(matrix.data).ravel()
    scalars = np.zeros(part.n_uns, dtype=np.float64)
    for k in range(part.n_uns):
        # np.compress picks the same elements as a boolean index, faster.
        members = np.compress(labels == k, magnitudes).astype(np.float64)
        if members.size:
            scalars[k] = np.mean(members)
    return scalars, (matrix.data >= 0.0).ravel()[labels < part.n_uns]
