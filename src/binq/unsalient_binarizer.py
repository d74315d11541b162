"""Closed-form 1-bit binarization of the unsalient shells.

Each shell is represented by one nonnegative scalar times the signs of its
members; for signs fixed to sign(w) the squared error is minimized exactly
by the mean absolute value of the members.
"""

import numpy as np


def shell_scalars(magnitudes: np.ndarray, labels: np.ndarray, n_uns: int):
    """Yield (shell, scalar) per unsalient shell k, one at a time: the float64 |w|
    labelled k, picked row-major from flat magnitudes, and its mean (0 if empty).
    Each shell is released before the next is picked."""
    for k in range(n_uns):
        shell = np.compress(labels == k, magnitudes).astype(np.float64, copy=False)
        yield shell, shell.sum() / max(shell.size, 1)
        del shell
