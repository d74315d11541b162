"""Closed-form 1-bit binarization of the unsalient shells.

Each shell is represented by one nonnegative scalar times the signs of its
members; for signs fixed to sign(w) the squared error is minimized exactly
by the mean absolute value of the members.
"""

import numpy as np


def shell_scalar(shell: np.ndarray):
    """The optimal scalar of a shell of float64 |w|: their mean, 0 if empty."""
    return shell.sum() / max(shell.size, 1)


def shell_residual(shell: np.ndarray, stored) -> float:
    """Squared residual of a shell of float64 |w| under its stored scalar."""
    diff = shell - float(stored)
    return float(np.sum(np.square(diff, out=diff)))
