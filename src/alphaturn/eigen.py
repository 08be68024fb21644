"""The rules shared by every consumer of a correlation matrix's spectrum:
positive definiteness, and the tie rule for a degenerate top eigenspace.

The dense spectrum itself is computed and cached on ``CorrelationMatrix``;
every top eigenpair is read from it with ``top_eigenvector``.
"""

from __future__ import annotations

import numpy as np

# Relative eigenvalue floor below which a correlation matrix is treated as
# not positive definite.
PSD_TOL = 1e-10

# Relative gap below which eigenvalues are treated as a degenerate top
# eigenspace.
DEGEN_TOL = 1e-10


def is_positive_definite(w):
    """The PSD rule on ascending eigenvalues w: the smallest must exceed
    PSD_TOL times max(largest, 1)."""
    return bool(w[0] > PSD_TOL * max(w[-1], 1.0))


def top_multiplicity(w):
    """Dimension of the top eigenspace of ascending eigenvalues w: the
    number within DEGEN_TOL times max(largest, 1) of the largest."""
    return int(np.count_nonzero(w >= w[-1] - DEGEN_TOL * max(w[-1], 1.0)))


def unit_nonnegative_sum(vec):
    """vec scaled to unit length, with its sign chosen so that its sum is
    nonnegative."""
    vec = vec / np.linalg.norm(vec)
    return -vec if np.sum(vec) < 0 else vec


def top_eigenvector(w, v):
    """Top eigenpair from ascending eigenvalues w and eigenvectors v; within
    a degenerate top eigenspace, the direction obtained by projecting the
    uniform vector (falls back to the last eigenvector when the projection
    vanishes). The vector is normalized with a nonnegative sum."""
    n = v.shape[0]
    basis = v[:, len(w) - top_multiplicity(w):]
    if basis.shape[1] == 1:
        vec = basis[:, 0]
    else:
        coeff = basis.T @ np.ones(n)
        if np.linalg.norm(coeff) > 1e-8:
            vec = basis @ coeff
        else:
            vec = basis[:, -1]
    return w[-1], unit_nonnegative_sum(vec)
