"""The rules shared by every consumer of a correlation matrix's spectrum,
each decided here once: the noise floor, the tie rule for a degenerate top
eigenspace, and the guard on a top eigenvector found by power iteration.

The spectrum itself is computed and cached on ``CorrelationMatrix``. A top
eigenpair is read from the full eigendecomposition with
``top_eigenvector``, or from the eigenvalues alone with the guarded
``power_top_pair``.
"""

from __future__ import annotations

import math

import numpy as np

# Relative eigenvalue floor: see noise_floor.
PSD_TOL = 1e-10

# Relative gap below which eigenvalues are treated as a degenerate top
# eigenspace.
DEGEN_TOL = 1e-10


def noise_floor(w):
    """Eigenvalues of ascending w at or below this count as zero."""
    return PSD_TOL * max(w[-1], 1.0)


def is_positive_definite(w):
    """The PSD rule: the smallest of ascending eigenvalues w exceeds the noise floor."""
    return bool(w[0] > noise_floor(w))


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


# A top eigenvector found by power iteration is kept only when its residual
# |Psi V1 - psi1 V1| is at most this fraction of the eigengap psi1 - psi2:
# by the Davis-Kahan bound it then lies within about this angle (in
# radians) of the top eigenvector.
TOP_RESIDUAL_TOL = 1e-12


def power_top_pair(psi, w):
    """(psi1, V1) of the symmetric matrix psi from its ascending eigenvalues
    w, with V1 found by power iteration and normalized as top_eigenvector
    normalizes it; None where psi1 is not simple under DEGEN_TOL, the
    iteration would take too many steps, or the guard declines its vector:
    the vector is zero or not finite, or |psi V1 - psi1 V1| exceeds
    TOP_RESIDUAL_TOL times psi1 - psi2.

    The iteration runs on psi - sigma I with sigma = (psi2 + psi_min) / 2,
    which maps every eigenvalue but psi1 into [-h, h], h = (psi2 - psi_min)
    / 2. Each step therefore shrinks the tangent of the angle to V1 by at
    least r = h / (psi1 - sigma). It starts from the uniform vector, and it
    stops once the residual |psi x - psi1 x| passes the guard and stops
    falling, or after the steps that take a tangent of sqrt(N) to rounding
    level (two more for the residual to settle). It is not tried where
    those are more than N/8 steps, or 64 at N < 512. One step costs about
    1/300 of what eigh costs over eigvalsh (0.5 ms against 0.14 s at
    N = 1200, 17 us against 1.4 ms at N = 150, with one BLAS thread), so
    the steps cost at most about half of that difference. Where this
    returns None, the caller has spent the eigvalsh that gave w as well,
    and the eigh it falls back to computes w again.
    """
    n = len(w)
    if n < 2 or top_multiplicity(w) > 1:
        return None
    psi1, psi2, psi_min = w[-1], w[-2], w[0]
    sigma = (psi2 + psi_min) / 2
    r = (psi2 - psi_min) / (2 * psi1 - psi2 - psi_min)
    steps = 1
    if r > 0:
        steps = math.ceil(math.log(np.finfo(float).eps / math.sqrt(n)) / math.log(r))
    if steps > max(n // 8, 64):
        return None
    settled = TOP_RESIDUAL_TOL * (psi1 - psi2)
    x = np.full(n, 1 / math.sqrt(n))
    best, vec = np.inf, x
    for _ in range(steps + 2):
        y = psi @ x
        res = np.linalg.norm(y - psi1 * x)
        if res < best:
            best, vec = res, x
        elif best <= settled:
            break
        y -= sigma * x
        size = np.linalg.norm(y)
        if not size > 0:
            return None
        x = y / size
    if not 0 < np.linalg.norm(vec) < np.inf:
        return None
    v1 = unit_nonnegative_sum(vec)
    if not np.linalg.norm(psi @ v1 - psi1 * v1) <= settled:
        return None
    return psi1, v1
