"""Eigen-solvers shared by every consumer of a correlation matrix: the
positive-definiteness rule, the tie rule for a degenerate top eigenspace,
and a Lanczos solver for the top eigenpair alone.

The full dense spectrum itself is cached on ``CorrelationMatrix``.

``scipy.sparse.linalg`` (``eigsh`` and ``ArpackError``) is imported when
``lanczos_top_pair`` first runs ARPACK, or on the first read of
``eigen.eigsh``, not when this module is imported: the import costs about
0.2 s, which every CLI command would otherwise pay at start-up, and only
commands that take a top pair without a cached spectrum need it.
"""

from __future__ import annotations

import numpy as np

# Relative eigenvalue floor below which a correlation matrix is treated as
# not positive definite.
PSD_TOL = 1e-10

# Relative gap below which eigenvalues are treated as a degenerate top
# eigenspace.
DEGEN_TOL = 1e-10

# Largest Lanczos block. A top eigenspace that still fills the whole block
# at this size goes to dense eigh. On the N=1200 identity (2-core Xeon, one
# OpenBLAS thread) eigsh takes 15, 16 and 17 ms for k = 2, 4 and 8, then 25,
# 55, 108, 264 and 870 ms for k = 16 to 256, against 357 ms for one dense
# eigh: the three blocks tried add about 14% to the dense solve they precede.
LANCZOS_MAX_K = 8


def _load_arpack():
    """Bind eigsh and ArpackError in this module, keeping a name that is
    already bound (so a test can replace eigsh before the first call)."""
    from scipy.sparse.linalg import ArpackError, eigsh

    names = globals()
    names.setdefault("eigsh", eigsh)
    names.setdefault("ArpackError", ArpackError)


def __getattr__(name):
    if name in ("eigsh", "ArpackError"):
        _load_arpack()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def is_positive_definite(w):
    """The PSD rule on ascending eigenvalues w: the smallest must exceed
    PSD_TOL times max(largest, 1)."""
    return bool(w[0] > PSD_TOL * max(w[-1], 1.0))


def top_eigenvector(w, v):
    """Top eigenpair from ascending eigenvalues w and eigenvectors v; within
    a degenerate top eigenspace, the direction obtained by projecting the
    uniform vector (falls back to the last eigenvector when the projection
    vanishes). The vector is normalized with a nonnegative sum."""
    n = v.shape[0]
    psi1 = w[-1]
    degen = w >= psi1 - DEGEN_TOL * max(psi1, 1.0)
    basis = v[:, degen]
    if basis.shape[1] == 1:
        vec = basis[:, 0]
    else:
        coeff = basis.T @ np.ones(n)
        if np.linalg.norm(coeff) > 1e-8:
            vec = basis @ coeff
        else:
            vec = basis[:, -1]
    vec = vec / np.linalg.norm(vec)
    if np.sum(vec) < 0:
        vec = -vec
    return psi1, vec


def lanczos_top_pair(psi):
    """Top eigenpair of a symmetric matrix by implicitly restarted Lanczos
    (ARPACK through scipy.sparse.linalg.eigsh), following the tie rule of
    top_eigenvector. Returns None where the dense solver must be used
    instead: a degenerate top eigenspace that still fills the computed block
    at k = min(LANCZOS_MAX_K, N/4) (so always for N < 8), a vanishing
    projection of the uniform vector onto a degenerate top eigenspace, or an
    ARPACK failure.

    Lanczos starts from the uniform vector. The tie rule projects onto the
    whole degenerate top eigenspace, so k doubles from 2 until the computed
    block reaches an eigenvalue below that eigenspace.
    """
    n = psi.shape[0]
    v0 = np.ones(n)
    k = 2
    while k <= min(LANCZOS_MAX_K, n // 4):
        _load_arpack()
        try:
            w, v = eigsh(psi, k=k, which="LA", v0=v0, tol=0)
        except ArpackError:
            return None
        order = np.argsort(w)
        w, v = w[order], v[:, order]
        degen = w >= w[-1] - DEGEN_TOL * max(w[-1], 1.0)
        if not degen[0]:
            if degen.sum() > 1 and np.linalg.norm(v[:, degen].T @ v0) <= 1e-8:
                return None
            return top_eigenvector(w, v)
        k *= 2
    return None
