"""The rules shared by every consumer of a correlation matrix's spectrum,
each decided here once: the noise floor, the tie rule for a degenerate top
eigenspace, and the guarded solver for the top of a spectrum.

The full spectrum is computed and cached on ``CorrelationMatrix``; a top
eigenpair is read from it with ``top_eigenvector``. A consumer that needs
only the top k pairs takes them from ``top_pairs``, a block subspace
iteration that returns None wherever it cannot prove its answer, and
reads the spectrum only then. ``certify_positive`` is the one Cholesky
test that both ``top_pairs`` and ``CorrelationMatrix.psd`` rest on.
"""

from __future__ import annotations

import numpy as np

# Relative eigenvalue floor: see noise_floor.
PSD_TOL = 1e-10

# Relative gap below which eigenvalues are treated as a degenerate top
# eigenspace.
DEGEN_TOL = 1e-10

EPS = np.finfo(float).eps


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


def certify_positive(m):
    """True where one Cholesky of the symmetric n x n matrix m, less
    2 n (n + 1) eps max(m_ii) on its diagonal, succeeds: that is twice the
    bound on a Cholesky's backward error (Higham 2002, Thm 10.3, with
    (|R^T| |R|)_ij <= sqrt(m_ii m_jj)), so m is then positive definite
    whatever the rounding. False proves nothing. m is overwritten."""
    n = len(m)
    m.flat[::n + 1] -= 2 * n * (n + 1) * EPS * max(np.max(np.diagonal(m)), 0.0)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


# A top eigenpair found by iteration is kept only when its residual
# |Psi v - theta v| is at most this fraction of the gap between theta and
# the rest of the spectrum: by the Davis-Kahan bound v then lies within
# about this angle (in radians) of the eigenvector.
TOP_RESIDUAL_TOL = 1e-12

# top_pairs widens its block while its Ritz values predict more steps than
# this.
WIDEN_STEPS = 30


def _start_columns(n, lo, hi):
    """Columns lo to hi - 1 of top_pairs' start block: the uniform vector
    first, then the splitmix64 hash of each entry's index (column-major),
    mapped to [-1, 1). A column does not depend on the block's width."""
    z = np.arange(lo * n, hi * n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    q = (z >> np.uint64(11)).astype(float).reshape(hi - lo, n).T * 2.0**-52 - 1.0
    if lo == 0:
        q[:, 0] = 1.0
    return q


def _gaps(top):
    """Distance from each of the first len(top) - 1 of the descending
    values `top` to its nearest neighbour in `top`."""
    d = top[:-1] - top[1:]
    return np.minimum(d, np.concatenate([[np.inf], d[:-1]]))


def top_pairs(psi, k, w=None):
    """The top k eigenvalues of the symmetric matrix psi, descending, and
    their orthonormal eigenvectors as the columns of an N x k array, by
    block subspace iteration with Rayleigh-Ritz (Rutishauser 1970; Saad
    2011, ch. 5); w, where given, holds all of psi's eigenvalues,
    ascending, and k < N. Returns None, and the caller then reads a full
    eigendecomposition, where
    - w is not given and the block, max(8, 4k) columns, is wider than
      N / 4 (where w is given, the block is cut to N columns, and a block
      of N columns is exact after one step);
    - two of the top k + 1 eigenvalues tie under DEGEN_TOL;
    - the iteration would take more than max(N, 32 b) columns of products
      in all (b the start width; N columns cost about one eigh at
      N = 1200): it declines as soon as its Ritz values predict that
      many, or on reaching them, so a top that is tied or not separated
      costs a few steps;
    - a pair fails its guard: each residual |psi v - theta v| must be at
      most TOP_RESIDUAL_TOL times the gap from theta to the rest of the
      spectrum (Davis-Kahan).

    The gap below the k-th pair must be proven, since Ritz values lie below
    the eigenvalues they approximate. Where w is given it is read from w,
    and each Ritz value must match w's to DEGEN_TOL. Otherwise one
    Cholesky certifies it: certify_positive of u I - psi + c X X^T, with X
    the k Ritz vectors, c = 2 (theta_1 - u) and u just above the (k+1)-th
    Ritz value, proves psi_{k+1} < u by interlacing, however X was found.
    That catches an eigenvalue the start block never saw.

    The block starts deterministically (_start_columns), so the result is
    reproducible. Each step costs one N x N x b product, psi Q, which also
    yields the next block, (psi - sigma I) X, with sigma the smallest
    eigenvalue psi_N where w is given and 0 otherwise. A residual then
    shrinks by about (psi_{b+1} - sigma) / (theta_j - sigma) a step, with
    |theta_b| standing in for psi_{b+1} where w is not given. The
    iteration stops once every guard passes and the residuals no longer
    halve, or once it stalls: after three steps at one width, the worst
    residual falls by less than a tenth a step. From the third step at one
    width on, that rate predicts the steps left, and b times as many
    columns. Where it predicts more than WIDEN_STEPS steps, or columns that
    overrun the budget, the block doubles, up to N / 4 columns, while three
    steps at the doubled width fit in the budget and the last doubling cut
    the predicted columns (a flat spectrum gains little from a wider
    block). Else, where the predicted columns overrun the budget, it
    declines.
    """
    n = len(psi)
    b = max(8, 4 * k)
    if w is None and 4 * b > n:
        return None
    b = min(b, n)
    if w is not None:
        ref = w[:-k - 2:-1]
        scale = max(ref[0], 1.0)
        if np.any(ref[:-1] - ref[1:] <= DEGEN_TOL * scale):
            return None
    budget = max(n, 32 * b)
    sigma = 0.0 if w is None else w[0]
    q = np.linalg.qr(_start_columns(n, 0, b))[0]
    used, at_width, last, widened_at = 0, 0, np.inf, None
    while True:
        z = psi @ q
        used += b
        at_width += 1
        h = q.T @ z
        theta, s = np.linalg.eigh((h + h.T) / 2)
        theta, s = theta[::-1], s[:, ::-1]
        x, ax = q @ s, z @ s
        res = np.linalg.norm(ax - x * theta, axis=0)
        if w is None:
            scale = max(abs(theta[0]), 1.0)
            ref = theta[:k + 1].copy()
            ref[k] += res[k]
        gap = _gaps(ref)
        worst = np.max(res[:k])
        passed = np.all(res[:k] <= TOP_RESIDUAL_TOL * gap)
        if b == n or (worst >= last / 2 and passed) or (at_width > 3 and worst >= 0.9 * last):
            break
        last = worst
        if used >= budget:
            return None
        nxt = ax - sigma * x
        if at_width >= 3:
            far = np.min(np.abs(theta)) if w is None else w[-b - 1] - sigma
            # without w, the gaps between Ritz values stand in for the gaps,
            # which an unconverged residual can make negative
            near = gap if w is not None else _gaps(theta[:k + 1])
            with np.errstate(divide="ignore", invalid="ignore"):
                rate = far / np.abs(theta[:k] - sigma)
                steps = np.log(TOP_RESIDUAL_TOL * near / res[:k]) / np.log(rate)
                steps = np.max(np.where(rate < 1, steps, np.inf))
            cols = b * steps
            over = used + cols > budget
            if ((over or steps > WIDEN_STEPS) and 8 * b <= n and used + 6 * b <= budget
                    and (widened_at is None or cols < widened_at)):
                nxt = np.hstack([nxt, _start_columns(n, b, 2 * b)])
                b, at_width, widened_at = 2 * b, 0, cols
            elif over:
                return None
        q = np.linalg.qr(nxt)[0]
    if not passed or np.any(theta[:k] - theta[1:k + 1] <= DEGEN_TOL * scale):
        return None
    if w is not None:
        if np.any(np.abs(theta[:k] - ref[:k]) > DEGEN_TOL * scale):
            return None
        return theta[:k], x[:, :k]
    # the certificate: u I - psi + c X X^T is positive definite only where
    # psi_{k+1} < u; u clears the (k+1)-th Ritz value by its residual and by
    # twice the margin certify_positive takes off the diagonal
    xk = x[:, :k]
    u = theta[k] + res[k]
    c = 2 * (theta[0] - u)
    m = (c * xk) @ xk.T
    m -= psi
    u += 4 * n * (n + 1) * EPS * max(np.max(np.diagonal(m)) + u, 0.0)
    m.flat[::n + 1] += u
    if not certify_positive(m):
        return None
    ref[k] = u
    if not np.all(res[:k] <= TOP_RESIDUAL_TOL * _gaps(ref)):
        return None
    return theta[:k], xk
