"""Slow reference implementations that the library's fast paths are
checked against. They are the library's own earlier code, kept here
unchanged because only the tests use them."""

import numpy as np

from alphaturn.clusters import RESIDUAL_VAR_FLOOR, SweepCurve
from alphaturn.eigen import PSD_TOL
from alphaturn.errors import ValidationError


def residual_correlation_sweep(corr, k_max, loadings=None):
    """Mean/median off-diagonal correlation of the residuals of the
    normalized alphas regressed (through the origin) on the top-K principal
    components, for K = 1..k_max.

    `loadings` overrides the principal components with caller-supplied
    columns. Steps with a residual variance below the floor are skipped.

    For principal components the residual is exact as a running rank-1
    downdate, (I - V V^T) Psi (I - V V^T) = Psi - sum_{j<=K} w_j v_j v_j^T,
    which keeps Psi's symmetry, so the mean and median are taken over the
    upper triangle (the same values as over all off-diagonal entries).
    """
    psi = corr.psi
    n = corr.n
    if k_max < 1 or k_max >= n:
        raise ValidationError(f"need 1 <= k_max < N, got k_max={k_max}, N={n}")
    if not corr.psd:
        raise ValidationError(
            "correlation matrix is not positive definite; deform it first"
        )
    w, v = corr.spectrum
    rank_used = int(np.sum(w > PSD_TOL * max(w[-1], 1.0)))
    order = np.argsort(w)[::-1]

    upper = np.triu_indices(n, 1)
    resid = psi.copy()
    ks, z1s, z2s, skipped = [], [], [], []
    for k in range(1, k_max + 1):
        if loadings is not None:
            lam = np.asarray(loadings, dtype=float)[:, :k]
            y = lam @ np.linalg.solve(lam.T @ lam, lam.T)
            resid = (np.eye(n) - y) @ psi @ (np.eye(n) - y)
        else:
            pc = v[:, order[k - 1]]
            resid -= w[order[k - 1]] * np.outer(pc, pc)
        var = np.diag(resid)
        if np.any(var < RESIDUAL_VAR_FLOOR):
            skipped.append(k)
            continue
        scale = np.sqrt(var)
        vals = resid[upper] / (scale[upper[0]] * scale[upper[1]])
        ks.append(k)
        z1s.append(float(np.mean(vals)))
        z2s.append(float(np.median(vals, overwrite_input=True)))
    return SweepCurve(ks=ks, zeta1=z1s, zeta2=z2s, rank_used=rank_used, skipped=skipped)


def through_origin_fstat(y, x):
    """F-statistic of a no-intercept regression: (ESS/p) / (RSS/(n-p)),
    by least squares on one time step. The tests' reference for
    _cluster_mean_fstats."""
    n, p = x.shape
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    yhat = x @ beta
    ess = float(np.sum(yhat**2))
    rss = float(np.sum((y - yhat) ** 2))
    if rss <= 0:
        return float("inf")
    return (ess / p) / (rss / (n - p))


def nonbinary_eigenvectors(model):
    """Full N x F orthonormal eigenvector matrix of a zero-specific-risk
    model with arbitrary loadings, columns ordered by descending eigenvalue:
    lam v / sqrt(w) for the eigenpairs (w, v) of the Gram matrix lam^T lam
    of the row-normalized loadings lam = Omega L / |Omega L|."""
    omega_t = model.loadings() @ np.linalg.cholesky(model.phi_cov)
    lam = omega_t / np.linalg.norm(omega_t, axis=1)[:, None]
    w, vecs = np.linalg.eigh(lam.T @ lam)
    order = np.argsort(w)[::-1]
    return lam @ vecs[:, order] / np.sqrt(w[order])[None, :]


def secular_eigenvector(sizes, rho, psi):
    """Reduced eigenvector (components chi_C) for a simple secular root,
    normalized to unit length."""
    sizes = np.asarray(sizes, dtype=float)
    comp = np.sqrt(sizes) / (psi - (1.0 - rho) * sizes)
    return comp / np.linalg.norm(comp)


def deflated_eigenvalues(model, corr):
    """Ascending eigenvalues of `corr`, the model's correlation matrix, from
    a G x G problem where its N alphas form G < N groups of repeated rows;
    None where G = N or psi does not repeat them.

    Alphas with byte-identical (xi_i, Omega_i) rows, -0.0 taken as 0.0, are
    the candidate groups. They are kept only where psi itself repeats them:
    every off-diagonal entry between groups g and h (or within g) equals
    M_gh, its entry between the first alpha of g and the last of h. Then
    psi = E M E^T + diag(1 - M_gg) with E the group indicators, so a group
    of c_g alphas holds c_g - 1 eigenvectors that sum to zero over it, each
    with eigenvalue 1 - M_gg, and the other G eigenvalues are those of
    sqrt(c c^T) * M + diag(1 - M_gg), psi on the normalised indicators (the
    deflation of Bunch, Nielsen and Sorensen 1978). These are eigenvalues of
    psi as assembled, not of a factored form of it. The block is solved by
    np.linalg.eigh, as factor_model.deflated_eigenvalues solves its block,
    so the two agree bit for bit wherever their blocks do."""
    rows = np.column_stack([model.xi, model.loadings()]) + 0.0
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, inv, counts = np.unique(keys, return_index=True, return_inverse=True,
                                      return_counts=True)
    if len(first) == corr.n:
        return None
    last = np.argsort(inv, kind="stable")[np.cumsum(counts) - 1]
    m = corr.psi[np.ix_(first, last)]
    repeated = m.take(inv, axis=0).take(inv, axis=1)
    np.fill_diagonal(repeated, 1.0)
    if not np.array_equal(repeated, corr.psi):
        return None
    d = 1.0 - np.diag(m)
    root = np.sqrt(counts)
    block = root[:, None] * m * root[None, :]
    block[np.diag_indices_from(block)] = counts * np.diag(m) + d
    return np.sort(np.concatenate([np.linalg.eigh(block)[0], np.repeat(d, counts - 1)]))


def build_covariance(model):
    """psi of factor_model.build_covariance as first written: an N x N
    diag(xi^2) plus the product Omega Phi Omega^T, then cov / outer(d, d)
    averaged with its transpose."""
    rows = np.column_stack([model.xi, model.loadings()])
    rows = np.ldexp(rows, -np.frexp(np.max(np.abs(rows), axis=1))[1][:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = np.diag(rows[:, 0] ** 2) + rows[:, 1:] @ model.phi_cov @ rows[:, 1:].T
    d = np.sqrt(np.diag(gamma))
    psi = gamma / np.outer(d, d)
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    return psi
