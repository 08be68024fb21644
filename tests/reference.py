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
