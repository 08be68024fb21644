"""Independent dense-numpy reference values for every command's outputs.

Nothing here imports alphaturn: each function recomputes from the
definitions what the CLI should print, so a wrong fast path in the program
shows up as a mismatch.
"""

from __future__ import annotations

import numpy as np

PSD_TOL = 1e-10  # CLI rule for "not positive definite"
NOISE_FLOOR = 1e-10  # eigenvalue floor of the documented deformation
VAR_FLOOR = 1e-10  # sweep steps with a smaller residual variance are skipped


class Mismatch(Exception):
    pass


def close(name, got, want, rtol, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: shape {got.shape} != expected {want.shape}")
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        err = np.max(np.abs(got - want))
        raise Mismatch(f"{name}: max abs error {err:.3g} (rtol {rtol}, atol {atol})")


def regress_out(values, factors):
    """Per-column OLS residuals on [1, factors] over each column's observed
    rows, solved through the normal equations; NaN cells stay NaN."""
    obs = ~np.isnan(values)
    y = np.where(obs, values, 0.0)
    design = np.column_stack([np.ones(len(factors)), factors])
    gram = np.einsum("tk,ta,tb->kab", obs.astype(float), design, design)
    rhs = (design.T @ y).T
    beta = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    resid = y - design @ beta.T
    return np.where(obs, resid, np.nan)


def pairwise_correlation(values):
    """Pearson correlation of every column pair over the rows where both
    are observed: (n Sxy - Sx Sy) / sqrt((n Sxx - Sx^2)(n Syy - Sy^2))."""
    obs = (~np.isnan(values)).astype(float)
    x = np.where(obs > 0, values, 0.0)
    n = obs.T @ obs
    sx = x.T @ obs  # [i, j]: sum of x_i over rows where j is observed
    sxx = (x * x).T @ obs
    sxy = x.T @ x
    var = n * sxx - sx * sx
    psi = (n * sxy - sx * sx.T) / np.sqrt(var * var.T)
    psi = np.clip((psi + psi.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(psi, 1.0)
    return psi


def needs_deform(psi):
    w = np.linalg.eigvalsh(psi)
    return bool(w[0] <= PSD_TOL * max(w[-1], 1.0))


def deform(psi):
    """Raise every eigenvalue at or below NOISE_FLOOR * max to the smallest
    eigenvalue above it, then rescale to unit diagonal."""
    w, v = np.linalg.eigh(psi)
    keep = w > NOISE_FLOOR * w[-1]
    recon = (v * np.where(keep, w, w[keep].min())) @ v.T
    d = np.sqrt(np.diag(recon))
    out = recon / np.outer(d, d)
    out = np.clip((out + out.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(out, 1.0)
    return out


def analyze(psi, deform_flag):
    """The matrix ``analyze`` decomposes (deformed when needed) and its top
    eigenpair, before any sign flip: flipping by D maps the top
    eigenvector u1 to D u1 and keeps psi1. Requires a simple top eigenvalue."""
    deformed = deform_flag and needs_deform(psi)
    if deformed:
        psi = deform(psi)
    w, v = np.linalg.eigh(psi)
    if w[-1] - w[-2] <= 1e-6 * w[-1]:
        raise Mismatch("oracle correlation matrix has a degenerate top eigenvalue")
    return {"psi": psi, "psi1": float(w[-1]), "u1": v[:, -1], "n": psi.shape[0],
            "deformed": deformed}


def sweep(psi, k_max):
    """zeta1 (mean) and zeta2 (median) of the off-diagonal residual
    correlation after removing the top-K principal components; for PCs
    (I - V V^T) Psi (I - V V^T) = Psi - V W V^T exactly."""
    w, v = np.linalg.eigh(psi)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    n = psi.shape[0]
    off = ~np.eye(n, dtype=bool)
    resid = psi.copy()
    ks, z1, z2 = [], [], []
    for k in range(1, k_max + 1):
        resid -= w[k - 1] * np.outer(v[:, k - 1], v[:, k - 1])
        var = np.diag(resid)
        if np.any(var < VAR_FLOOR):
            continue
        scale = np.sqrt(var)
        vals = (resid / np.outer(scale, scale))[off]
        ks.append(k)
        z1.append(float(np.mean(vals)))
        z2.append(float(np.median(vals)))
    return {"K": ks, "zeta1": z1, "zeta2": z2}


def ftest(values, assignment, n_clusters):
    """Per-time F-statistics of the through-origin regression on binary
    loadings, which fits cluster means: ESS = sum_a S_a^2 / n_a and
    RSS = sum y^2 - ESS. Times with an empty cluster or no more observed
    alphas than clusters are skipped. Returns (kept time indices, F)."""
    obs = ~np.isnan(values)
    y = np.where(obs, values, 0.0)
    member = np.zeros((len(assignment), n_clusters))
    member[np.arange(len(assignment)), assignment - 1] = 1.0
    sums = y @ member
    counts = obs.astype(float) @ member
    n_obs = obs.sum(axis=1)
    keep = (n_obs > n_clusters) & np.all(counts > 0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ess = np.sum(sums**2 / counts, axis=1)
    rss = np.sum(y * y, axis=1) - ess
    f = (ess / n_clusters) / (rss / (n_obs - n_clusters))
    return np.flatnonzero(keep), f[keep]


def winsorized_median(series, quantile):
    """Median after clipping at the quantile and 1 - quantile quantiles."""
    lo, hi = np.quantile(series, [quantile, 1.0 - quantile])
    return float(np.median(np.clip(series, lo, hi)))


def model_covariance(doc):
    """Omega, Phi and xi of a model document, binary or dense."""
    phi = np.asarray(doc["phi"], dtype=float)
    if doc["mode"] == "binary":
        sizes = doc["sizes"]
        omega = np.zeros((sum(sizes), len(sizes)))
        omega[np.arange(sum(sizes)), np.repeat(np.arange(len(sizes)), sizes)] = 1.0
    else:
        omega = np.asarray(doc["omega"], dtype=float)
    return omega, phi, np.asarray(doc["xi"], dtype=float)


def model_eigen(doc):
    """Dense eigenvalues (descending) and rho* = psi1 |sum V1| / N^(3/2) of
    the model's correlation matrix; requires a simple top eigenvalue."""
    omega, phi, xi = model_covariance(doc)
    gamma = np.diag(xi**2) + omega @ phi @ omega.T
    sig = np.sqrt(np.diag(gamma))
    psi = gamma / np.outer(sig, sig)
    w, v = np.linalg.eigh((psi + psi.T) / 2.0)
    if w[-1] - w[-2] <= 1e-8 * w[-1]:
        raise Mismatch("oracle model has a degenerate top eigenvalue")
    n = len(w)
    return {"values": w[::-1], "rho_star": float(w[-1] * abs(v[:, -1].sum()) / n**1.5)}


def rho_curve(sizes, grid):
    """Top eigenvalue of the uniform-correlation reduced matrix
    (1 - rho) diag(N_a) + rho q q^T with q = sqrt(N_a), per rho."""
    sizes = np.asarray(sizes, dtype=float)
    q = np.sqrt(sizes)
    return [
        float(np.linalg.eigvalsh((1.0 - r) * np.diag(sizes) + r * np.outer(q, q))[-1])
        for r in grid
    ]
