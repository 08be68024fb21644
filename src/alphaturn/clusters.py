"""Cluster-count estimation: largest-eigenvalue lower bound, residual
correlation sweep for the upper bound, and the new-cluster F-test."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .panel import format_csv, read_csv

# Residual variance below which a sweep step is skipped.
RESIDUAL_VAR_FLOOR = 1e-10


@dataclass
class SweepCurve:
    """Mean and median off-diagonal residual correlation after removing the
    top-K principal components, per K."""

    ks: list
    zeta1: list
    zeta2: list
    rank_used: int
    skipped: list = field(default_factory=list)

    def to_csv(self):
        values = np.column_stack([self.zeta1, self.zeta2])
        return format_csv(["K", "zeta1", "zeta2"], values, self.ks)


@dataclass
class ClusterCountEstimate:
    """Lower bound N / psi_star on the cluster count."""

    lower_bound: float


@dataclass
class FTestReport:
    """Per-time F-statistics for the F- and (F+1)-cluster regressions."""

    times: list
    f_old: np.ndarray
    f_new: np.ndarray
    median_old: float
    median_new: float
    verdict: bool
    skipped_times: list = field(default_factory=list)

    def to_csv(self):
        values = np.column_stack([self.f_old, self.f_new])
        return format_csv(["time", "f_old", "f_new"], values, self.times)

    def to_json(self):
        return json.dumps(
            {
                "median_f_old": self.median_old,
                "median_f_new": self.median_new,
                "verdict": self.verdict,
                "n_times": len(self.times),
                "skipped_times": list(self.skipped_times),
            }
        )


def lower_bound_from_psi(n, psi_star):
    """The bound F >~ N / psi_star."""
    return ClusterCountEstimate(lower_bound=n / psi_star)


def lower_bound_F(corr):
    """Lower-bound the cluster count by N over the largest eigenvalue."""
    return lower_bound_from_psi(corr.n, corr.top_pair()[0])


def residual_correlation_sweep(corr, k_max):
    """Mean/median off-diagonal correlation of the residuals of the
    normalized alphas regressed (through the origin) on the top-K principal
    components, for K = 1..k_max, which corr.top_pairs(k_max) gives. Steps
    with a residual variance below the floor are skipped.

    The residual is exact as a running rank-1 downdate,
    (I - V V^T) Psi (I - V V^T) = Psi - sum_{j<=K} w_j v_j v_j^T, which keeps
    Psi's symmetry. So only the upper triangle, packed, and the diagonal are
    downdated, and the mean and median are taken over the upper triangle
    (the same values as over all off-diagonal entries). k_max is checked by
    check_k_max, and must be less than N.
    """
    psi = corr.psi
    n = corr.n
    check_k_max(k_max)
    if k_max >= n:
        raise ValidationError(f"need 1 <= k_max < N, got k_max={k_max}, N={n}")
    if not corr.psd:
        raise ValidationError(
            "correlation matrix is not positive definite; deform it first"
        )
    w, v = corr.top_pairs(k_max)

    i0, i1 = np.triu_indices(n, 1)
    resid = psi[i0, i1]
    var = np.diag(psi).copy()
    ks, z1s, z2s, skipped = [], [], [], []
    for k in range(1, k_max + 1):
        pc = v[:, k - 1]
        resid -= w[k - 1] * (pc[i0] * pc[i1])
        var -= w[k - 1] * pc**2
        if np.any(var < RESIDUAL_VAR_FLOOR):
            skipped.append(k)
            continue
        scale = np.sqrt(var)
        vals = resid / (scale[i0] * scale[i1])
        ks.append(k)
        z1s.append(float(np.mean(vals)))
        z2s.append(float(_median(vals)))
    # positive definite: every eigenvalue clears the noise floor
    return SweepCurve(ks=ks, zeta1=z1s, zeta2=z2s, rank_used=n, skipped=skipped)


def check_k_max(k_max):
    """Raise ValidationError unless `k_max` is at least 1, as
    residual_correlation_sweep requires."""
    if k_max < 1:
        raise ValidationError(f"k_max must be at least 1, got {k_max}")


def _median(vals):
    """np.median of the NaN-free 1-D array `vals`, bit for bit, which it
    partitions in place. One partition at the upper middle rank serves: the
    lower middle value is the largest below it. np.median partitions at
    both middle ranks of an even-length array, which took five times as
    long on 719,400 values."""
    k = len(vals) // 2
    vals.partition(k)
    return vals[k] if len(vals) % 2 else (vals[:k].max() + vals[k]) / 2


def check_knee_args(rel_drop, window):
    """Raise ValidationError unless `window` is at least 1 and `rel_drop` is
    finite and greater than 0, as knee_estimate requires."""
    if window < 1:
        raise ValidationError(f"window must be at least 1, got {window}")
    if not 0 < rel_drop < math.inf:
        raise ValidationError(f"rel_drop must be finite and greater than 0, got {rel_drop}")


def knee_estimate(curve, rel_drop=0.05, window=3):
    """Smallest K whose |zeta1| stops changing by more than rel_drop
    (relatively) over the next `window` steps. Returns (K, flat) where flat
    is False when the curve never levels off (K is then the last value).
    The arguments are checked by check_knee_args."""
    check_knee_args(rel_drop, window)
    z = np.abs(np.asarray(curve.zeta1))
    ks = curve.ks
    if len(ks) < window + 1:
        raise ValidationError(f"curve needs at least {window + 1} points")
    for idx in range(len(ks) - window):
        ref = z[idx]
        change = abs(ref - z[idx + window]) / ref if ref > 0 else 0.0
        if change < rel_drop:
            return ks[idx], True
    return ks[-1], False


def load_loadings(path, labels):
    """Binary loadings from a CSV with header alpha,cluster and 1-based
    cluster ids, one row per alpha, in the order of `labels`; an alpha
    listed twice is rejected. An id above the file's number of alphas
    leaves a cluster empty, and is rejected before the loadings, sized by
    the largest id, are built."""
    from .factor_model import binary_loadings

    rows = read_csv(path, "loadings")
    if not rows or rows[0] != ["alpha", "cluster"]:
        raise ValidationError(f"{path}: header must be 'alpha,cluster'")
    n_alphas = len(rows) - 1
    mapping, first_row = {}, {}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValidationError(f"{path}: row {r} must have 2 fields")
        if row[0] in first_row:
            raise ValidationError(f"{path}: row {r}: alpha {row[0]!r} is already listed "
                                  f"in row {first_row[row[0]]}")
        first_row[row[0]] = r
        try:
            cluster = int(row[1])
        except ValueError:
            cluster = 0
        if cluster < 1:
            raise ValidationError(f"{path}: row {r}: bad cluster id {row[1]!r}")
        if cluster > n_alphas:
            raise ValidationError(f"{path}: row {r}: cluster id {cluster} exceeds "
                                  f"the number of alphas, {n_alphas}")
        mapping[row[0]] = cluster
    missing = [lab for lab in labels if lab not in mapping]
    if missing:
        raise ValidationError(f"{path}: no cluster for alpha {missing[0]!r}")
    assignment = np.array([mapping[lab] for lab in labels])
    return binary_loadings(assignment, int(assignment.max()))


def cluster_ids(omega, name):
    """1-based cluster id of each row of binary loadings `omega`: 0s, one 1
    per row and a 1 in every column; else ValidationError naming `name`."""
    if not np.isin(omega, (0.0, 1.0)).all() or not np.all(omega.sum(axis=1) == 1.0):
        raise ValidationError(f"{name}: rows must assign each alpha to exactly one cluster")
    empty = np.where(omega.sum(axis=0) == 0)[0]
    if empty.size:
        raise ValidationError(f"{name}: cluster column {empty[0] + 1} is empty")
    return np.argmax(omega, axis=1) + 1


def winsorize(series, quantile):
    """Clip a series at its `quantile` and 1 - `quantile` quantiles."""
    s = np.asarray(series, dtype=float)
    finite = s[np.isfinite(s)]
    if finite.size == 0:
        return s
    lo, hi = np.quantile(finite, [quantile, 1.0 - quantile])
    return np.clip(s, lo, hi)


def _cluster_mean_fstats(values, omega, ids):
    """Through-origin F-statistics, (ESS/p) / (RSS/(n-p)), of every row of
    `values` (times x alphas, NaN where missing) on binary loadings `omega`
    with cluster_ids `ids`, over each row's observed alphas. On binary
    loadings the fit is each cluster's mean over its observed members, so
    three matrix products serve every row. Returns (usable, F): a row is
    usable when it observes more alphas than there are clusters and at
    least one member of every cluster; F is NaN at the other rows and inf
    where RSS <= 0."""
    mask = ~np.isnan(values)
    p = omega.shape[1]
    nobs = mask.sum(axis=1)
    cnt = mask.astype(float) @ omega
    usable = (nobs > p) & np.all(cnt > 0, axis=1)
    mask, cnt, nobs = mask[usable], cnt[usable], nobs[usable]
    y0 = np.where(mask, values[usable], 0.0)
    yhat = np.where(mask, (y0 @ omega / cnt)[:, ids - 1], 0.0)
    ess = np.sum(yhat**2, axis=1)
    # from the residuals, not as sum(y^2) - ESS, which cancels
    rss = np.sum((y0 - yhat) ** 2, axis=1)
    fit = rss > 0
    f_usable = np.full(len(rss), np.inf)
    f_usable[fit] = (ess[fit] / p) / (rss[fit] / (nobs[fit] - p))
    f = np.full(len(values), np.nan)
    f[usable] = f_usable
    return usable, f


def check_winsor(winsor):
    """Raise ValidationError unless the winsorizing quantile lies in
    [0, 0.5], as new_cluster_ftest requires."""
    if not 0 <= winsor <= 0.5:
        raise ValidationError(f"winsor must lie in [0, 0.5], got {winsor}")


def new_cluster_ftest(panel, omega_old, panel_new, omega_new, winsor=0.05):
    """Compare per-time cross-sectional F-statistics of the F-cluster model
    on the old alphas against the (F+1)-cluster model on old plus new
    alphas. Verdict: the new cluster is supported when the winsorized
    median F-statistic improves. A time step is skipped when either panel
    leaves a cluster unobserved there or observes no more alphas than it has
    clusters; a ValidationError is raised when every time step is skipped.
    `winsor` is checked by check_winsor."""
    check_winsor(winsor)
    omega_old, omega_new = np.asarray(omega_old, dtype=float), np.asarray(omega_new, dtype=float)
    ids_old, ids_new = cluster_ids(omega_old, "omega_old"), cluster_ids(omega_new, "omega_new")
    if list(panel.times) != list(panel_new.times):
        raise ValidationError("panels must share identical time labels")
    if omega_old.shape[0] != panel.n_alphas:
        raise ValidationError("omega_old rows must match the old panel width")
    if omega_new.shape[0] != panel_new.n_alphas:
        raise ValidationError("omega_new rows must match the new panel width")

    usable_old, f_old = _cluster_mean_fstats(panel.values, omega_old, ids_old)
    usable_new, f_new = _cluster_mean_fstats(panel_new.values, omega_new, ids_new)
    keep = usable_old & usable_new
    if not keep.any():
        raise ValidationError(
            f"all {len(keep)} time steps were skipped: none observes every "
            "cluster and more alphas than clusters in both panels"
        )
    times = [t for t, k in zip(panel.times, keep) if k]
    skipped = [t for t, k in zip(panel.times, keep) if not k]
    f_old = f_old[keep]
    f_new = f_new[keep]
    w_old = winsorize(f_old, winsor)
    w_new = winsorize(f_new, winsor)
    med_old = float(np.median(w_old))
    med_new = float(np.median(w_new))
    return FTestReport(
        times=times,
        f_old=f_old,
        f_new=f_new,
        median_old=med_old,
        median_new=med_new,
        verdict=bool(med_new > med_old),
        skipped_times=skipped,
    )
