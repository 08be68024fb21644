"""Seeded generation of cluster specs, factor correlation matrices and
alpha panels realizing Gamma = diag(xi^2) + Omega Phi Omega^T.

All randomness flows through numpy's PCG64 generator; identical seeds give
byte-identical outputs across runs and platforms. Parallel use should
derive sub-streams as PCG64((seed, stream_index)) rather than sharing one
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .factor_model import ClusterSpec, optimal_allocation
from .panel import AlphaPanel, unit_diagonal


@dataclass
class SynthConfig:
    seed: int
    n_alphas: int
    n_clusters: int
    n_obs: int = 1000
    phi_range: tuple = (0.5, 2.0)
    xi_range: tuple = (0.0, 1.0)
    factor_rho: object = 0.0  # float in [0, 1) or "random"
    size_scheme: str = "equal"

    def __post_init__(self):
        if self.seed < 0:  # PCG64 takes a nonnegative integer of any size
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed}")
        if not 1 <= self.n_clusters <= self.n_alphas:
            raise ValidationError(f"n_clusters must lie in 1..n_alphas, got n_clusters="
                                  f"{self.n_clusters}, n_alphas={self.n_alphas}")
        # chained comparisons, so that NaN fails them too
        if not 0 < self.phi_range[0] <= self.phi_range[1] < math.inf:
            raise ValidationError(f"phi_range must be finite, positive and ordered, "
                                  f"got {list(self.phi_range)}")
        if not 0 <= self.xi_range[0] <= self.xi_range[1] < math.inf:
            raise ValidationError(f"xi_range must be finite, nonnegative and ordered, "
                                  f"got {list(self.xi_range)}")
        if self.size_scheme not in ("equal", "random_multinomial"):
            raise ValidationError(f"unknown size_scheme {self.size_scheme!r}")


# Draws allowed for random_multinomial sizes before giving up: N = 100
# alphas in F = 50 clusters leave no cluster empty once in about 6,000
# draws, N = F = 50 once in about 3e20.
MAX_SIZE_DRAWS = 100_000


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def gen_cluster_spec(config):
    """Cluster sizes, factor variances and specific risks per the config;
    deterministic per seed."""
    rng = _rng(config.seed)
    n, f = config.n_alphas, config.n_clusters
    if config.size_scheme == "equal":
        sizes = np.asarray(optimal_allocation(n, f).sizes)
    else:
        for _ in range(MAX_SIZE_DRAWS):
            sizes = rng.multinomial(n, np.full(f, 1.0 / f))
            if np.all(sizes >= 1):
                break
        else:
            raise ValidationError(
                f"random_multinomial left a cluster empty in all {MAX_SIZE_DRAWS} draws "
                f"of N={n} alphas into F={f} clusters; use the 'equal' size scheme or "
                "fewer clusters")
    phi = rng.uniform(*config.phi_range, f)
    xi = rng.uniform(*config.xi_range, f)
    return ClusterSpec.from_sizes(sizes, phi=phi, xi=xi)


def gen_factor_correlation(seed, f, method="uniform", rho=0.0):
    """F x F correlation matrix: exact uniform off-diagonal, or a random
    SPD matrix rescaled to unit diagonal."""
    if f < 1:
        raise ValidationError("need F >= 1")
    if method == "uniform":
        if not 0 <= rho < 1:
            raise ValidationError("uniform rho must lie in [0, 1)")
        mat = np.full((f, f), rho)
        np.fill_diagonal(mat, 1.0)
        return mat
    if method == "random_spd":
        rng = _rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((f, f)))
        eigs = rng.uniform(0.2, 2.0, f)
        return unit_diagonal((basis * eigs) @ basis.T)
    raise ValidationError(f"unknown method {method!r}")


def gen_model(config):
    """Full factor model for the config: binary clusters with the requested
    factor correlation structure."""
    spec = gen_cluster_spec(config)
    if config.factor_rho == "random":
        corr = gen_factor_correlation(config.seed + 1, config.n_clusters, "random_spd")
    else:
        corr = gen_factor_correlation(
            config.seed + 1, config.n_clusters, "uniform", float(config.factor_rho)
        )
    scale = np.sqrt(spec.phi)
    return spec.to_factor_model(corr * np.outer(scale, scale))


def gen_panel(model, n_obs, seed):
    """Gaussian panel realizing the model covariance: per time step, factor
    draws f ~ N(0, Phi) plus independent specific draws z_i ~ N(0, xi_i^2).
    Alphas are labelled a1, a2, ... zero-padded to one width, and times t0,
    t1, ... likewise."""
    if n_obs < 2:
        raise ValidationError("need at least 2 observations")
    rng = _rng(seed)
    f_draws = rng.standard_normal((n_obs, model.f)) @ model.phi_chol.T
    z = rng.standard_normal((n_obs, model.n)) * model.xi[None, :]
    values = z + f_draws @ model.omega.T
    width = len(str(model.n))
    labels = [f"a{i + 1:0{width}d}" for i in range(model.n)]
    t_width = len(str(n_obs))
    times = [f"t{s:0{t_width}d}" for s in range(n_obs)]
    return AlphaPanel(labels=labels, times=times, values=values)
