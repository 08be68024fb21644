"""Spectral turnover-reduction coefficient from the top eigenpair of a
correlation matrix, plus mean-correlation diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SpectralSummary:
    """Top eigenpair of a correlation matrix with the derived turnover
    reduction coefficient and mean-correlation diagnostics."""

    psi1: float
    v1: np.ndarray
    rho_star: float
    rho_prime: float
    gamma: float | None  # None where rho_prime <= 0
    mean_corr: float

    def to_dict(self):
        return {"psi1": self.psi1, "rho_star": self.rho_star, "rho_prime": self.rho_prime,
                "gamma": self.gamma, "mean_corr": self.mean_corr, "v1": self.v1.tolist()}


def spectral_summary(corr):
    """Compute the top eigenpair (`corr.top_pair()`) and the
    turnover-reduction coefficient rho_star = psi1 * |sum(V1)| / N^(3/2).
    gamma = rho_star / rho_prime is None where rho_prime <= 0."""
    psi = corr.psi
    n = corr.n
    psi1, v1 = corr.top_pair()
    rho_star = psi1 * abs(np.sum(v1)) / n**1.5
    total = float(np.sum(psi))
    rho_prime = total / n**2
    mean_corr = (total - n) / (n * (n - 1))
    return SpectralSummary(
        psi1=float(psi1),
        v1=v1,
        rho_star=float(rho_star),
        rho_prime=float(rho_prime),
        gamma=float(rho_star / rho_prime) if rho_prime > 0 else None,
        mean_corr=float(mean_corr),
    )
