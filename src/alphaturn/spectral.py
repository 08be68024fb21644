"""Spectral turnover-reduction coefficient from the top eigenpair of a
correlation matrix, plus the turnover estimate and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


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


@dataclass
class TurnoverInputs:
    """Per-alpha turnovers and combination weights (sum of |w| = 1)."""

    taus: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.taus < 0):
            raise ValidationError("turnovers must be nonnegative")
        if abs(np.sum(np.abs(self.weights)) - 1.0) > 1e-12:
            raise ValidationError("weights must satisfy sum(|w_i|) = 1")
        if self.taus.shape != self.weights.shape:
            raise ValidationError("taus and weights must have the same length")


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


def turnover_estimate(summary, inputs):
    """Aggregate turnover estimate rho_star * sum(tau_i * |w_i|)."""
    return summary.rho_star * float(np.sum(inputs.taus * np.abs(inputs.weights)))


def gamma_diagnostic(summary):
    """Ratio gamma = rho_star / rho_prime."""
    if summary.rho_prime <= 0:
        raise ValidationError(
            "rho_prime <= 0; apply sign canonicalization before computing gamma"
        )
    return summary.rho_star / summary.rho_prime
