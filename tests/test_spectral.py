import numpy as np
import pytest

from alphaturn import panel as pm
from alphaturn import spectral as sp
from alphaturn.errors import ValidationError
from alphaturn.factor_model import ClusterSpec, build_covariance


def make_corr(psi):
    psi = np.asarray(psi, dtype=float).copy()
    if np.max(np.abs(psi - psi.T)) <= 1e-12:
        psi = (psi + psi.T) / 2.0
        np.fill_diagonal(psi, 1.0)
    return pm.CorrelationMatrix(psi=psi)


def uniform_corr(n, rho):
    psi = np.full((n, n), float(rho))
    np.fill_diagonal(psi, 1.0)
    return make_corr(psi)


class TestSpectralSummary:
    @pytest.mark.parametrize(
        "n,rho", [(10, 0.5), (4, 0.25), (50, 0.1), (100, 0.9)]
    )
    def test_uniform_closed_form(self, n, rho):
        summary = sp.spectral_summary(uniform_corr(n, rho))
        expected = (1.0 + (n - 1) * rho) / n
        assert summary.rho_star == pytest.approx(expected, abs=1e-12)
        assert summary.psi1 == pytest.approx(1.0 + (n - 1) * rho, abs=1e-10)
        # rho_prime = (n + n(n-1)rho)/n^2 coincides with rho_star here
        assert summary.rho_prime == pytest.approx(expected, abs=1e-12)
        assert summary.gamma == pytest.approx(1.0, abs=1e-10)

    def test_uniform_large_n(self):
        n, rho = 500, 0.3
        summary = sp.spectral_summary(uniform_corr(n, rho))
        assert summary.rho_star == pytest.approx(
            (1.0 + (n - 1) * rho) / n, abs=1e-10
        )

    def test_identity_sixteen(self):
        summary = sp.spectral_summary(make_corr(np.eye(16)))
        assert summary.rho_star == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert summary.psi1 == pytest.approx(1.0, abs=1e-12)

    def test_equal_weight_recovery_identity(self):
        # identity N: rho_star = 1/N exactly (uniform vector in the
        # degenerate top eigenspace)
        for n in (2, 5, 9):
            summary = sp.spectral_summary(make_corr(np.eye(n)))
            assert summary.rho_star == pytest.approx(1.0 / n, abs=1e-12)

    def test_two_block(self):
        # clusters (3, 1), no specific risk, independent factors
        spec = ClusterSpec.from_sizes([3, 1])
        corr = build_covariance(spec.to_factor_model())
        summary = sp.spectral_summary(corr)
        # psi1 = 3, V1 uniform on the first three alphas
        assert summary.psi1 == pytest.approx(3.0, abs=1e-10)
        assert summary.rho_star == pytest.approx(3.0 * np.sqrt(3.0) / 8.0, abs=1e-10)

    def test_mean_corr_and_trace_identity(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((60, 7))
        psi = np.corrcoef(a.T)
        summary = sp.spectral_summary(make_corr(psi))
        n = 7
        off = psi[~np.eye(n, dtype=bool)]
        assert summary.mean_corr == pytest.approx(off.mean(), abs=1e-12)
        # N rho' = 1 + (N-1) mean_corr
        assert n * summary.rho_prime == pytest.approx(
            1.0 + (n - 1) * summary.mean_corr, abs=1e-12
        )
        # trace: eigenvalues sum to N
        assert np.linalg.eigvalsh(psi).sum() == pytest.approx(n, abs=1e-10)

    def test_psi1_equals_n_iff_all_ones(self):
        summary = sp.spectral_summary(make_corr(np.ones((5, 5))))
        assert summary.psi1 == pytest.approx(5.0, abs=1e-10)
        assert summary.rho_star == pytest.approx(1.0, abs=1e-10)
        summary2 = sp.spectral_summary(uniform_corr(5, 0.999))
        assert summary2.psi1 < 5.0

    def test_canonicalize_flag(self):
        psi = np.array([[1.0, -0.6], [-0.6, 1.0]])
        raw = sp.spectral_summary(make_corr(psi))
        canon = sp.spectral_summary(pm.canonicalize_signs(make_corr(psi))[1])
        assert canon.rho_star == pytest.approx(0.8, abs=1e-12)
        assert canon.rho_star >= raw.rho_star - 1e-12

    def test_sign_flip_invariance_of_psi1(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((40, 6))
        psi = np.corrcoef(a.T)
        s = np.array([1, -1, 1, -1, -1, 1], dtype=float)
        flipped = psi * np.outer(s, s)
        one = sp.spectral_summary(make_corr(psi))
        two = sp.spectral_summary(make_corr(flipped))
        assert one.psi1 == pytest.approx(two.psi1, abs=1e-10)

    def test_asymmetric_rejected(self):
        psi = np.eye(3)
        psi[0, 1] = 0.5
        with pytest.raises(ValidationError):
            make_corr(psi)


class TestGamma:
    def test_gamma_identity(self):
        rng = np.random.default_rng(4)
        a = np.abs(rng.standard_normal((80, 6))) + 0.1
        psi = np.corrcoef(a.T)
        summary = sp.spectral_summary(make_corr(psi))
        assert summary.gamma == pytest.approx(summary.rho_star / summary.rho_prime, abs=1e-12)

    def test_gamma_uniform_is_one(self):
        summary = sp.spectral_summary(uniform_corr(30, 0.4))
        assert summary.gamma == pytest.approx(1.0, abs=1e-10)

    def test_negative_rho_prime_advises_canonicalization(self):
        # off-diagonals of -0.9 sum below zero: gamma is undefined until
        # canonicalize_signs re-signs the matrix
        corr = uniform_corr(3, -0.9)
        summary = sp.spectral_summary(corr)
        assert summary.rho_prime < 0
        assert summary.gamma is None
        canon = sp.spectral_summary(pm.canonicalize_signs(corr)[1])
        assert canon.rho_prime > 0
        assert canon.gamma == pytest.approx(canon.rho_star / canon.rho_prime, abs=1e-12)
