import json
import math

import numpy as np
import pytest

from alphaturn import clusters as cl
from alphaturn import factor_model as fm
from alphaturn import panel as pm
from alphaturn import spectral as sp
from alphaturn.errors import ValidationError

import reference


def rand_sizes(rng, n, f):
    """Random positive sizes summing to n with a unique maximum (keeps the
    top eigenvalue simple so dense and closed-form paths agree)."""
    while True:
        sizes = rng.multinomial(n, np.full(f, 1.0 / f))
        if np.all(sizes >= 1) and np.sum(sizes == sizes.max()) == 1:
            return sizes


def rand_spd_corr(rng, f):
    basis, _ = np.linalg.qr(rng.standard_normal((f, f)))
    eigs = rng.uniform(0.2, 2.0, f)
    mat = (basis * eigs) @ basis.T
    d = np.sqrt(np.diag(mat))
    mat = mat / np.outer(d, d)
    mat = (mat + mat.T) / 2.0
    np.fill_diagonal(mat, 1.0)
    return mat


class TestBuildCovariance:
    def test_binary_no_specific_risk(self):
        spec = fm.ClusterSpec.from_sizes([2, 1], phi=np.array([4.0, 9.0]))
        corr = fm.build_covariance(spec.to_factor_model())
        np.testing.assert_allclose(corr.psi, [[1, 1, 0], [1, 1, 0], [0, 0, 1]], atol=1e-15)

    def test_specific_risk_dilutes_correlation(self):
        spec = fm.ClusterSpec.from_sizes(
            [2], phi=np.array([1.0]), xi=np.array([1.0])
        )
        corr = fm.build_covariance(spec.to_factor_model())
        assert corr.psi[0, 1] == pytest.approx(0.5)

    def test_dense_mode_correlation(self):
        rng = np.random.default_rng(0)
        omega = rng.standard_normal((6, 2))
        phi = rand_spd_corr(rng, 2)
        model = fm.FactorModel(omega=omega, phi_cov=phi, xi=np.zeros(6))
        corr = fm.build_covariance(model)
        expect = omega @ phi @ omega.T
        d = np.sqrt(np.diag(expect))
        assert np.allclose(corr.psi, expect / np.outer(d, d), atol=1e-12)

    def test_json_roundtrip(self):
        spec = fm.ClusterSpec.from_sizes(
            [3, 2], phi=np.array([1.5, 0.5]), xi=np.array([0.3, 0.7])
        )
        model = spec.to_factor_model()
        back = fm.FactorModel.from_json(model.to_json())
        assert np.allclose(back.omega, model.omega)
        assert np.allclose(back.phi_cov, model.phi_cov)
        assert np.allclose(back.xi, model.xi)
        assert back.mode == "binary"

    def test_from_json_binary_sizes_only(self):
        model = fm.FactorModel.from_json('{"mode": "binary", "sizes": [2, 1], "phi": [1, 4]}')
        np.testing.assert_array_equal(model.assignment, [1, 1, 2])
        np.testing.assert_array_equal(model.sizes, [2, 1])
        np.testing.assert_array_equal(model.omega, fm.binary_loadings([1, 1, 2], 2))
        np.testing.assert_array_equal(model.xi, np.zeros(3))

    def test_dense_model_has_no_layout(self):
        model = fm.FactorModel(omega=np.eye(2), phi_cov=np.eye(2), xi=np.zeros(2))
        assert model.assignment is None and model.sizes is None

    # each row breaks the one-hot rule: a fraction, a negative entry, two
    # ones, no one
    @pytest.mark.parametrize("row", [[0.5, 0.5], [-1.0, 0.0], [1.0, 1.0], [0.0, 0.0]],
                             ids=["half", "negative", "two-ones", "no-one"])
    def test_one_hot_rule_shared(self, row):
        omega = np.array([[1.0, 0.0], [0.0, 1.0], row])
        message = "rows must assign each alpha to exactly one cluster"
        with pytest.raises(ValidationError, match=f"^loadings: {message}$"):
            fm.FactorModel(omega=omega, phi_cov=np.eye(2), xi=np.zeros(3), mode="binary")
        panel = pm.AlphaPanel(labels=["a0", "a1", "a2"], times=["t0", "t1"],
                              values=np.arange(6.0).reshape(2, 3))
        good = fm.binary_loadings([1, 2, 2], 2)
        with pytest.raises(ValidationError, match=f"^omega_old: {message}$"):
            cl.new_cluster_ftest(panel, omega, panel, good)
        with pytest.raises(ValidationError, match=f"^omega_new: {message}$"):
            cl.new_cluster_ftest(panel, good, panel, omega)

    def test_phi_factor_kept(self):
        phi = rand_spd_corr(np.random.default_rng(4), 3)
        model = fm.FactorModel(omega=np.ones((5, 3)), phi_cov=phi, xi=np.zeros(5))
        np.testing.assert_array_equal(model.phi_chol, np.linalg.cholesky(phi))


class TestBinaryEigensystem:
    def test_no_specific_risk_sizes(self):
        spec = fm.ClusterSpec.from_sizes([3, 1])
        eig = fm.binary_eigensystem(spec)
        assert np.allclose(eig.eigenvalues(), [3.0, 1.0, 0.0, 0.0])
        assert eig.top_cluster == 1
        assert eig.rho_star == pytest.approx(3.0 * math.sqrt(3.0) / 8.0, abs=1e-12)

    def test_with_specific_risk(self):
        # one cluster of 4, phi = 1, xi = 1: psi = (1 + 4)/2 = 2.5,
        # tilde = 1/2 with multiplicity 3
        spec = fm.ClusterSpec.from_sizes([4], xi=np.array([1.0]))
        eig = fm.binary_eigensystem(spec)
        assert np.allclose(eig.eigenvalues(), [2.5, 0.5, 0.5, 0.5])
        assert eig.total == pytest.approx(4.0, abs=1e-12)

    def test_trace_is_n(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = rng.integers(2, 7)
            sizes = rand_sizes(rng, int(rng.integers(f + 1, 40)), f)
            spec = fm.ClusterSpec.from_sizes(
                sizes, phi=rng.uniform(0.5, 2.0, f), xi=rng.uniform(0.0, 1.0, f)
            )
            eig = fm.binary_eigensystem(spec)
            assert eig.total == pytest.approx(spec.n, rel=1e-12)

    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            f = rng.integers(2, 6)
            sizes = rand_sizes(rng, int(rng.integers(f + 1, 30)), f)
            spec = fm.ClusterSpec.from_sizes(
                sizes, phi=rng.uniform(0.5, 2.0, f), xi=rng.uniform(0.1, 1.0, f)
            )
            eig = fm.binary_eigensystem(spec)
            corr = fm.build_covariance(spec.to_factor_model())
            dense = np.sort(np.linalg.eigvalsh(corr.psi))[::-1]
            assert np.allclose(eig.eigenvalues(), dense, atol=1e-10)


class TestRhoStarBinary:
    def test_equal_clusters_limit(self):
        # equal clusters, zero specific risk: rho_star = F^{-3/2}
        for f in (2, 4, 8):
            spec = fm.ClusterSpec.from_sizes([10] * f)
            rho, _ = fm.rho_star_binary(spec)
            assert rho == pytest.approx(f**-1.5, abs=1e-12)

    def test_spec_risk_suppression_ratio(self):
        # rho_star(zeta) / rho_star(0) = (1 + zeta / N_star) / (1 + zeta)
        sizes = [8, 5, 3]
        base = fm.ClusterSpec.from_sizes(sizes)
        rho0, top0 = fm.rho_star_binary(base)
        for zeta in (0.25, 1.0, 3.0):
            phi = np.ones(3)
            spec = fm.ClusterSpec.from_sizes(
                sizes, phi=phi, xi=np.sqrt(zeta * phi)
            )
            rho, top = fm.rho_star_binary(spec)
            assert top == top0
            expect = rho0 * (1.0 + zeta / sizes[0]) / (1.0 + zeta)
            assert rho == pytest.approx(expect, rel=1e-12)

    def test_large_zeta_limit(self):
        # zeta -> inf: psi_A -> 1, rho_star -> sqrt(N_A) / N^{3/2}
        sizes = [8]
        spec = fm.ClusterSpec.from_sizes(
            sizes, phi=np.array([1e-12]), xi=np.array([1.0])
        )
        rho, _ = fm.rho_star_binary(spec)
        assert rho == pytest.approx(math.sqrt(8.0) / 8.0**1.5, rel=1e-9)

    def test_tie_break_larger_cluster(self):
        # equal eigenvalues via matched (size, phi, xi): cluster sizes differ
        # but psi_A equal -> larger N_A wins
        phi = np.array([1.0, 1.0])
        # (xi^2 + N phi)/(xi^2 + phi): choose xi to equalize
        # cluster 1: N=6 xi=0 -> 6; cluster 2: N=11, xi^2 = x:
        # (x + 11)/(x + 1) = 6 -> x = 1
        spec = fm.ClusterSpec.from_sizes(
            [6, 11], phi=phi, xi=np.array([0.0, 1.0])
        )
        eig = fm.binary_eigensystem(spec)
        assert eig.top_cluster == 2


class TestOptimalAllocation:
    def test_even_split(self):
        plan = fm.optimal_allocation(12, 4)
        assert sorted(plan.sizes) == [3, 3, 3, 3]
        assert plan.rho_star_min == pytest.approx(4.0**-1.5)

    def test_uneven_split(self):
        plan = fm.optimal_allocation(10, 3)
        assert sorted(plan.sizes) == [3, 3, 4]
        assert sum(plan.sizes) == 10

    def test_power_law(self):
        fs = np.array([4, 8, 16, 32, 64])
        rhos = np.array([fm.optimal_allocation(1000, int(f)).rho_star_min for f in fs])
        slope = np.polyfit(np.log(fs), np.log(rhos), 1)[0]
        assert slope == pytest.approx(-1.5, abs=1e-9)

    def test_bad_f(self):
        with pytest.raises(ValidationError):
            fm.optimal_allocation(3, 5)


class TestReduceNondiagonal:
    def test_diagonal_factor_corr_recovers_binary(self):
        sizes = [5, 3, 2]
        eig = fm.reduce_nondiagonal(sizes, np.eye(3))
        spec = fm.ClusterSpec.from_sizes(sizes)
        ref = fm.binary_eigensystem(spec)
        assert np.allclose(eig.eigenvalues(), ref.eigenvalues(), atol=1e-10)
        assert eig.rho_star == pytest.approx(ref.rho_star, abs=1e-12)

    def test_two_cluster_closed_form(self):
        n1, n2, rho = 3, 1, 0.5
        corr = np.array([[1.0, rho], [rho, 1.0]])
        eig = fm.reduce_nondiagonal([n1, n2], corr)
        hi, lo = fm.secular_f2_closed_form(n1, n2, rho)
        vals = eig.eigenvalues()
        assert vals[0] == pytest.approx(hi, abs=1e-12)
        assert vals[1] == pytest.approx(lo, abs=1e-12)
        assert hi == pytest.approx((4.0 + math.sqrt(7.0)) / 2.0, abs=1e-12)

    def test_rho_star_against_dense_oracle(self):
        # frozen dense-oracle value for sizes (3,1), factor corr 0.5
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        eig = fm.reduce_nondiagonal([3, 1], corr)
        assert eig.rho_star == pytest.approx(0.8191981964403675, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        f = int(rng.integers(2, 6))
        sizes = rand_sizes(rng, int(rng.integers(f + 1, 30)), f)
        corr = rand_spd_corr(rng, f)
        eig = fm.reduce_nondiagonal(sizes, corr)
        spec = fm.ClusterSpec.from_sizes(sizes)
        model = spec.to_factor_model()
        model = fm.FactorModel(
            omega=model.omega, phi_cov=corr, xi=np.zeros(spec.n), mode="binary"
        )
        dense_corr = fm.build_covariance(model)
        dense = sp.spectral_summary(dense_corr)
        w = np.sort(np.linalg.eigvalsh(dense_corr.psi))[::-1]
        assert np.allclose(eig.eigenvalues(), w, atol=1e-9)
        assert eig.rho_star == pytest.approx(dense.rho_star, abs=1e-9)

    @pytest.mark.parametrize("sizes", [[2, 2, 2], [1, 50, 3]])
    def test_indefinite_factor_corr_rejected(self, sizes):
        corr = np.array([[1.0, 0.6, 0.6], [0.6, 1.0, -0.6], [0.6, -0.6, 1.0]])
        assert np.linalg.eigvalsh(corr)[0] < 0
        with pytest.raises(ValidationError, match="factor correlation must be positive definite"):
            fm.reduce_nondiagonal(sizes, corr)


class TestReduceNonbinary:
    def test_binary_special_case(self):
        spec = fm.ClusterSpec.from_sizes([4, 2], phi=np.array([2.0, 0.5]))
        model = spec.to_factor_model()
        eig = fm.reduce_nonbinary(model)
        ref = fm.binary_eigensystem(spec)
        assert np.allclose(eig.eigenvalues(), ref.eigenvalues(), atol=1e-10)
        assert eig.rho_star == pytest.approx(ref.rho_star, abs=1e-10)

    def test_single_factor_gives_psi_n(self):
        rng = np.random.default_rng(1)
        omega = np.abs(rng.standard_normal((7, 1))) + 0.1
        model = fm.FactorModel(
            omega=omega, phi_cov=np.array([[1.3]]), xi=np.zeros(7)
        )
        eig = fm.reduce_nonbinary(model)
        vals = eig.eigenvalues()
        assert vals[0] == pytest.approx(7.0, abs=1e-10)
        assert np.allclose(vals[1:], 0.0, atol=1e-10)
        assert eig.rho_star == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_matches_dense(self, seed):
        rng = np.random.default_rng(100 + seed)
        f = int(rng.integers(2, 5))
        n = int(rng.integers(f + 2, 25))
        omega = rng.standard_normal((n, f)) + 0.5
        phi = rand_spd_corr(rng, f)
        model = fm.FactorModel(omega=omega, phi_cov=phi, xi=np.zeros(n))
        eig = fm.reduce_nonbinary(model)
        corr = fm.build_covariance(model)
        w = np.sort(np.linalg.eigvalsh(corr.psi))[::-1]
        assert np.allclose(eig.eigenvalues(), w, atol=1e-9)
        dense = sp.spectral_summary(corr)
        assert eig.rho_star == pytest.approx(dense.rho_star, abs=1e-9)

    def test_cholesky_factor_choice_is_irrelevant(self):
        # the Gram matrix Q = Lambda^T Lambda depends on Phi only through
        # Phi itself; compare against a symmetric square root factorization
        rng = np.random.default_rng(6)
        f, n = 3, 12
        omega = rng.standard_normal((n, f)) + 0.4
        phi = rand_spd_corr(rng, f)
        model = fm.FactorModel(omega=omega, phi_cov=phi, xi=np.zeros(n))
        eig = fm.reduce_nonbinary(model)
        root = pytest.importorskip("scipy.linalg").sqrtm(phi).real
        omega_t = omega @ root
        sig = np.linalg.norm(omega_t, axis=1)
        lam = omega_t / sig[:, None]
        w = np.sort(np.linalg.eigvalsh(lam.T @ lam))[::-1]
        assert np.allclose(eig.eigenvalues()[:f], w, atol=1e-9)

    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(8)
        omega = rng.standard_normal((10, 3)) + 0.5
        model = fm.FactorModel(
            omega=omega, phi_cov=rand_spd_corr(rng, 3), xi=np.zeros(10)
        )
        v = reference.nonbinary_eigenvectors(model)
        assert np.allclose(v.T @ v, np.eye(3), atol=1e-10)

    def test_nonzero_xi_rejected(self):
        model = fm.FactorModel(
            omega=np.ones((3, 1)), phi_cov=np.eye(1), xi=np.full(3, 0.2)
        )
        with pytest.raises(ValidationError, match="dense"):
            fm.reduce_nonbinary(model)

    def test_dependent_columns_named(self):
        omega = np.column_stack([np.ones(5), 2.0 * np.ones(5)])
        model = fm.FactorModel(omega=omega, phi_cov=np.eye(2), xi=np.zeros(5))
        with pytest.raises(ValidationError, match="column"):
            fm.reduce_nonbinary(model)


class TestSecular:
    def test_rho_zero_gives_sizes(self):
        roots = fm.secular_roots([5, 3, 2], 0.0)
        assert np.allclose(roots, [5.0, 3.0, 2.0])

    def test_rho_one_gives_n(self):
        roots = fm.secular_roots([5, 3, 2], 1.0)
        assert np.allclose(roots, [10.0, 0.0, 0.0])

    def test_two_cluster_closed_form(self):
        for n1, n2, rho in [(3, 1, 0.5), (7, 2, 0.3), (10, 10, 0.8)]:
            roots = fm.secular_roots([n1, n2], rho)
            hi, lo = fm.secular_f2_closed_form(n1, n2, rho)
            assert roots[0] == pytest.approx(hi, rel=1e-12)
            assert roots[1] == pytest.approx(lo, rel=1e-12)

    def test_duplicate_sizes_pin_roots(self):
        rho = 0.3
        roots = fm.secular_roots([2, 2, 1], rho)
        assert np.any(np.abs(roots - (1.0 - rho) * 2.0) < 1e-12)
        # all roots match the dense 5x5 eigenvalues
        corr = np.full((3, 3), rho)
        np.fill_diagonal(corr, 1.0)
        eig = fm.reduce_nondiagonal([2, 2, 1], corr)
        assert np.allclose(roots, eig.eigenvalues()[:3], atol=1e-9)

    def test_matches_reduced_eigensystem(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            f = int(rng.integers(2, 7))
            sizes = rng.integers(1, 15, f)
            rho = float(rng.uniform(0.05, 0.95))
            roots = fm.secular_roots(sizes, rho)
            corr = np.full((f, f), rho)
            np.fill_diagonal(corr, 1.0)
            eig = fm.reduce_nondiagonal(sizes, corr)
            assert np.allclose(roots, eig.eigenvalues()[:f], atol=1e-9)

    def test_roots_sum_to_n(self):
        sizes = [9, 4, 4, 2, 1]
        roots = fm.secular_roots(sizes, 0.42)
        assert roots.sum() == pytest.approx(20.0, rel=1e-10)

    def test_monotone_top_root_in_rho(self):
        sizes = [6, 3, 1]
        tops = [fm.secular_roots(sizes, r)[0] for r in np.linspace(0.0, 1.0, 21)]
        assert np.all(np.diff(tops) > -1e-12)
        assert tops[-1] == pytest.approx(10.0, rel=1e-10)

    def test_identity_check(self):
        reports = fm.secular_identity_check([3, 1], 0.5)
        active = [r for r in reports if not r.skipped]
        assert len(active) == 2
        for r in active:
            assert r.discrepancy < 1e-5

    def test_identity_check_random(self):
        rng = np.random.default_rng(30)
        sizes = rand_sizes(rng, 40, 5)
        reports = fm.secular_identity_check(sizes, 0.35)
        for r in reports:
            if not r.skipped:
                assert r.discrepancy < 1e-5

    def test_eigenvector_matches_dense(self):
        sizes = [3, 1]
        rho = 0.5
        roots = fm.secular_roots(sizes, rho)
        chi = reference.secular_eigenvector(sizes, rho, roots[0])
        corr = np.full((2, 2), rho)
        np.fill_diagonal(corr, 1.0)
        # the top eigenvector of reduce_nondiagonal's reduced matrix Q C Q
        q = np.sqrt(np.asarray(sizes, dtype=float))
        ref = np.linalg.eigh(corr * np.outer(q, q))[1][:, -1]
        if np.dot(chi, ref) < 0:
            ref = -ref
        assert np.allclose(chi, ref, atol=1e-9)

    def test_bad_rho(self):
        with pytest.raises(ValidationError):
            fm.secular_roots([2, 2], 1.5)


class TestNonbinaryBound:
    def test_binary_exact_for_one_cluster(self):
        # single cluster, no specific risk: Lambda is the all-ones column,
        # chi = 1, q = 0, psi* = N, rho* = 1
        lam = np.ones((6, 1))
        bound = fm.nonbinary_bound(lam)
        assert bound.chi == pytest.approx(1.0)
        assert bound.psi_star_est == pytest.approx(6.0)
        assert bound.rho_star_est == pytest.approx(1.0)

    def test_accurate_in_dominant_factor_regime(self):
        rng = np.random.default_rng(17)
        n = 25
        omega = np.column_stack(
            [
                np.ones(n),
                0.15 * rng.standard_normal(n),
                0.15 * rng.standard_normal(n),
            ]
        )
        model = fm.FactorModel(omega=omega, phi_cov=np.eye(3), xi=np.zeros(n))
        omega_t = omega @ np.linalg.cholesky(model.phi_cov)
        lam = omega_t / np.linalg.norm(omega_t, axis=1)[:, None]
        bound = fm.nonbinary_bound(lam)
        dense = sp.spectral_summary(fm.build_covariance(model))
        assert bound.psi_star_est == pytest.approx(dense.psi1, rel=0.05)
        assert bound.rho_star_est == pytest.approx(dense.rho_star, rel=0.05)

    def test_unit_row_norm_enforced(self):
        with pytest.raises(ValidationError, match="unit norm"):
            fm.nonbinary_bound(2.0 * np.ones((4, 1)))

    def test_vanishing_chi_advises_canonicalization(self):
        lam = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        with pytest.raises(ValidationError, match="canonicalize"):
            fm.nonbinary_bound(lam)
