import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from alphaturn import cli
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
        np.testing.assert_array_equal(back.assignment, model.assignment)
        assert np.allclose(back.phi_cov, model.phi_cov)
        assert np.allclose(back.xi, model.xi)
        assert back.mode == "binary"

    def test_from_json_binary_sizes_only(self):
        model = fm.FactorModel.from_json('{"mode": "binary", "sizes": [2, 1], "phi": [1, 4]}')
        np.testing.assert_array_equal(model.assignment, [1, 1, 2])
        np.testing.assert_array_equal(model.sizes, [2, 1])
        np.testing.assert_array_equal(model.loadings(), [[1, 0], [1, 0], [0, 1]])
        np.testing.assert_array_equal(model.xi, np.zeros(3))

    def test_binary_model_stores_no_loadings(self, tmp_path):
        # N = 2e4 alphas in F = 1000 clusters: one-hot loadings would take
        # 160 MB, and loading and solving the model peaked at 216 MB with them
        doc = {"mode": "binary", "sizes": [20] * 1000, "phi": [1.0] * 1000}
        tracemalloc.start()
        try:
            model = fm.FactorModel.from_doc(doc)
            structure, method = fm.model_eigenstructure(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert model.omega is None and method == "closed-form-binary"
        assert structure.rho_star == pytest.approx(1000**-1.5, rel=1e-12)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["model", str(path), "--op", "rho-star",
                         "--out", str(tmp_path / "rho.json")]) == 0

    def test_dense_model_has_no_layout(self):
        model = fm.FactorModel(omega=np.eye(2), phi_cov=np.eye(2), xi=np.zeros(2))
        assert model.assignment is None and model.sizes is None
        with pytest.raises(ValidationError, match="loadings or cluster ids, not both"):
            fm.FactorModel(omega=np.eye(2), phi_cov=np.eye(2), xi=np.zeros(2), assignment=[1, 2])

    # FactorModel, the one holder of cluster ids, shares from_doc's check of them
    @pytest.mark.parametrize("ids", [[0, 1, 2], [1, 2, 3]], ids=["below", "above"])
    def test_cluster_ids_out_of_range(self, ids):
        with pytest.raises(ValidationError, match=r"^cluster ids must lie in 1\.\.2$"):
            fm.FactorModel(assignment=ids, phi_cov=np.eye(2), xi=np.zeros(3))

    # a cluster with no alpha is rejected at construction with from_doc's
    # message, whatever path the model would take: closed-form-binary (xi
    # zero or uniform, diagonal Phi), closed-form-nondiagonal (xi zero) or
    # dense
    @pytest.mark.parametrize("xi", [[0.0] * 3, [0.1] * 3, [0.1, 0.2, 0.3]],
                             ids=["xi-zero", "xi-uniform", "xi-per-alpha"])
    @pytest.mark.parametrize("phi", [np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]])],
                             ids=["diagonal", "nondiagonal"])
    def test_empty_cluster_rejected(self, xi, phi):
        with pytest.raises(ValidationError,
                           match="^cluster sizes must be positive: cluster 2 has no alpha$"):
            fm.FactorModel(assignment=[1, 1, 1], phi_cov=phi, xi=xi)

    # an id or a size that is not an integer would be truncated or wrapped
    # by the int cast
    @pytest.mark.parametrize("bad", [1.5, math.nan, math.inf, 1e20],
                             ids=["fraction", "nan", "inf", "beyond-int64"])
    def test_non_integer_ids_and_sizes_rejected(self, bad):
        want = re.escape(f"must be 64-bit integers, got {bad}") + "$"
        with pytest.raises(ValidationError, match=f"^cluster ids {want}"):
            fm.FactorModel(assignment=[1, bad, 2], phi_cov=np.eye(2), xi=np.zeros(3))
        with pytest.raises(ValidationError, match=f"^cluster sizes {want}"):
            fm.ClusterSpec.from_sizes([2, bad])

    def test_integer_valued_floats_accepted(self):
        model = fm.FactorModel(assignment=[1.0, 2.0, 2.0], phi_cov=np.eye(2), xi=np.zeros(3))
        np.testing.assert_array_equal(model.sizes, [1, 2])
        np.testing.assert_array_equal(fm.ClusterSpec.from_sizes([2.0, 1.0]).sizes, [2, 1])

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError, match="^cluster sizes must be positive$"):
            fm.ClusterSpec.from_sizes([2, -1])

    # sizes that the int cast would truncate, and non-finite parameters
    # that would give NaN eigenvalues, are rejected by every solver
    @pytest.mark.parametrize("call,message", [
        (lambda: fm.secular_roots([2.7, 3], 0.3), "cluster sizes must be 64-bit integers, got 2.7"),
        (lambda: fm.secular_roots([math.nan, 3], 0.3),
         "cluster sizes must be 64-bit integers, got nan"),
        (lambda: fm.secular_identity_check([2.5, 3, 4], 0.3),
         "cluster sizes must be 64-bit integers, got 2.5"),
        (lambda: fm.reduce_nondiagonal([1.5, 2], np.eye(2)),
         "cluster sizes must be 64-bit integers, got 1.5"),
        (lambda: fm.reduce_nondiagonal([2, 2], [[1.0, math.nan], [math.nan, 1.0]]),
         "factor correlation must be finite"),
        (lambda: fm.ClusterSpec([2, 3], phi=[math.nan, 1.0]),
         "phi must be positive and finite, one per cluster"),
        (lambda: fm.ClusterSpec([2, 3], phi=[math.inf, 1.0]),
         "phi must be positive and finite, one per cluster"),
        (lambda: fm.ClusterSpec([2, 3], xi=[math.inf, 1.0]),
         "xi must be nonnegative and finite, one per cluster"),
        (lambda: fm.ClusterSpec([2, 3], xi=[math.nan, 1.0]),
         "xi must be nonnegative and finite, one per cluster"),
        (lambda: fm.ClusterSpec([[1, 2]]), "cluster sizes must be one list, got shape (1, 2)"),
    ], ids=["roots-fraction", "roots-nan", "identity-fraction", "nondiagonal-fraction",
            "nondiagonal-nan-corr", "phi-nan", "phi-inf", "xi-inf", "xi-nan", "sizes-2d"])
    def test_paper_equation_inputs_rejected(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    # sizes or ids that form no layout: numpy would answer an empty list
    # with one root, a RuntimeWarning or a plain ValueError, and a ragged or
    # non-numeric one with a plain ValueError
    @pytest.mark.parametrize("call,message", [
        (lambda: fm.secular_roots([], 0.3), "cluster sizes must list at least one cluster"),
        (lambda: fm.secular_identity_check([], 0.3),
         "cluster sizes must list at least one cluster"),
        (lambda: fm.ClusterSpec([]), "cluster sizes must list at least one cluster"),
        (lambda: fm.reduce_nondiagonal([], np.zeros((0, 0))),
         "cluster sizes must list at least one cluster"),
        (lambda: fm.ClusterSpec([[1], [1, 2]]), "cluster sizes must be an array of 64-bit integers"),
        (lambda: fm.ClusterSpec(["a", 2]), "cluster sizes must be an array of 64-bit integers"),
        (lambda: fm.ClusterSpec(["1", 2]), "cluster sizes must be an array of 64-bit integers"),
        (lambda: fm.FactorModel(phi_cov=np.eye(2), xi=np.zeros(2), assignment=[[1], [1, 2]]),
         "cluster ids must be an array of 64-bit integers"),
        (lambda: fm.FactorModel(phi_cov=np.eye(2), xi=np.zeros(2), assignment=[[1], [2]]),
         "cluster ids must be one list"),
    ], ids=["roots-empty", "identity-empty", "spec-empty", "nondiagonal-empty", "sizes-ragged",
            "sizes-text", "sizes-numeric-text", "ids-ragged", "ids-2d"])
    def test_empty_ragged_or_non_numeric_layout_rejected(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    def test_cluster_spec_holds_no_ids(self):
        spec = fm.ClusterSpec([3, 1], [2.0, 0.5], [0.1, 0.2])
        assert not hasattr(spec, "assignment")
        model = spec.to_factor_model()
        np.testing.assert_array_equal(model.assignment, [1, 1, 1, 2])
        np.testing.assert_array_equal(model.xi, [0.1, 0.1, 0.1, 0.2])
        np.testing.assert_array_equal(model.sizes, spec.sizes)

    # each row breaks the F-test's one-hot rule, which both loadings
    # arguments share: a fraction, a negative entry, two ones, no one
    @pytest.mark.parametrize("row", [[0.5, 0.5], [-1.0, 0.0], [1.0, 1.0], [0.0, 0.0]],
                             ids=["half", "negative", "two-ones", "no-one"])
    def test_one_hot_rule_shared(self, row):
        omega = np.array([[1.0, 0.0], [0.0, 1.0], row])
        message = "rows must assign each alpha to exactly one cluster"
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
        assert eig.eigenvalues().sum() == pytest.approx(4.0, abs=1e-12)

    def test_trace_is_n(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = rng.integers(2, 7)
            sizes = rand_sizes(rng, int(rng.integers(f + 1, 40)), f)
            spec = fm.ClusterSpec.from_sizes(
                sizes, phi=rng.uniform(0.5, 2.0, f), xi=rng.uniform(0.0, 1.0, f)
            )
            eig = fm.binary_eigensystem(spec)
            assert eig.eigenvalues().sum() == pytest.approx(spec.n, rel=1e-12)

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
            rho = fm.binary_eigensystem(spec).rho_star
            assert rho == pytest.approx(f**-1.5, abs=1e-12)

    def test_spec_risk_suppression_ratio(self):
        # rho_star(zeta) / rho_star(0) = (1 + zeta / N_star) / (1 + zeta)
        sizes = [8, 5, 3]
        base = fm.ClusterSpec.from_sizes(sizes)
        eig0 = fm.binary_eigensystem(base)
        rho0, top0 = eig0.rho_star, eig0.top_cluster
        for zeta in (0.25, 1.0, 3.0):
            phi = np.ones(3)
            spec = fm.ClusterSpec.from_sizes(
                sizes, phi=phi, xi=np.sqrt(zeta * phi)
            )
            eig = fm.binary_eigensystem(spec)
            rho, top = eig.rho_star, eig.top_cluster
            assert top == top0
            expect = rho0 * (1.0 + zeta / sizes[0]) / (1.0 + zeta)
            assert rho == pytest.approx(expect, rel=1e-12)

    def test_large_zeta_limit(self):
        # zeta -> inf: psi_A -> 1, rho_star -> sqrt(N_A) / N^{3/2}
        sizes = [8]
        spec = fm.ClusterSpec.from_sizes(
            sizes, phi=np.array([1e-12]), xi=np.array([1.0])
        )
        rho = fm.binary_eigensystem(spec).rho_star
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
        model = spec.to_factor_model(corr)
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


class TestFiniteInstruments:
    """The paper's second claim at xi = 0, checked numerically (not proved):
    with K fixed instruments, rho* levels off above zero as N grows, where
    F clusters would give F^-3/2. With psi = lam lam^T, lam the unit loading
    rows, the top pair of lam^T lam / N = (mu, c) gives psi1 = N mu and
    V1 = lam c / sqrt(N mu), so rho* = sqrt(mu) |ubar . c| at every N, with
    ubar the mean row."""

    K = 5
    MEAN = np.linspace(-0.5, 1.0, K)

    def model(self, n):
        omega = self.MEAN + 0.5 * np.random.default_rng(n).standard_normal((n, self.K))
        return fm.FactorModel(omega=omega, phi_cov=np.eye(self.K), xi=np.zeros(n))

    def test_rho_star_levels_off_above_zero(self):
        values = []
        for n in (10**3, 10**4, 10**5, 10**6):
            model = self.model(n)
            eig, method = fm.model_eigenstructure(model)
            assert method == "reduced-nonbinary"
            lam = model.omega / np.linalg.norm(model.omega, axis=1)[:, None]
            mu, c = np.linalg.eigh(lam.T @ lam / n)
            limit = math.sqrt(mu[-1]) * abs(lam.mean(axis=0) @ c[:, -1])
            assert eig.rho_star == pytest.approx(limit, rel=1e-12)
            values.append(eig.rho_star)
        assert max(values) / min(values) < 1.02
        assert min(values) > 0.5

    def test_matches_dense_eigh(self):
        model = self.model(10**3)
        w, v = np.linalg.eigh(fm.build_covariance(model).psi)
        dense = w[-1] * abs(v[:, -1].sum()) / model.n**1.5
        assert fm.model_eigenstructure(model)[0].rho_star == pytest.approx(dense, rel=1e-9)


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

