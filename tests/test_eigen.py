"""The shared spectral core: one cached eigendecomposition per correlation
matrix, the top pairs from the guarded block iteration or read from it,
the Cholesky PSD test, and the rank-1-downdate sweep, each checked against
the dense path it replaces."""

import json
import warnings

import numpy as np
import pytest

from alphaturn import cli
from alphaturn import clusters as cl
from alphaturn import eigen
from alphaturn import factor_model as fm
from alphaturn import panel as pm
from alphaturn import spectral as sp

import reference
from test_properties import (cancelling_model, near_tied_model, tied_top_distinct_model,
                             tied_top_model)


def fresh(psi):
    """A correlation matrix with nothing computed yet."""
    return pm.CorrelationMatrix(psi=psi)


def random_corr(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 * n, n)) + 0.4 * rng.standard_normal((2 * n, 1))
    psi = np.corrcoef(a.T)
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    return psi


def block_corr(sizes, rhos):
    """Binary clusters with within-cluster correlation rhos[a]."""
    n = sum(sizes)
    psi = np.zeros((n, n))
    start = 0
    for size, rho in zip(sizes, rhos):
        psi[start:start + size, start:start + size] = rho
        start += size
    np.fill_diagonal(psi, 1.0)
    return psi


def cluster_corr_csv(path, n, m=60, clusters=6, seed=3):
    """Sample correlation of m < n observations: rank-deficient, with a
    simple top eigenvalue."""
    rng = np.random.default_rng(seed)
    asg = np.arange(n) % clusters
    factors = rng.standard_normal((m, clusters)) + 0.5 * rng.standard_normal((m, 1))
    values = factors[:, asg] + 0.8 * rng.standard_normal((m, n))
    psi = np.corrcoef(values.T)
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    pm.save_correlation(pm.CorrelationMatrix(psi=psi), path)


def dense_top(psi):
    return eigen.top_eigenvector(*np.linalg.eigh(psi))


MATRICES = {
    "random": lambda n: random_corr(n, seed=n),
    "identity": lambda n: np.eye(n),
    "equal_blocks": lambda n: block_corr([n // 4] * 4, [0.4] * 4),
    # two clusters of different sizes tie at 5.5 above n - 29 weaker ones
    "unequal_tie": lambda n: block_corr([10, 19] + [1] * (n - 29), [0.5, 0.25] + [0.0] * (n - 29)),
}


class TestTopPair:
    @pytest.mark.parametrize("kind", sorted(MATRICES))
    @pytest.mark.parametrize("n", [40, 160])
    def test_matches_dense_tie_rule(self, kind, n):
        psi = MATRICES[kind](n)
        psi1, v1 = fresh(psi).top_pair()
        want1, want_v = dense_top(psi)
        assert psi1 == pytest.approx(want1, rel=1e-12)
        np.testing.assert_allclose(v1, want_v, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kind", ["random", "identity", "equal_blocks"])
    @pytest.mark.parametrize("n", [6, 20])
    def test_small_n_matches_dense_tie_rule(self, kind, n):
        psi = MATRICES[kind](n)
        psi1, v1 = fresh(psi).top_pair()
        want1, want_v = dense_top(psi)
        assert psi1 == pytest.approx(want1, rel=1e-12)
        np.testing.assert_allclose(v1, want_v, rtol=0, atol=1e-10)

    def test_top_orthogonal_to_start_vector(self):
        # the tie rule projects the uniform vector; a simple top eigenvector
        # with zero sum must still be found. [[A, -A/2], [-A/2, A]] has the
        # eigenvalues of A/2 on vectors (x, x) and of 3A/2 on vectors (x, -x)
        a = random_corr(80, seed=9)
        psi = np.block([[a, -0.5 * a], [-0.5 * a, a]])
        psi1, v1 = fresh(psi).top_pair()
        assert abs(np.sum(v1)) < 1e-10
        want1, want_v = dense_top(psi)
        assert psi1 == pytest.approx(want1, rel=1e-12)
        assert abs(v1 @ want_v) == pytest.approx(1.0, abs=1e-10)

    def test_start_vector_in_null_space_falls_back(self):
        # eigenvalues 2.5, 0.75, 0.5, 0.25 on the Hadamard basis, with the
        # uniform vector on 0.5: without the eigenvalues a block of 8 is
        # wider than N / 4, so the top pair comes from eigh; with them the
        # block is cut to all 4 columns, exact after one step. No warning
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]).T / 2.0
        psi = (h * [0.5, 2.5, 0.75, 0.25]) @ h.T
        want1, want_v = dense_top(psi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eigen.top_pairs(psi, 1) is None
            psi1, v1 = fresh(psi).top_pair()
            vals, vecs = eigen.top_pairs(psi, 1, np.array([0.25, 0.5, 0.75, 2.5]))
        assert psi1 == pytest.approx(want1, rel=1e-12)
        assert abs(v1 @ want_v) == pytest.approx(1.0, abs=1e-12)
        assert vals[0] == pytest.approx(want1, rel=1e-12)
        assert abs(vecs[:, 0] @ want_v) == pytest.approx(1.0, abs=1e-12)

    def test_cached_spectrum_is_used(self):
        corr = fresh(random_corr(160, seed=3))
        w, v = corr.spectrum
        psi1, v1 = corr.top_pair()
        want1, want_v = eigen.top_eigenvector(w, v)
        assert psi1 == want1
        np.testing.assert_array_equal(v1, want_v)


def clustered_corr(n, clusters, m, seed):
    """Sample correlation of m observations of n alphas in `clusters`
    clusters with loadings of either sign: about `clusters` large
    eigenvalues above a bulk."""
    rng = np.random.default_rng(seed)
    asg = rng.integers(0, clusters, n)
    loadings = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    x = rng.standard_normal((m, clusters))[:, asg] * loadings + rng.standard_normal((m, n))
    psi = np.corrcoef(x.T)
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    return psi


def hiding_basis(n):
    """An orthonormal basis of the complement of every start column that
    top_pairs can use at N = n (a block grows to at most N / 4 columns)."""
    start = eigen._start_columns(n, 0, n // 4)
    return np.linalg.qr(start, mode="complete")[0][:, n // 4:]


class TestTopPairs:
    @pytest.mark.parametrize("n, clusters, m, k", [
        (400, 16, 150, 1), (400, 16, 150, 2), (400, 16, 150, 5), (400, 16, 150, 10),
        (300, 20, 600, 5), (300, 20, 600, 10), (200, 12, 400, 1)])
    def test_matches_eigh(self, n, clusters, m, k):
        # 150 observations of 400 alphas leave a zero bulk; at k = 1 a block
        # of 8 narrower than the cluster count widens
        psi = clustered_corr(n, clusters, m, seed=k)
        w, v = np.linalg.eigh(psi)
        got = eigen.top_pairs(psi, k)
        assert got is not None
        vals, vecs = got
        np.testing.assert_allclose(vals, w[:-k - 1:-1], rtol=1e-13)
        want = v[:, :-k - 1:-1]
        vecs = vecs * np.sign(np.sum(vecs * want, axis=0))
        np.testing.assert_allclose(vecs, want, rtol=0, atol=1e-11)
        # the same pairs where all eigenvalues are given
        vals_w, vecs_w = eigen.top_pairs(psi, k, w)
        np.testing.assert_allclose(vals_w, vals, rtol=1e-13)
        np.testing.assert_allclose(np.abs(np.sum(vecs_w * want, axis=0)), 1.0, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("k, hidden", [(1, 27.0), (3, 17.0), (1, 4.75), (3, 4.75)],
                             ids=["below-top", "below-kth", "in-bulk-1", "in-bulk-3"])
    def test_certificate_catches_hidden_eigenvalue(self, k, hidden):
        # visible eigenvalues 29.5, 24.5, 19.5, 14.5 above a bulk at 4.5
        # and 5, and one more on h, which is orthogonal to every start
        # column: no block sees it but through rounding, which amplifies
        # it by hidden / 5 a step. Between the k-th and the (k+1)-th
        # visible value it stays hidden while the visible pairs converge:
        # they are the top k, but the gap below them is not the one their
        # guard used, and only the certificate shows it. Where w is given,
        # its gap is used and they pass. In the bulk h hides nothing.
        n = 200
        h = hiding_basis(n)[:, 7]
        proj = np.eye(n) - np.outer(h, h)
        base = block_corr([50, 40, 30, 20] + [1] * 60, [0.5] * 4 + [0.0] * 60) + 4.0 * np.eye(n)
        psi = proj @ base @ proj + hidden * np.outer(h, h)
        psi = (psi + psi.T) / 2.0
        w = np.linalg.eigvalsh(psi)
        assert (eigen.top_pairs(psi, k) is not None) == (hidden < 5)
        got = eigen.top_pairs(psi, k, w)
        np.testing.assert_allclose(got[0], w[:-k - 1:-1], rtol=1e-13)

    def test_start_block_in_eigenspace_declines(self):
        # psi = I + B with B zero on every start column: the first step
        # gives Ritz values all 1, which tie, with zero residuals
        n = 64
        basis = hiding_basis(n)
        r = np.random.default_rng(2).standard_normal((basis.shape[1],) * 2)
        psi = np.eye(n) + basis @ (r + r.T) @ basis.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eigen.top_pairs(psi, 1) is None

    @pytest.mark.parametrize("n, k", [(32, 1), (48, 3), (160, 10)])
    def test_block_wider_than_quarter_declines(self, n, k):
        # max(8, 4k) columns against N / 4, where no eigenvalues are given;
        # with them the block only has to fit in N
        narrow = clustered_corr(n - 1, k + 2, 2 * n, seed=1)
        assert eigen.top_pairs(narrow, k) is None
        assert eigen.top_pairs(clustered_corr(n, k + 2, 2 * n, seed=1), k) is not None
        w = np.linalg.eigvalsh(narrow)
        np.testing.assert_allclose(eigen.top_pairs(narrow, k, w)[0], w[:-k - 1:-1], rtol=1e-13)

    @pytest.mark.parametrize("kind", ["flat", "30-clusters"])
    def test_unseparated_top_declines_early(self, kind, monkeypatch):
        # a flat spectrum (150 draws of 300 independent alphas) and 30
        # clusters under a block of 8 or 16: the Ritz values predict more
        # columns than the budget of N, so the block declines after a few
        # steps where it used to spend the budget first
        if kind == "flat":
            psi = np.corrcoef(np.random.default_rng(4).standard_normal((150, 300)).T)
            psi = (psi + psi.T) / 2.0
            np.fill_diagonal(psi, 1.0)
        else:
            psi = clustered_corr(400, 30, 150, seed=1)
        blocks = []
        real = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr",
                            lambda a, *args: blocks.append(a.shape[1]) or real(a, *args))
        assert eigen.top_pairs(psi, 1) is None
        assert sum(blocks) <= 100

    def test_tied_top_declines(self):
        psi = block_corr([40] * 4, [0.4] * 4)
        assert eigen.top_pairs(psi, 1) is None
        assert eigen.top_pairs(psi, 1, np.linalg.eigvalsh(psi)) is None
        # below a simple top the tie lies past k + 1 = 2 for k = 1 only
        psi = block_corr([60, 40, 40], [0.5, 0.4, 0.4])
        assert eigen.top_pairs(psi, 1) is not None
        assert eigen.top_pairs(psi, 2) is None


class TestSpectrumCache:
    def test_constructors_and_loaders_compute_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "corr.csv"
        pm.save_correlation(fresh(random_corr(20, seed=4)), path)
        model = fm.ClusterSpec.from_sizes([3, 4]).to_factor_model()
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append("eigh"))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append("eigvalsh"))
        pm.load_correlation(path)
        fm.build_covariance(model)
        assert calls == []

    def test_psd_follows_spectrum(self):
        assert fresh(random_corr(20, seed=5)).psd
        assert not fresh(np.ones((4, 4))).psd

    def test_psd_takes_cholesky_first(self, monkeypatch):
        # a positive definite matrix needs no eigh, and its verdict is kept;
        # a singular one takes one
        calls, factored = [], []
        real, real_chol = np.linalg.eigh, np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, *args: calls.append(a.shape) or real(a, *args))
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a, *args: factored.append(a.shape) or real_chol(a, *args))
        corr = fresh(random_corr(100, seed=5))
        assert corr.psd and corr.psd
        assert calls == [] and factored == [(100, 100)]
        singular = fresh(clustered_corr(100, 4, 50, seed=2))
        assert not singular.psd
        assert calls == [(100, 100)] and singular._spectrum is not None

    @pytest.mark.parametrize("seed", range(4))
    def test_canonicalize_carries_no_spectrum(self, seed):
        # the re-signed matrix solves its own top pair, as a fresh one does
        rng = np.random.default_rng(seed)
        flip = np.where(rng.random(40) < 0.4, -1.0, 1.0)
        psi = random_corr(40, seed) * np.outer(flip, flip)
        np.fill_diagonal(psi, 1.0)
        corr = fresh(psi)
        corr.spectrum
        signs, new = pm.canonicalize_signs(corr)
        assert np.any(signs < 0) and new._spectrum is None
        got = sp.spectral_summary(new)
        want = sp.spectral_summary(fresh(new.psi.copy()))
        assert got.to_dict() == want.to_dict()
        np.testing.assert_array_equal(got.v1, want.v1)

    def test_canonicalize_without_spectrum_computes_nothing(self):
        _, new = pm.canonicalize_signs(fresh(random_corr(20, seed=6)))
        assert new._spectrum is None


class TestDowndateSweep:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_projection_with_top_pcs(self, seed):
        n, k_max = 40, 12
        corr = fresh(random_corr(n, seed))
        w, v = np.linalg.eigh(corr.psi)
        pcs = v[:, np.argsort(w)[::-1]][:, :k_max]
        fast = cl.residual_correlation_sweep(corr, k_max)
        slow = reference.residual_correlation_sweep(fresh(corr.psi.copy()), k_max, loadings=pcs)
        assert fast.ks == slow.ks and fast.skipped == slow.skipped
        assert fast.rank_used == slow.rank_used
        np.testing.assert_allclose(fast.zeta1, slow.zeta1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fast.zeta2, slow.zeta2, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_full_off_diagonal_reference(self, seed):
        # the projection formula with statistics over every off-diagonal entry
        n, k_max = 30, 8
        psi = random_corr(n, seed)
        w, v = np.linalg.eigh(psi)
        pcs = v[:, np.argsort(w)[::-1]]
        eye, off = np.eye(n), ~np.eye(n, dtype=bool)
        z1, z2 = [], []
        for k in range(1, k_max + 1):
            y = pcs[:, :k] @ pcs[:, :k].T
            resid = (eye - y) @ psi @ (eye - y)
            scale = np.sqrt(np.diag(resid))
            vals = (resid / np.outer(scale, scale))[off]
            z1.append(np.mean(vals))
            z2.append(np.median(vals))
        fast = cl.residual_correlation_sweep(fresh(psi), k_max)
        assert fast.ks == list(range(1, k_max + 1))
        np.testing.assert_allclose(fast.zeta1, z1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fast.zeta2, z2, rtol=0, atol=1e-12)


class TestDecompositionBudget:
    """N x N decompositions (cholesky, eigh, eigvalsh) made by one CLI command."""

    def square(self, monkeypatch, n, argv):
        """Names of the cholesky, eigh and eigvalsh calls on an n x n matrix."""
        calls = []
        for name in ("cholesky", "eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(a, *args, _real=real, _name=name, **kwargs):
                if np.shape(a) == (n, n):
                    calls.append(_name)
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert cli.main(argv) == 0
        return calls

    def test_analyze_corr_deform(self, tmp_path, monkeypatch):
        n = 150
        path = tmp_path / "corr.csv"
        cluster_corr_csv(path, n)
        out = tmp_path / "out.json"
        argv = ["analyze", str(path), "--corr", "--deform", "--out", str(out)]
        # the input fails its Cholesky PSD test and its spectrum feeds the
        # deformation; the deformed matrix's top pair comes from the block
        # iteration and its certificate Cholesky
        assert self.square(monkeypatch, n, argv) == ["cholesky", "eigh", "cholesky"]
        assert json.loads(out.read_text())["deformed"] is True

    def test_analyze_corr_positive_definite(self, tmp_path, monkeypatch):
        n = 150
        path = tmp_path / "corr.csv"
        cluster_corr_csv(path, n, m=400)
        out = tmp_path / "out.json"
        argv = ["analyze", str(path), "--corr", "--out", str(out)]
        # the block iteration's certificate is the one decomposition
        assert self.square(monkeypatch, n, argv) == ["cholesky"]
        doc = json.loads(out.read_text())
        want1, want_v = dense_top(pm.load_correlation(path).psi)
        assert doc["psi1"] == pytest.approx(want1, rel=1e-12)
        np.testing.assert_allclose(doc["v1"], want_v, rtol=0, atol=1e-12)

    def test_analyze_tied_top(self, tmp_path, monkeypatch):
        n = 80
        path = tmp_path / "corr.csv"
        pm.save_correlation(fresh(block_corr([n // 4] * 4, [0.4] * 4)), path)
        out = tmp_path / "out.json"
        argv = ["analyze", str(path), "--corr", "--out", str(out)]
        # the Ritz values show the tie, so the tie rule reads the spectrum,
        # with no eigvalsh before it
        assert self.square(monkeypatch, n, argv) == ["eigh"]
        # the uniform vector spans the projection: rho* = psi1 / N
        assert json.loads(out.read_text())["rho_star"] == pytest.approx((1 + 19 * 0.4) / n,
                                                                        rel=1e-12)

    def test_clusters_deform(self, tmp_path, monkeypatch):
        n = 150
        path = tmp_path / "corr.csv"
        cluster_corr_csv(path, n)
        argv = ["clusters", str(path), "--kmax", "5", "--deform",
                "--out", str(tmp_path / "sweep.csv")]
        # the input fails its Cholesky PSD test and its eigh feeds the
        # deformation; the deformed matrix's PSD verdict comes from a
        # Cholesky, its top pairs from the block and its certificate Cholesky
        assert self.square(monkeypatch, n, argv) == ["cholesky", "eigh", "cholesky", "cholesky"]

    def test_clusters_positive_definite(self, tmp_path, monkeypatch):
        n = 150
        path = tmp_path / "corr.csv"
        cluster_corr_csv(path, n, m=400)
        argv = ["clusters", str(path), "--kmax", "5", "--out", str(tmp_path / "sweep.csv")]
        # the PSD test's Cholesky, then the block's certificate Cholesky
        assert self.square(monkeypatch, n, argv) == ["cholesky", "cholesky"]

    def test_model_dense_fallback(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        n, f = 40, 4
        doc = {"mode": "dense", "omega": (rng.random((n, f)) + 0.2).tolist(),
               "phi": [1.0] * f, "xi": rng.uniform(0.2, 0.6, n).tolist()}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "eig.json"
        argv = ["model", str(path), "--op", "eigen", "--out", str(out)]
        # eigenvalues only: the top eigenvector comes from the block
        # iteration, whose gap the eigenvalues prove
        assert self.square(monkeypatch, n, argv) == ["eigvalsh"]
        assert json.loads(out.read_text())["method"] == "dense"

    def model_eigen(self, tmp_path, monkeypatch, model):
        """N x N decompositions of `model --op eigen` on the model written as
        a document, with the output document."""
        doc = {"mode": model.mode, "phi": model.phi_cov.tolist(), "xi": model.xi.tolist()}
        if model.mode == "binary":
            doc["assignment"] = model.assignment.tolist()
        else:
            doc["omega"] = model.omega.tolist()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "eig.json"
        argv = ["model", str(path), "--op", "eigen", "--out", str(out)]
        calls = self.square(monkeypatch, model.n, argv)
        return calls, json.loads(out.read_text())

    @pytest.mark.parametrize("kind", ["tied-top", "tied-top-distinct", "cancelling",
                                      "near-tied"])
    def test_model_dense_top_pair(self, tmp_path, monkeypatch, kind):
        # the top pair comes from the block iteration on the same
        # eigenvalues (near-tied: two clusters, so a block of 8 separates
        # psi1 from psi2 0.13% below it; cancelling: a block of 8 of its 12
        # alphas), and from eigh at a tied top; dense loadings are not
        # deflated, though tied-top's alphas repeat
        model = {"tied-top": tied_top_model, "tied-top-distinct": tied_top_distinct_model,
                 "cancelling": cancelling_model, "near-tied": near_tied_model}[kind]()
        corr = fm.build_covariance(model)
        calls, doc = self.model_eigen(tmp_path, monkeypatch, model)
        assert calls == (["eigvalsh", "eigh"] if kind.startswith("tied") else ["eigvalsh"])
        assert doc["method"] == "dense"
        assert doc["rho_star"] == pytest.approx(sp.spectral_summary(corr).rho_star, rel=1e-12)

    def test_model_binary_per_cluster_xi(self, tmp_path, monkeypatch):
        # 60 alphas in 6 clusters with per-cluster xi: the eigenvalues and
        # the top pair come from one eigh of a 6 x 6 block
        rng = np.random.default_rng(11)
        f = 6
        b = rng.uniform(0.0, 1.0, (f, f)) + np.eye(f)
        assignment = rng.integers(1, f + 1, 60)
        model = fm.FactorModel(assignment=assignment, phi_cov=b @ b.T,
                               xi=rng.uniform(0.3, 1.0, f)[assignment - 1])
        calls, doc = self.model_eigen(tmp_path, monkeypatch, model)
        assert calls == []
        assert doc["method"] == "dense"
        corr = fm.build_covariance(model)
        w = np.linalg.eigvalsh(corr.psi)
        np.testing.assert_allclose([v["value"] for v in doc["values"]], w[::-1], rtol=0,
                                   atol=1e-12 * w[-1])
        assert doc["rho_star"] == pytest.approx(sp.spectral_summary(corr).rho_star, rel=1e-12)

    @pytest.mark.parametrize("kind, eps", [
        ("tied", None), ("all-tied", None), ("non-dominant", None),
        ("near-tied", 1e-4), ("near-tied", 1e-6), ("near-tied", 1e-9), ("near-tied", 1e-11),
    ], ids=["tied", "all-tied", "non-dominant", "near-tied-1e-4", "near-tied-1e-6",
            "near-tied-1e-9", "tied-within-degen-tol"])
    def test_model_binary_block_top_pair(self, tmp_path, monkeypatch, kind, eps):
        # a binary model whose alphas repeat takes its top pair from the
        # G x G block too where its top is tied (two equal clusters above
        # two single alphas on correlated factors), where every eigenvalue
        # ties (xi = 1e6 swamps the factors, so no eigenvalue lies below the
        # top eigenspace), where its top is not dominant (the block iteration
        # runs out of steps at N = 200) or where two clusters of 50 on
        # factors of variance 1 and 1 + eps put the top two eigenvalues
        # about 8 eps apart (within DEGEN_TOL at eps = 1e-11): no N x N eigh
        if kind == "tied":
            phi = np.eye(4)
            phi[2, 3] = phi[3, 2] = 0.5
            model = fm.FactorModel(assignment=np.repeat([1, 2, 3, 4], [4, 4, 1, 1]),
                                   phi_cov=phi, xi=np.repeat([0.5, 0.3, 0.7], [8, 1, 1]))
        elif kind == "all-tied":
            model = fm.FactorModel(assignment=[1, 1, 2, 2],
                                   phi_cov=np.array([[1.0, 0.5], [0.5, 1.0]]),
                                   xi=np.full(4, 1e6))
        elif kind == "near-tied":
            model = fm.FactorModel(assignment=np.repeat([1, 2], 50),
                                   phi_cov=np.array([[1, 1e-12], [1e-12, 1 + eps]]),
                                   xi=np.full(100, 0.5))
        else:
            m = tmp_path / "synth.json"
            assert cli.main(["synth", "--seed", "3", "--n", "200", "--clusters", "20",
                             "--n-obs", "20", "--factor-rho", "random",
                             "--panel-out", str(tmp_path / "synth.csv"),
                             "--model-out", str(m)]) == 0
            model = fm.FactorModel.from_json(m.read_text())
        corr = fm.build_covariance(model)
        w = np.linalg.eigvalsh(corr.psi)
        k = eigen.top_multiplicity(w)
        if kind == "tied":
            assert k == 2
        elif kind == "all-tied":
            assert k == model.n
        elif kind == "near-tied":
            assert k == (2 if eps < 1e-10 else 1)
        else:
            assert eigen.top_pairs(corr.psi, 1, w) is None
        calls, doc = self.model_eigen(tmp_path, monkeypatch, model)
        assert calls == []
        assert doc["method"] == "dense"
        np.testing.assert_allclose([v["value"] for v in doc["values"]], w[::-1], rtol=0,
                                   atol=1e-12 * w[-1])
        # V1, and so rho*, moves by up to about eps * psi1 / gap under
        # rounding, in eigh as in the block: 2e-8 at eps = 1e-9
        gap = w[-1] - w[-k - 1] if k < model.n else np.inf
        want = sp.spectral_summary(corr).rho_star
        assert doc["rho_star"] == pytest.approx(want, rel=1e-12 * max(1.0, w[-1] / gap))

    def test_model_repeated_cancelling_model_not_deflated(self, tmp_path, monkeypatch):
        # every alpha of cancelling_model twice: its factored Z + U U^T is
        # off from the assembled matrix by about 1e-8, and a deflation of
        # the factored form was off by 5.7e-10 psi1; dense loadings are not
        # deflated, so the eigenvalues come from the N x N eigvalsh and
        # match eigh; the block iteration gives the top pair
        base = cancelling_model()
        model = fm.FactorModel(omega=np.repeat(base.omega, 2, axis=0), phi_cov=base.phi_cov,
                               xi=np.repeat(base.xi, 2))
        corr = fm.build_covariance(model)
        w = np.linalg.eigvalsh(corr.psi)
        calls, doc = self.model_eigen(tmp_path, monkeypatch, model)
        assert calls == ["eigvalsh"]
        assert doc["method"] == "dense"
        np.testing.assert_allclose([v["value"] for v in doc["values"]], w[::-1], rtol=0,
                                   atol=1e-12 * w[-1])
        assert doc["rho_star"] == pytest.approx(sp.spectral_summary(corr).rho_star, rel=1e-12)

    def decomposed(self, monkeypatch, argv):
        """Arguments of every eigh/eigvalsh/cholesky call made by argv."""
        calls = []
        for name in ("eigh", "eigvalsh", "cholesky"):
            real = getattr(np.linalg, name)

            def recorded(a, *args, _real=real, **kwargs):
                calls.append(np.array(a))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        assert cli.main(argv) == 0
        return calls

    def test_model_reduced_nonbinary_factors_phi_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(9)
        n, f = 30, 4
        basis, _ = np.linalg.qr(rng.standard_normal((f, f)))
        phi = (basis * rng.uniform(0.5, 2.0, f)) @ basis.T
        phi = (phi + phi.T) / 2.0
        doc = {"mode": "dense", "omega": (rng.random((n, f)) + 0.2).tolist(), "phi": phi.tolist()}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "eig.json"
        calls = self.decomposed(monkeypatch, ["model", str(path), "--op", "eigen", "--out", str(out)])
        assert json.loads(out.read_text())["method"] == "reduced-nonbinary"
        square = [a for a in calls if a.shape == (f, f)]
        assert sum(np.array_equal(a, phi) for a in square) == 1
        assert len(square) == len(calls) == 2  # Phi, then the loadings' Gram matrix

    def test_model_nondiagonal_decomposes_phi_and_reduced_matrix_once(self, tmp_path,
                                                                       monkeypatch):
        sizes = [4, 2, 3]
        phi = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, 0.2], [0.1, 0.2, 1.5]])
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"mode": "binary", "sizes": sizes, "phi": phi.tolist()}))
        out = tmp_path / "eig.json"
        calls = self.decomposed(monkeypatch, ["model", str(path), "--op", "eigen", "--out", str(out)])
        assert json.loads(out.read_text())["method"] == "closed-form-nondiagonal"
        d, q = np.sqrt(np.diag(phi)), np.sqrt(sizes)
        reduced = phi / np.outer(d, d) * np.outer(q, q)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[0], phi)  # the Cholesky check of Phi
        np.testing.assert_allclose(calls[1], reduced, rtol=1e-15)  # eigh of Q C Q

    def test_synth_factors_phi_once(self, tmp_path, monkeypatch):
        panel, model = tmp_path / "p.csv", tmp_path / "m.json"
        calls = self.decomposed(monkeypatch, [
            "synth", "--seed", "3", "--n", "12", "--clusters", "3", "--n-obs", "20",
            "--factor-rho", "0.3", "--panel-out", str(panel), "--model-out", str(model)])
        phi = np.array(json.loads(model.read_text())["phi"])
        assert len(calls) == 1 and np.array_equal(calls[0], phi)
