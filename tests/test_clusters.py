import numpy as np
import pytest

from alphaturn import clusters as cl
from alphaturn import panel as pm
from alphaturn.errors import ValidationError
from alphaturn.factor_model import ClusterSpec, build_covariance

import reference


def make_corr(psi):
    psi = np.asarray(psi, dtype=float).copy()
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    return pm.CorrelationMatrix(psi=psi)


def uniform_corr(n, rho):
    psi = np.full((n, n), float(rho))
    np.fill_diagonal(psi, 1.0)
    return make_corr(psi)


class TestLowerBound:
    def test_direct_arithmetic(self):
        est = cl.lower_bound_from_psi(657, 207.0)
        assert est.lower_bound == pytest.approx(657.0 / 207.0, rel=1e-12)
        assert est.lower_bound == pytest.approx(3.17, abs=0.01)

    def test_uniform_closed_form_large_n(self):
        n, rho = 10_000, 0.2
        psi_star = 1.0 + (n - 1) * rho
        est = cl.lower_bound_from_psi(n, psi_star)
        assert est.lower_bound == pytest.approx(5.0, rel=0.005)

    def test_matrix_path_matches_closed_form(self):
        n, rho = 60, 0.35
        est = cl.lower_bound_F(uniform_corr(n, rho))
        assert est.lower_bound == pytest.approx(n / (1.0 + (n - 1) * rho), rel=1e-10)

    def test_binary_model_bound_holds(self):
        # equal clusters, no specific risk: bound is tight (= F)
        spec = ClusterSpec.from_sizes([7] * 5)
        corr = build_covariance(spec.to_factor_model())
        est = cl.lower_bound_F(corr)
        assert est.lower_bound == pytest.approx(5.0, rel=1e-9)


class TestResidualSweep:
    def test_uniform_closed_form(self):
        # N=4, rho=0.5, K=1: residual correlation is exactly -1/3
        curve = cl.residual_correlation_sweep(uniform_corr(4, 0.5), k_max=2)
        k1 = curve.ks.index(1)
        assert curve.zeta1[k1] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert curve.zeta2[k1] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_uniform_any_rho_gives_minus_one_over_nm1(self):
        # removing the top PC of a uniform matrix leaves -1/(N-1) exactly
        for n, rho in [(4, 0.5), (6, 0.2), (10, 0.8)]:
            curve = cl.residual_correlation_sweep(uniform_corr(n, rho), k_max=1)
            assert curve.zeta1[0] == pytest.approx(-1.0 / (n - 1), abs=1e-10)

    def test_projector_idempotence_invariant(self):
        # applying the same projection twice changes nothing: implied by
        # Y being an orthogonal projector; verified through the curve values
        rng = np.random.default_rng(5)
        a = rng.standard_normal((80, 8))
        corr = make_corr(np.corrcoef(a.T))
        c1 = cl.residual_correlation_sweep(corr, k_max=3)
        c2 = cl.residual_correlation_sweep(corr, k_max=3)
        assert c1.zeta1 == c2.zeta1

    def test_curve_flattens_past_true_factor_count(self):
        # exact F-cluster correlations: zeta1 falls monotonically up to
        # K = F and is flat beyond it
        for seed in range(8):
            rng = np.random.default_rng(seed)
            f = 4
            sizes = rng.integers(4, 8, f)
            spec = ClusterSpec.from_sizes(
                sizes, phi=np.full(f, 1.0), xi=rng.uniform(0.4, 0.8, f)
            )
            corr = build_covariance(spec.to_factor_model())
            curve = cl.residual_correlation_sweep(make_corr(corr.psi), k_max=f + 2)
            assert curve.rank_used == corr.n
            z = dict(zip(curve.ks, curve.zeta1))
            assert all(z[k + 1] < z[k] for k in range(1, f))
            for k in range(f + 1, f + 3):
                assert abs(z[k] - z[f]) < 5e-3

    def test_loadings_override_and_skip(self):
        # caller loadings whose first column is a coordinate axis zero out
        # that alpha's residual variance: the step is skipped
        corr = uniform_corr(5, 0.3)
        loadings = np.zeros((5, 2))
        loadings[0, 0] = 1.0
        loadings[1:, 1] = 0.5
        curve = reference.residual_correlation_sweep(corr, k_max=2, loadings=loadings)
        assert 1 in curve.skipped
        assert 2 in curve.skipped

    def test_exhausted_alpha_skips_later_steps(self):
        # the second component is the lone sixth alpha: removing it leaves
        # that alpha no residual variance, so steps 2 and 3 are skipped
        psi = np.eye(6)
        psi[:5, :5] = 0.9
        curve = cl.residual_correlation_sweep(make_corr(psi), 3)
        assert curve.ks == [1] and curve.skipped == [2, 3]

    def test_singular_matrix_requires_deform(self):
        psi = np.ones((3, 3))
        with pytest.raises(ValidationError, match="deform"):
            cl.residual_correlation_sweep(make_corr(psi), k_max=2)

    def test_kmax_bounds(self):
        with pytest.raises(ValidationError):
            cl.residual_correlation_sweep(uniform_corr(4, 0.2), k_max=4)

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_kmax_below_one(self, k_max):
        with pytest.raises(ValidationError, match=f"^k_max must be at least 1, got {k_max}$"):
            cl.residual_correlation_sweep(uniform_corr(4, 0.2), k_max=k_max)

    def test_csv_format(self):
        curve = cl.residual_correlation_sweep(uniform_corr(4, 0.5), k_max=2)
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "K,zeta1,zeta2"
        assert lines[1].startswith("1,")


class TestKnee:
    def test_flattening_curve(self):
        curve = cl.SweepCurve(
            ks=list(range(1, 9)),
            zeta1=[0.5, 0.3, 0.1, 0.02, 0.0199, 0.0198, 0.0197, 0.0196],
            zeta2=[0.0] * 8,
            rank_used=8,
        )
        k, flat = cl.knee_estimate(curve, rel_drop=0.05, window=3)
        assert k == 4
        assert flat

    def test_never_flattens(self):
        curve = cl.SweepCurve(
            ks=list(range(1, 9)),
            zeta1=[2.0 ** -i for i in range(8)],
            zeta2=[0.0] * 8,
            rank_used=8,
        )
        k, flat = cl.knee_estimate(curve, rel_drop=0.05, window=3)
        assert k == 8
        assert not flat

    def test_too_short(self):
        curve = cl.SweepCurve(ks=[1, 2], zeta1=[0.5, 0.4], zeta2=[0, 0], rank_used=2)
        with pytest.raises(ValidationError):
            cl.knee_estimate(curve, window=3)


class TestFStat:
    def test_hand_oracle_two_clusters(self):
        # y = 1..6, clusters {1,2,3} and {4,5,6}: fits are the cluster means
        # (2 and 5), ESS = 3*4 + 3*25 = 87, RSS = 4, F = (87/2)/(4/4) = 43.5
        y = np.arange(1.0, 7.0)
        x = np.zeros((6, 2))
        x[:3, 0] = 1.0
        x[3:, 1] = 1.0
        assert reference.through_origin_fstat(y, x) == pytest.approx(43.5, abs=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(20)
        x = rng.standard_normal((20, 3))
        beta = np.linalg.solve(x.T @ x, x.T @ y)
        yhat = x @ beta
        ess = np.sum(yhat**2)
        rss = np.sum((y - yhat) ** 2)
        expect = (ess / 3) / (rss / 17)
        assert reference.through_origin_fstat(y, x) == pytest.approx(expect, rel=1e-10)

    def test_perfect_fit_is_inf(self):
        x = np.eye(3)
        assert reference.through_origin_fstat(np.ones(3), x) == float("inf")


class TestWinsorize:
    def test_clips_tails(self):
        s = np.arange(100.0)
        w = cl.winsorize(s, 0.05)
        lo, hi = np.quantile(s, [0.05, 0.95])
        assert w.min() == pytest.approx(lo)
        assert w.max() == pytest.approx(hi)
        assert np.all(w[10:90] == s[10:90])

    def test_zero_quantile_noop(self):
        s = np.array([1.0, 5.0, 2.0])
        assert np.allclose(cl.winsorize(s, 0.0), s)


class TestNewClusterFTest:
    def _panel(self, values, labels=None):
        values = np.asarray(values, dtype=float)
        labels = labels or [f"a{i}" for i in range(values.shape[1])]
        return pm.AlphaPanel(
            labels=labels,
            times=[f"t{s}" for s in range(values.shape[0])],
            values=values,
        )

    def test_hand_oracle_per_time(self):
        vals = np.vstack([np.arange(1.0, 7.0), np.arange(1.0, 7.0)[::-1]])
        omega = np.zeros((6, 2))
        omega[:3, 0] = 1.0
        omega[3:, 1] = 1.0
        panel = self._panel(vals)
        report = cl.new_cluster_ftest(panel, omega, panel, omega, winsor=0.0)
        assert report.f_old[0] == pytest.approx(43.5, abs=1e-10)
        assert report.f_new[0] == pytest.approx(43.5, abs=1e-10)
        assert not report.verdict  # medians are equal

    def test_skips_time_with_empty_cluster(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((3, 6)) + 2.0
        vals[1, 3:] = np.nan  # second cluster fully missing at t1
        omega = np.zeros((6, 2))
        omega[:3, 0] = 1.0
        omega[3:, 1] = 1.0
        panel = self._panel(vals)
        report = cl.new_cluster_ftest(panel, omega, panel, omega)
        assert report.skipped_times == ["t1"]
        assert len(report.times) == 2

    def test_skips_time_unusable_in_either_panel(self):
        rng = np.random.default_rng(5)
        old = rng.standard_normal((4, 6)) + 2.0
        new = np.column_stack([old, rng.standard_normal((4, 2))])
        old[1, 3:] = np.nan  # old cluster 2 unobserved at t1
        new[2, 6:] = np.nan  # the new cluster unobserved at t2
        omega_old = np.repeat(np.eye(2), 3, axis=0)
        omega_new = np.zeros((8, 3))
        omega_new[:6, :2] = omega_old
        omega_new[6:, 2] = 1.0
        report = cl.new_cluster_ftest(self._panel(old), omega_old, self._panel(new), omega_new)
        assert report.skipped_times == ["t1", "t2"]
        assert report.times == ["t0", "t3"]

    def test_mismatched_times_rejected(self):
        vals = np.ones((2, 4)) + np.arange(2)[:, None]
        omega = np.zeros((4, 2))
        omega[:2, 0] = 1.0
        omega[2:, 1] = 1.0
        p1 = self._panel(vals)
        p2 = pm.AlphaPanel(
            labels=[f"b{i}" for i in range(4)],
            times=["u0", "u1"],
            values=vals,
        )
        with pytest.raises(ValidationError, match="time"):
            cl.new_cluster_ftest(p1, omega, p2, omega)

    def test_non_binary_loadings_rejected(self):
        vals = np.ones((2, 4)) + np.arange(2)[:, None]
        panel = self._panel(vals)
        omega = np.full((4, 2), 0.5)
        with pytest.raises(ValidationError, match="exactly one"):
            cl.new_cluster_ftest(panel, omega, panel, omega)

    def test_report_serialization(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((4, 6)) + 1.0
        omega = np.zeros((6, 2))
        omega[:3, 0] = 1.0
        omega[3:, 1] = 1.0
        panel = self._panel(vals)
        report = cl.new_cluster_ftest(panel, omega, panel, omega)
        csv = report.to_csv()
        assert csv.startswith("time,f_old,f_new\n")
        doc = report.to_json()
        assert '"verdict"' in doc
