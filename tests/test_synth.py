import numpy as np
import pytest

from alphaturn import synth as sy
from alphaturn.errors import ValidationError
from alphaturn.factor_model import build_covariance


def base_config(**kw):
    params = dict(seed=11, n_alphas=12, n_clusters=3, n_obs=200)
    params.update(kw)
    return sy.SynthConfig(**params)


class TestConfig:
    def test_rejects_more_clusters_than_alphas(self):
        with pytest.raises(ValidationError):
            sy.SynthConfig(seed=0, n_alphas=3, n_clusters=4)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValidationError):
            base_config(phi_range=(0.0, 1.0))
        with pytest.raises(ValidationError):
            base_config(xi_range=(0.5, 0.1))


class TestClusterSpecGen:
    def test_equal_scheme(self):
        spec = sy.gen_cluster_spec(base_config(n_alphas=10, n_clusters=3))
        assert sorted(spec.sizes) == [3, 3, 4]

    def test_random_multinomial_sums(self):
        spec = sy.gen_cluster_spec(
            base_config(size_scheme="random_multinomial", n_alphas=30, n_clusters=4)
        )
        assert spec.sizes.sum() == 30
        assert np.all(spec.sizes >= 1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_multinomial_bounded_draws_keep_sizes(self, seed):
        # N = 100, F = 50 takes thousands of redraws, within the bound: the
        # spec is the one the unbounded redraw loop gives
        config = base_config(seed=seed, size_scheme="random_multinomial", n_alphas=100,
                             n_clusters=50)
        rng = np.random.Generator(np.random.PCG64(seed))
        while not np.all((sizes := rng.multinomial(100, np.full(50, 1 / 50))) >= 1):
            pass
        spec = sy.gen_cluster_spec(config)
        assert np.array_equal(spec.sizes, sizes)
        assert np.array_equal(spec.phi, rng.uniform(*config.phi_range, 50))
        assert np.array_equal(spec.xi, rng.uniform(*config.xi_range, 50))

    def test_deterministic(self):
        a = sy.gen_cluster_spec(base_config())
        b = sy.gen_cluster_spec(base_config())
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.xi, b.xi)

    def test_ranges_respected(self):
        spec = sy.gen_cluster_spec(
            base_config(phi_range=(0.9, 1.1), xi_range=(0.2, 0.3))
        )
        assert np.all((spec.phi >= 0.9) & (spec.phi <= 1.1))
        assert np.all((spec.xi >= 0.2) & (spec.xi <= 0.3))


class TestFactorCorrelation:
    def test_uniform(self):
        mat = sy.gen_factor_correlation(0, 4, "uniform", rho=0.3)
        assert np.allclose(np.diag(mat), 1.0)
        off = mat[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.3)

    def test_random_spd(self):
        mat = sy.gen_factor_correlation(5, 6, "random_spd")
        assert np.allclose(np.diag(mat), 1.0)
        assert np.allclose(mat, mat.T)
        assert np.linalg.eigvalsh(mat)[0] > 0

    def test_random_spd_deterministic(self):
        a = sy.gen_factor_correlation(5, 6, "random_spd")
        b = sy.gen_factor_correlation(5, 6, "random_spd")
        assert np.array_equal(a, b)

    def test_bad_rho(self):
        with pytest.raises(ValidationError):
            sy.gen_factor_correlation(0, 3, "uniform", rho=1.0)


class TestModelGen:
    def test_uniform_rho_covariance(self):
        config = base_config(factor_rho=0.25)
        model = sy.gen_model(config)
        spec = sy.gen_cluster_spec(config)
        # factor covariance is rho * sqrt(phi_A phi_B) off-diagonal
        for a in range(3):
            assert model.phi_cov[a, a] == pytest.approx(spec.phi[a], rel=1e-12)
            for b in range(a + 1, 3):
                assert model.phi_cov[a, b] == pytest.approx(
                    0.25 * np.sqrt(spec.phi[a] * spec.phi[b]), rel=1e-12
                )

    def test_binary_mode_loadings(self):
        model = sy.gen_model(base_config())
        assert model.mode == "binary"
        assert model.omega is None
        assert np.all(model.loadings().sum(axis=1) == 1.0)


class TestPanelGen:
    def test_deterministic(self):
        model = sy.gen_model(base_config())
        a = sy.gen_panel(model, 50, 99)
        b = sy.gen_panel(model, 50, 99)
        assert np.array_equal(a.values, b.values)
        assert a.labels == b.labels
        assert a.times == b.times

    def test_seed_changes_draws(self):
        model = sy.gen_model(base_config())
        a = sy.gen_panel(model, 50, 99)
        b = sy.gen_panel(model, 50, 100)
        assert not np.array_equal(a.values, b.values)

    def test_sample_correlation_converges(self):
        config = base_config(
            seed=3, n_alphas=8, n_clusters=2, phi_range=(1.0, 1.5),
            xi_range=(0.5, 0.8),
        )
        model = sy.gen_model(config)
        panel = sy.gen_panel(model, 8000, 42)
        corr = build_covariance(model)
        sample = np.corrcoef(panel.values.T)
        assert np.max(np.abs(sample - corr.psi)) < 0.08

    def test_zero_xi_single_factor_is_rank_one(self):
        config = sy.SynthConfig(
            seed=1, n_alphas=4, n_clusters=1, xi_range=(0.0, 0.0)
        )
        model = sy.gen_model(config)
        panel = sy.gen_panel(model, 30, 5)
        sample = panel.values
        # every column proportional to the first
        for k in range(1, 4):
            ratio = sample[:, k] / sample[:, 0]
            assert np.max(np.abs(ratio - ratio[0])) < 1e-10

    def test_top_eigenvalue_recovery(self):
        # sample top eigenvalue of the correlation matrix lands within 5%
        # of the model value for most seeds at n_obs = 10_000
        wins = 0
        for seed in range(10):
            config = sy.SynthConfig(
                seed=seed, n_alphas=20, n_clusters=4, n_obs=10_000,
                phi_range=(0.8, 1.4), xi_range=(0.3, 0.7),
            )
            model = sy.gen_model(config)
            corr = build_covariance(model)
            true_top = np.linalg.eigvalsh(corr.psi)[-1]
            panel = sy.gen_panel(model, 10_000, seed + 500)
            top = np.linalg.eigvalsh(np.corrcoef(panel.values.T))[-1]
            if abs(top - true_top) / true_top < 0.05:
                wins += 1
        assert wins >= 9
