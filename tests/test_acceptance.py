"""Acceptance suite: one test per criterion, each ending in a single
PASS line with the measured worst-case figure."""

import math

import numpy as np
import pytest

from alphaturn import clusters as cl
from alphaturn import factor_model as fm
from alphaturn import panel as pm
from alphaturn import spectral as sp
from alphaturn import synth as sy

import reference


def make_corr(psi):
    psi = np.asarray(psi, dtype=float)
    return pm.CorrelationMatrix(psi=psi)


def uniform_corr(n, rho):
    psi = np.full((n, n), float(rho))
    np.fill_diagonal(psi, 1.0)
    return make_corr(psi)


def rand_sizes(rng, n, f):
    """Positive sizes summing to n with a unique maximum."""
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


def test_01_uniform_closed_form():
    worst = 0.0
    for n in (2, 10, 100, 500):
        for rho in (0.0, 0.3, 0.9):
            summary = sp.spectral_summary(uniform_corr(n, rho))
            expected = (1.0 + (n - 1) * rho) / n
            worst = max(worst, abs(summary.rho_star - expected))
    assert worst < 1e-10
    print(f"\nACCEPT 01 PASS uniform closed form, worst abs err {worst:.3e} (tol 1e-10)")


def test_02_power_law_slope():
    fs = np.array([2, 4, 8, 16, 32])
    rhos = np.array([fm.optimal_allocation(320, int(f)).rho_star_min for f in fs])
    slope = np.polyfit(np.log(fs), np.log(rhos), 1)[0]
    err = abs(slope + 1.5)
    assert err < 1e-9
    print(f"\nACCEPT 02 PASS power-law slope {slope:.12f}, err {err:.3e} (tol 1e-9)")


def test_03_specific_risk_formula():
    worst = 0.0
    for trial in range(50):
        rng = np.random.Generator(np.random.PCG64((6000, trial)))
        f = int(rng.integers(2, 7))
        n = int(rng.integers(f + 2, 50))
        sizes = rand_sizes(rng, n, f)
        zeta = float(rng.uniform(0.1, 3.0))
        phi = rng.uniform(0.5, 2.0)
        base = fm.ClusterSpec.from_sizes(sizes, phi=np.full(f, phi))
        spec = fm.ClusterSpec.from_sizes(
            sizes, phi=np.full(f, phi), xi=np.full(f, math.sqrt(zeta * phi))
        )
        eig0 = fm.binary_eigensystem(base)
        rho0, top = eig0.rho_star, eig0.top_cluster
        rho = fm.binary_eigensystem(spec).rho_star
        n_star = sizes[top - 1]
        formula = rho0 * (1.0 + zeta / n_star) / (1.0 + zeta)
        worst = max(worst, abs(rho - formula))
        # dense eigensolver cross-check
        dense = sp.spectral_summary(fm.build_covariance(spec.to_factor_model()))
        worst = max(worst, abs(rho - dense.rho_star))
    assert worst < 1e-10
    print(f"\nACCEPT 03 PASS specific-risk ratio, worst abs err {worst:.3e} (tol 1e-10)")


def test_04_oracle_equivalence():
    worst_eig = 0.0
    worst_rho = 0.0
    for family in ("binary", "binary_xi", "nondiag", "nonbinary"):
        for trial in range(200):
            rng = np.random.Generator(np.random.PCG64((5000, trial)))
            f = int(rng.integers(2, 9))
            n = int(rng.integers(f + 2, 65))
            if family == "binary":
                sizes = rand_sizes(rng, n, f)
                spec = fm.ClusterSpec.from_sizes(sizes, phi=rng.uniform(0.5, 2.0, f))
                eig = fm.binary_eigensystem(spec)
                model = spec.to_factor_model()
            elif family == "binary_xi":
                sizes = rand_sizes(rng, n, f)
                spec = fm.ClusterSpec.from_sizes(
                    sizes,
                    phi=rng.uniform(0.5, 2.0, f),
                    xi=rng.uniform(0.1, 1.0, f),
                )
                eig = fm.binary_eigensystem(spec)
                model = spec.to_factor_model()
            elif family == "nondiag":
                sizes = rand_sizes(rng, n, f)
                corr = rand_spd_corr(rng, f)
                eig = fm.reduce_nondiagonal(sizes, corr)
                model = fm.ClusterSpec.from_sizes(sizes).to_factor_model(corr)
            else:
                omega = rng.standard_normal((n, f)) + 0.5
                model = fm.FactorModel(
                    omega=omega, phi_cov=rand_spd_corr(rng, f), xi=np.zeros(n)
                )
                eig = fm.reduce_nonbinary(model)
            corr_full = fm.build_covariance(model)
            dense_w = np.sort(np.linalg.eigvalsh(corr_full.psi))[::-1]
            worst_eig = max(worst_eig, np.max(np.abs(eig.eigenvalues() - dense_w)))
            dense = sp.spectral_summary(corr_full)
            worst_rho = max(worst_rho, abs(eig.rho_star - dense.rho_star))
    assert worst_eig < 1e-8
    assert worst_rho < 1e-8
    print(
        f"\nACCEPT 04 PASS oracle equivalence, worst eig err {worst_eig:.3e}, "
        f"worst rho_star err {worst_rho:.3e} (tol 1e-8)"
    )


def test_05_secular_equation():
    # duplicate-size case matches the dense reduced eigensystem
    worst_dense = 0.0
    for sizes, rho in [((2, 2, 1), 0.3), ((5, 5, 5, 2), 0.6), ((9, 4, 4, 2, 1), 0.42)]:
        roots = fm.secular_roots(sizes, rho)
        f = len(sizes)
        corr = np.full((f, f), rho)
        np.fill_diagonal(corr, 1.0)
        eig = fm.reduce_nondiagonal(sizes, corr)
        worst_dense = max(
            worst_dense, np.max(np.abs(roots - eig.eigenvalues()[:f]))
        )
    assert worst_dense < 1e-9

    # F = 2 closed form
    worst_f2 = 0.0
    for n1, n2, rho in [(3, 1, 0.5), (7, 2, 0.3), (10, 10, 0.8), (40, 13, 0.95)]:
        roots = fm.secular_roots([n1, n2], rho)
        hi, lo = fm.secular_f2_closed_form(n1, n2, rho)
        worst_f2 = max(worst_f2, abs(roots[0] - hi), abs(roots[1] - lo))
    assert worst_f2 < 1e-12

    # normalization identity via central differences
    worst_id = 0.0
    for sizes, rho in [((3, 1), 0.5), ((6, 3, 1), 0.35), ((8, 5, 4, 2), 0.7)]:
        for rep in fm.secular_identity_check(sizes, rho):
            if not rep.skipped:
                worst_id = max(worst_id, rep.discrepancy)
    assert worst_id < 1e-5

    # Fig.-3-scale case: F = 50, N = 2061, top root monotone in rho and
    # approaching N as rho -> 1
    rng = np.random.Generator(np.random.PCG64(42))
    sizes = rand_sizes(rng, 2061, 50)
    grid = np.linspace(0.01, 0.99, 25)
    tops = [fm.secular_roots(sizes, float(r))[0] for r in grid]
    assert np.all(np.diff(tops) > 0)
    endpoint = fm.secular_roots(sizes, 1.0 - 1e-10)[0]
    gap = abs(endpoint - 2061.0)
    assert gap < 1e-6
    print(
        f"\nACCEPT 05 PASS secular equation: dense err {worst_dense:.3e} (tol 1e-9), "
        f"F=2 err {worst_f2:.3e} (tol 1e-12), identity err {worst_id:.3e} (tol 1e-5), "
        f"endpoint gap {gap:.3e} (tol 1e-6)"
    )


def test_06_lower_bound_arithmetic():
    cases = [(207.0, 3.17), (93.9, 7.00), (158.0, 4.15), (71.1, 9.24)]
    worst = 0.0
    for psi_star, expected in cases:
        est = cl.lower_bound_from_psi(657, psi_star)
        worst = max(worst, abs(est.lower_bound - expected))
    assert worst <= 0.01
    print(f"\nACCEPT 06 PASS lower-bound arithmetic, worst abs err {worst:.4f} (tol 0.01)")


def test_07_sweep_and_knee():
    # closed form: uniform rho = 0.5, N = 4, K = 1 -> -1/3
    curve = cl.residual_correlation_sweep(uniform_corr(4, 0.5), k_max=1)
    err = max(abs(curve.zeta1[0] + 1.0 / 3.0), abs(curve.zeta2[0] + 1.0 / 3.0))
    assert err < 1e-12

    # knee recovery on seeded synthetic panels with 7 true clusters
    hits = 0
    for seed in range(100):
        config = sy.SynthConfig(
            seed=seed, n_alphas=70, n_clusters=7, n_obs=500,
            phi_range=(1.0, 2.0), xi_range=(0.4, 0.6), factor_rho=0.0,
        )
        model = sy.gen_model(config)
        panel = sy.gen_panel(model, 500, seed + 1000)
        corr = pm.pairwise_correlation(panel, min_overlap=2)
        if not corr.psd:
            corr = pm.deform_correlation(corr)
        sweep = cl.residual_correlation_sweep(corr, k_max=12)
        knee, _ = cl.knee_estimate(sweep, rel_drop=0.02, window=3)
        if 6 <= knee <= 9:
            hits += 1
    assert hits >= 90
    print(
        f"\nACCEPT 07 PASS sweep closed form err {err:.3e} (tol 1e-12); "
        f"knee in [6,9] for {hits}/100 trials (need >= 90)"
    )


def _ftest_fixture(seed, kind):
    """Seeded fixture panels for the new-cluster F-test.

    kind 'new_factor': 15 extra alphas driven by a genuinely new factor.
    kind 'replicated': 10 extra alphas that are noisy copies of existing
    factors, claimed as a new cluster.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    f, per, n_obs, xi = 3, 10, 60, 0.7
    n_old = f * per
    factors = rng.standard_normal((n_obs, f))
    old = np.repeat(factors, per, axis=1) + xi * rng.standard_normal((n_obs, n_old))
    omega_old = np.repeat(np.eye(f), per, axis=0)

    if kind == "new_factor":
        m = 15
        new_factor = math.sqrt(2.0) * rng.standard_normal(n_obs)
        extra = new_factor[:, None] + xi * rng.standard_normal((n_obs, m))
        omega_extra = np.zeros((m, f + 1))
        omega_extra[:, f] = 1.0
    else:
        m = 10
        src = rng.integers(0, f, m)
        extra = factors[:, src] + xi * rng.standard_normal((n_obs, m))
        omega_extra = np.zeros((m, f + 1))
        omega_extra[:, f] = 1.0

    new = np.column_stack([old, extra])
    omega_new = np.vstack(
        [np.column_stack([omega_old, np.zeros((n_old, 1))]), omega_extra]
    )
    times = [f"t{s:02d}" for s in range(n_obs)]
    p_old = pm.AlphaPanel(
        labels=[f"a{i}" for i in range(n_old)], times=times, values=old
    )
    p_new = pm.AlphaPanel(
        labels=[f"a{i}" for i in range(n_old)] + [f"b{i}" for i in range(m)],
        times=times,
        values=new,
    )
    return p_old, omega_old, p_new, omega_new


def test_08_ftest():
    # single-time hand oracle: y = 1..6 in clusters {1,2,3}, {4,5,6}
    y = np.arange(1.0, 7.0)
    x = np.zeros((6, 2))
    x[:3, 0] = 1.0
    x[3:, 1] = 1.0
    hand_err = abs(reference.through_origin_fstat(y, x) - 43.5)
    assert hand_err < 1e-10

    true_new = sum(
        cl.new_cluster_ftest(*_ftest_fixture(seed, "new_factor")).verdict
        for seed in range(100)
    )
    false_rep = sum(
        not cl.new_cluster_ftest(*_ftest_fixture(seed, "replicated")).verdict
        for seed in range(100)
    )
    assert true_new >= 95
    assert false_rep >= 95
    print(
        f"\nACCEPT 08 PASS F-test: hand oracle err {hand_err:.3e} (tol 1e-10); "
        f"new-factor verdict true {true_new}/100, replicated verdict false "
        f"{false_rep}/100 (need >= 95 each)"
    )


def test_09_deformation():
    out = pm.deform_correlation(make_corr(np.ones((3, 3))))
    ident_err = np.max(np.abs(out.psi - np.eye(3)))
    assert ident_err < 1e-12

    worst_idem = 0.0
    min_lambda = np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k + 2, 15))
        a = rng.standard_normal((k, n))  # rank k < n: singular correlation
        psi = np.corrcoef(a.T @ a + 1e-6 * np.eye(n))
        psi = (psi + psi.T) / 2.0
        np.fill_diagonal(psi, 1.0)
        once = pm.deform_correlation(make_corr(psi))
        w = np.linalg.eigvalsh(once.psi)
        min_lambda = min(min_lambda, w[0])
        twice = pm.deform_correlation(once)
        worst_idem = max(worst_idem, np.max(np.abs(twice.psi - once.psi)))
        assert np.max(np.abs(np.diag(once.psi) - 1.0)) == 0.0
    assert min_lambda > 0
    assert worst_idem < 1e-10
    print(
        f"\nACCEPT 09 PASS deformation: all-ones err {ident_err:.3e} (tol 1e-12), "
        f"idempotence err {worst_idem:.3e} (tol 1e-10), min lambda {min_lambda:.3e} > 0"
    )


def test_10_round_trip():
    config = sy.SynthConfig(
        seed=0, n_alphas=40, n_clusters=5, n_obs=10_000,
        phi_range=(0.7, 1.5), xi_range=(0.3, 0.8), factor_rho=0.2,
    )
    model = sy.gen_model(config)
    truth = sp.spectral_summary(fm.build_covariance(model)).rho_star
    estimates = []
    for s in range(50):
        panel = sy.gen_panel(model, 10_000, 7000 + s)
        corr = pm.pairwise_correlation(panel, min_overlap=2)
        if not corr.psd:
            corr = pm.deform_correlation(corr)
        estimates.append(sp.spectral_summary(pm.canonicalize_signs(corr)[1]).rho_star)
    estimates = np.asarray(estimates)
    sd = estimates.std(ddof=1)
    hits = int(np.sum(np.abs(estimates - truth) <= 3.0 * sd))
    assert hits >= 45
    print(
        f"\nACCEPT 10 PASS round trip: {hits}/50 seeds within 3 MC standard "
        f"errors (need >= 45); truth {truth:.6f}, sd {sd:.2e}"
    )
