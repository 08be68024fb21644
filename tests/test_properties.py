"""Property tests: panels and correlation matrices round trip through save
and load bit for bit, format_csv writes what a per-cell "%.17g" loop
writes, secular_roots sum to N and interlace their poles, and sign
canonicalization keeps psi1 and rho_star, with or without a cached
spectrum."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alphaturn import factor_model as fm
from alphaturn import panel as pm
from alphaturn import spectral as sp

# values a 17-digit round trip must keep exactly, drawn more often than
# st.floats alone would draw them
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
         1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)
unit = st.floats(-1.0, 1.0) | st.sampled_from([-0.0, 5e-324, -5e-324, -1.0, 1.0])


def assert_same_bits(got, want):
    """Equal NaN masks, and bit-identical values elsewhere (so -0.0 != 0.0)."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@st.composite
def panels(draw):
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 4))
    values = draw(hnp.arrays(float, (m, n), elements=finite))
    missing = draw(hnp.arrays(bool, (m, n)))
    missing[:2] = False  # every column keeps the two observations it needs
    values[missing] = np.nan
    return pm.AlphaPanel(labels=[f"a{j}" for j in range(n)],
                         times=[str(t) for t in range(m)], values=values)


@st.composite
def correlations(draw):
    n = draw(st.integers(2, 5))
    upper = np.triu_indices(n, 1)
    psi = np.eye(n)
    psi[upper] = draw(hnp.arrays(float, len(upper[0]), elements=unit))
    psi.T[upper] = psi[upper]
    return pm.CorrelationMatrix(psi=psi, vols=np.ones(n))


@given(panel=panels())
def test_panel_roundtrip_is_bit_exact(tmp_path_factory, panel):
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    pm.save_panel(panel, path)
    back = pm.load_panel(path)
    assert back.labels == panel.labels and back.times == panel.times
    assert_same_bits(back.values, panel.values)


@given(corr=correlations())
def test_correlation_roundtrip_is_bit_exact(tmp_path_factory, corr):
    path = tmp_path_factory.mktemp("corr") / "corr.csv"
    pm.save_correlation(corr, path)
    back = pm.load_correlation(path)
    assert back.labels == corr.labels
    assert_same_bits(back.psi, corr.psi)


def reference_csv(header, values, labels):
    lines = [",".join(header)]
    for i, row in enumerate(values):
        cells = ["" if np.isnan(v) else "%.17g" % v for v in row]
        lines.append(",".join(cells if labels is None else [str(labels[i])] + cells))
    return "\n".join(lines) + "\n"


@given(values=hnp.arrays(float, st.tuples(st.integers(0, 5), st.integers(1, 4))),
       labelled=st.booleans())
def test_format_csv_matches_per_cell_loop(values, labelled):
    header = ["key"] + [f"c{j}" for j in range(values.shape[1])]
    labels = list(range(values.shape[0])) if labelled else None
    assert pm.format_csv(header, values, labels) == reference_csv(header, values, labels)


# sizes small enough to tie often, or large and nearly equal, so that the
# poles (1 - rho) N_C sit closer than 1e-13 of their gap can resolve
cluster_sizes = st.lists(st.integers(1, 12) | st.integers(9990, 10010), min_size=1, max_size=8)
# rho in (0, 1), with the extremes where a root lies within an ulp of a pole
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(
    [5e-324, 1e-20, 1e-14, 1e-12, 1.0 - 2.0**-53])


@given(sizes=cluster_sizes, rho=open_unit)
def test_secular_roots_sum_to_n_and_interlace_the_poles(sizes, rho):
    """Ascending, the roots are: m - 1 copies of each pole of multiplicity
    m, then one root strictly between that pole and the next (above the
    largest pole, at most N)."""
    n = sum(sizes)
    roots = np.sort(fm.secular_roots(sizes, rho))
    assert len(roots) == len(sizes)
    assert abs(roots.sum() - n) <= 1e-9 * n
    uniq, counts = np.unique(sizes, return_counts=True)
    poles = (1.0 - rho) * uniq
    pos = 0
    for k, (pole, m) in enumerate(zip(poles, counts)):
        assert np.all(roots[pos:pos + m - 1] == pole)
        root = roots[pos + m - 1]
        if k + 1 < len(poles):
            assert pole < root < poles[k + 1]
        else:
            # one cluster: the root is N itself, which a tiny rho rounds onto its pole
            assert pole < root or (len(sizes) == 1 and root == n)
            assert root <= n * (1.0 + 1e-9)
        pos += m


@st.composite
def factor_correlations(draw):
    """Sample correlation of a one-factor panel whose loadings have random
    signs, so that canonicalization flips some alphas."""
    n, m = draw(st.integers(2, 24)), draw(st.integers(30, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loadings = draw(st.floats(0.3, 2.0)) * rng.choice([-1.0, 1.0], n)
    x = rng.standard_normal((m, 1)) * loadings + rng.standard_normal((m, n))
    psi = np.corrcoef(x.T)
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    return psi


@given(psi=factor_correlations(), cached=st.booleans())
def test_canonicalize_signs_keeps_psi1_and_rho_star(psi, cached):
    """S Psi S has Psi's eigenvalues; its rho_star is the same whether its
    spectrum is carried over from Psi or computed afresh; and a second
    canonicalization flips nothing."""
    psi1 = np.linalg.eigvalsh(psi)[-1]
    corr = pm.CorrelationMatrix(psi=psi, vols=np.ones(len(psi)))
    if cached:
        corr.spectrum
    _, canon = pm.canonicalize_signs(corr)
    assert (canon._spectrum is not None) == cached
    summary = sp.spectral_summary(canon)
    assert summary.psi1 == pytest.approx(psi1, rel=1e-12)

    fresh = pm.CorrelationMatrix(psi=canon.psi, vols=canon.vols)
    fresh_summary = sp.spectral_summary(fresh, canonicalize=True)
    assert fresh_summary.psi1 == pytest.approx(summary.psi1, rel=1e-12)
    assert fresh_summary.rho_star == pytest.approx(summary.rho_star, rel=1e-10, abs=1e-14)

    signs, again = pm.canonicalize_signs(canon)
    assert np.all(signs.signs == 1.0)
    np.testing.assert_array_equal(again.psi, canon.psi)
    assert sp.spectral_summary(again).rho_star == pytest.approx(summary.rho_star,
                                                                rel=1e-10, abs=1e-14)
