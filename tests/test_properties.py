"""Property tests: panels and correlation matrices round trip through save
and load bit for bit, format_csv writes what a per-cell "%.17g" loop
writes, secular_roots sum to N, interlace their poles and match a 60-digit
root, sign canonicalization keeps psi1 and rho_star, with or without a
cached spectrum, the top pair and the top k pairs without a spectrum are
eigh's, the Cholesky PSD verdict is the spectrum rule's near the noise
floor, the packed residual sweep is the N x N one bit for bit,
build_covariance gives the bits of its first formula, the dense model
path gives what eigh of the assembled matrix gives, with a binary model's
repeated alphas deflated too, a deflated block gathered from Phi gives
what one read from the assembled matrix gives, the reduced model solvers
give eigh's rho_star at a tied top, the model-document check
reports what jsonschema reports, _cluster_xi gives what a per-cluster loop
gives, a binary model solves as the closed form of its ClusterSpec, the
F-test's cluster-mean F-statistics give what one least-squares
fit per time step gives, and the np.loadtxt panel and correlation loaders
read any file as csv.reader and a per-cell float() loop read it."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alphaturn import clusters as cl
from alphaturn import eigen
from alphaturn import factor_model as fm
from alphaturn import panel as pm
from alphaturn import spectral as sp
from alphaturn.errors import ValidationError

import reference

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
    return pm.CorrelationMatrix(psi=psi)


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


def csv_reader_load_panel(path, na_policy):
    """load_panel as csv.reader and a per-cell float() loop read it, the
    reference for the np.loadtxt reading (for files with a data row)."""
    rows = pm.read_csv(path, "panel")
    if not rows or len(rows[0]) < 3 or rows[0][0] != "time":
        raise ValidationError(f"{path}: header must be 'time,<label1>,...,<labelN>'")
    labels = rows[0][1:]
    times = []
    data = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(labels) + 1:
            raise ValidationError(
                f"{path}: row {r} has {len(row)} fields, expected {len(labels) + 1}"
            )
        times.append(row[0])
        vals = []
        for c, cell in enumerate(row[1:], start=2):
            cell = cell.strip()
            if cell == "" or (na_policy == "literal_NA" and cell == "NA"):
                vals.append(np.nan)
            else:
                try:
                    value = float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: row {r}, column {c}: cannot parse {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValidationError(
                        f"{path}: row {r}, column {c}: non-finite value {cell!r}"
                    )
                vals.append(value)
        data.append(vals)
    return pm.AlphaPanel(labels=labels, times=times, values=np.array(data))


def csv_reader_load_correlation(path):
    """load_correlation as csv.reader and a per-cell float() loop read it."""
    rows = pm.read_csv(path, "correlation")
    if len(rows) < 3:
        raise ValidationError(f"{path}: expected at least a 2x2 matrix")
    labels = rows[0][1:]
    n = len(labels)
    if len(rows) != n + 1:
        raise ValidationError(f"{path}: expected {n} matrix rows, got {len(rows) - 1}")
    psi = np.empty((n, n))
    for r, row in enumerate(rows[1:]):
        if len(row) != n + 1 or row[0] != labels[r]:
            raise ValidationError(f"{path}: row {r + 2} does not match header labels")
        try:
            psi[r] = [float(c) for c in row[1:]]
        except ValueError:
            for c, cell in enumerate(row[1:], start=2):
                try:
                    float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: row {r + 2}, column {c}: cannot parse {cell!r}"
                    ) from None
    bad = np.argwhere(~np.isfinite(psi))
    if bad.size:
        r, c = bad[0]
        raise ValidationError(
            f"{path}: row {r + 2}, column {c + 2}: non-finite value {float(psi[r, c])}"
        )
    for k in range(n):
        if abs(psi[k, k] - 1.0) > 1e-12:
            raise ValidationError(f"{path}: row {k + 2}, column {k + 2}: diagonal value "
                                  f"{float(psi[k, k])!r} is not 1 (to 1e-12)")
    for r, c in np.ndindex(n, n):
        if abs(psi[r, c]) > 1.0 + 1e-12:
            raise ValidationError(f"{path}: row {r + 2}, column {c + 2}: correlation "
                                  f"{float(psi[r, c])!r} lies outside [-1, 1]")
    asym = np.abs(psi - psi.T)
    i, j = np.unravel_index(np.argmax(asym), asym.shape)
    if asym[i, j] > 1e-12:
        raise ValidationError(
            f"{path}: matrix is not symmetric: ({labels[i]}, {labels[j]}) is "
            f"{float(psi[i, j])!r} but ({labels[j]}, {labels[i]}) is {float(psi[j, i])!r}"
        )
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    return pm.CorrelationMatrix(psi=psi, labels=labels)


def outcome(load, *args):
    """What a loader returns, or the message of the ValidationError it raises."""
    try:
        return load(*args)
    except ValidationError as exc:
        return str(exc)


def assert_same_outcome(got, want, fields):
    """Equal messages, or equal `fields` (label lists or float arrays)."""
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    for name in fields:
        if isinstance(getattr(want, name), np.ndarray):
            assert_same_bits(getattr(got, name), getattr(want, name))
        else:
            assert getattr(got, name) == getattr(want, name)


# how a cell may spell a number: 17 significant digits, repr, padded with
# blanks, quoted
NUMBER_TEXT = [lambda v: "%.17g" % v, repr, lambda v: f" {v!r}\t", lambda v: f'"{v!r}"',
               lambda v: f'" {v:.17g} "']
# how a missing cell may be spelt; NA is missing only under literal_NA. The
# loaders read the spellings after the first two, and quoted labels, cell by
# cell, so most files use neither.
MISSING_TEXT = ["", "NA", " ", " NA", '""', '"NA"']
# cell text that may or may not parse, quotes and commas included
ODD_TEXT = st.text(alphabet='0123456789.eE+-_ \t"naifNAx,\u0661', max_size=6)


def spell(draw, value, rare, odd):
    """Cell text for `value` (NaN: a missing cell); the rare spellings only
    when `rare`, and one cell in ten of arbitrary text when `odd`."""
    if odd and draw(st.integers(0, 9)) == 0:
        return draw(ODD_TEXT)
    if np.isnan(value):
        return draw(st.sampled_from(MISSING_TEXT if rare else MISSING_TEXT[:2]))
    return draw(st.sampled_from(NUMBER_TEXT))(float(value))


def csv_text(draw, lines, rare):
    """The CSV text of `lines` (lists of cells), with \\n or \\r\\n line
    ends and, when `rare`, some first cells quoted."""
    if rare:
        lines = [[f'"{line[0]}"' if draw(st.booleans()) else line[0], *line[1:]]
                 for line in lines]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(",".join(line) for line in lines) + end


@st.composite
def panel_texts(draw, odd):
    """Text of a panel CSV with 1-6 rows of 2-4 alphas, where some cells
    past the first two rows are missing; on request, also cells of
    arbitrary text."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    values = draw(hnp.arrays(float, (m, n), elements=finite))
    missing = draw(hnp.arrays(bool, (m, n), elements=st.sampled_from([False] * 3 + [True])))
    missing[:2] = False
    values[missing] = np.nan
    rare = draw(st.integers(0, 4)) == 0
    lines = [["time", *(f"a{j}" for j in range(n))]]
    lines += [[str(t), *(spell(draw, v, rare, odd) for v in row)] for t, row in enumerate(values)]
    return csv_text(draw, lines, rare)


@st.composite
def correlation_texts(draw, odd):
    """Text of a symmetric 2-5 x 2-5 correlation CSV, perhaps with one
    off-diagonal cell of any finite value and one diagonal cell near 1 or
    of any finite value; on request, also cells of arbitrary text."""
    psi = draw(correlations()).psi
    if draw(st.booleans()):
        psi[0, -1] = draw(finite)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(psi) - 1))
        psi[k, k] = draw(st.sampled_from([1 + 5e-13, 1 - 5e-13, 1 + 2e-12]) | finite)
    rare = draw(st.integers(0, 4)) == 0
    labels = [f"c{j}" for j in range(len(psi))]
    lines = [["", *labels]]
    lines += [[label, *(spell(draw, v, rare, odd) for v in row)]
              for label, row in zip(labels, psi)]
    return csv_text(draw, lines, rare)


@given(text=panel_texts(odd=False), na_policy=st.sampled_from(["empty_cell", "literal_NA"]))
@example(text='time,a,b\n0,-0.0,5e-324\n1," 1e308 ",-1.7976931348623157e+308\n',
         na_policy="empty_cell")
def test_load_panel_matches_csv_reader(tmp_path_factory, text, na_policy):
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    path.write_bytes(text.encode())
    assert_same_outcome(outcome(pm.load_panel, path, na_policy),
                        outcome(csv_reader_load_panel, path, na_policy),
                        ["labels", "times", "values"])


@given(text=correlation_texts(odd=False))
def test_load_correlation_matches_csv_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("corr") / "corr.csv"
    path.write_bytes(text.encode())
    assert_same_outcome(outcome(pm.load_correlation, path),
                        outcome(csv_reader_load_correlation, path), ["labels", "psi"])


@settings(max_examples=150)
@given(panel=panel_texts(odd=True), corr=correlation_texts(odd=True),
       na_policy=st.sampled_from(["empty_cell", "literal_NA"]))
def test_loaders_match_csv_reader_on_arbitrary_cells(tmp_path_factory, panel, corr, na_policy):
    path = tmp_path_factory.mktemp("odd") / "in.csv"
    path.write_bytes(panel.encode())
    assert_same_outcome(outcome(pm.load_panel, path, na_policy),
                        outcome(csv_reader_load_panel, path, na_policy),
                        ["labels", "times", "values"])
    path.write_bytes(corr.encode())
    assert_same_outcome(outcome(pm.load_correlation, path),
                        outcome(csv_reader_load_correlation, path), ["labels", "psi"])


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
    """S Psi S has Psi's eigenvalues and carries no spectrum, whether or not
    Psi's was computed; its rho_star is the same as a fresh copy's; and a
    second canonicalization flips nothing."""
    psi1 = np.linalg.eigvalsh(psi)[-1]
    corr = pm.CorrelationMatrix(psi=psi)
    if cached:
        corr.spectrum
    _, canon = pm.canonicalize_signs(corr)
    assert canon._spectrum is None
    summary = sp.spectral_summary(canon)
    assert summary.psi1 == pytest.approx(psi1, rel=1e-12)

    fresh = pm.CorrelationMatrix(psi=canon.psi)
    fresh_summary = sp.spectral_summary(pm.canonicalize_signs(fresh)[1])
    assert fresh_summary.psi1 == pytest.approx(summary.psi1, rel=1e-12)
    assert fresh_summary.rho_star == pytest.approx(summary.rho_star, rel=1e-10, abs=1e-14)

    signs, again = pm.canonicalize_signs(canon)
    assert np.all(signs == 1.0)
    np.testing.assert_array_equal(again.psi, canon.psi)
    assert sp.spectral_summary(again).rho_star == pytest.approx(summary.rho_star,
                                                                rel=1e-10, abs=1e-14)


@st.composite
def top_pair_correlations(draw):
    """Correlation matrices for each path of CorrelationMatrix.top_pair: the
    sample correlation of a one-factor panel (the block iteration), equal
    blocks (a tied top), two blocks whose top eigenvalues differ by a tiny
    relative gap, each with random signs, and [[A, -A/2], [-A/2, A]], whose
    top eigenvector is orthogonal to the uniform start vector."""
    kind = draw(st.sampled_from(["factor", "equal_blocks", "tiny_gap", "orthogonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def factor_corr(n):
        m = draw(st.integers(20, 300))
        loadings = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
        x = rng.standard_normal((m, 1)) * loadings + rng.standard_normal((m, n))
        return np.corrcoef(x.T)

    if kind == "factor":
        psi = factor_corr(draw(st.integers(2, 120)))
    elif kind == "orthogonal":
        a = factor_corr(draw(st.integers(2, 60)))
        psi = np.block([[a, -0.5 * a], [-0.5 * a, a]])
    else:
        size, f = draw(st.integers(2, 20)), draw(st.integers(2, 5))
        rho = np.full(f, draw(st.floats(0.1, 0.9)))
        if kind == "tiny_gap":
            rho[0] *= 1.0 + draw(st.sampled_from([1e-9, 1e-7, 1e-5]))
        psi = np.kron(np.diag(rho), np.ones((size, size)))
        signs = rng.choice([-1.0, 1.0], size * f)
        psi *= np.outer(signs, signs)
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    return psi


@given(psi=top_pair_correlations())
def test_top_pair_without_spectrum_matches_eigh(psi):
    """Without a spectrum (the block iteration, or the spectrum where it
    declines), top_pair gives eigh's top pair under the tie rule."""
    psi1, v1 = pm.CorrelationMatrix(psi=psi).top_pair()
    want1, want_v = eigen.top_eigenvector(*np.linalg.eigh(psi))
    assert psi1 == pytest.approx(want1, rel=1e-12)
    if abs(want_v.sum()) < 1e-8:
        # V1 orthogonal to the uniform vector: rounding picks its sign
        v1 = v1 * np.sign(v1 @ want_v)
    np.testing.assert_allclose(v1, want_v, rtol=0, atol=1e-10)


@st.composite
def spectrum_tops(draw):
    """Correlation matrices of 160 to 240 alphas, wide enough for a block
    at k = 10, whose tops are clustered (the sample correlation of a
    cluster panel, rank-deficient where it has fewer observations than
    alphas), flat (pure noise), tied (equal blocks) or near-tied (one
    block's correlation raised by a relative 1e-12 to 1e-3), each with
    random signs."""
    kind = draw(st.sampled_from(["clustered", "flat", "tied", "near_tied"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(160, 240))
    if kind in ("clustered", "flat"):
        f = draw(st.integers(2, 12)) if kind == "clustered" else 1
        m = draw(st.integers(n // 2, 3 * n))
        asg = rng.integers(0, f, n)
        loadings = rng.uniform(0.5, 2.0, n) if kind == "clustered" else np.zeros(n)
        x = rng.standard_normal((m, f))[:, asg] * loadings + rng.standard_normal((m, n))
        psi = np.corrcoef(x.T)
    else:
        size = draw(st.integers(10, 40))
        f = n // size
        rho = np.full(f, draw(st.floats(0.1, 0.9)))
        if kind == "near_tied":
            rho[0] *= 1.0 + draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
        psi = np.eye(n)
        psi[:f * size, :f * size] = np.kron(np.diag(rho), np.ones((size, size)))
    signs = rng.choice([-1.0, 1.0], n)
    psi *= np.outer(signs, signs)
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    return psi


@given(psi=spectrum_tops(), k=st.integers(1, 10))
def test_top_pairs_match_eigh(psi, k):
    """The top k pairs, from top_pairs or, where it declines, from the
    caller's eigh, are eigh's: each value to 1e-13 relative, each vector
    to its Davis-Kahan angle plus eigh's own error, and where a value
    ties (so that no vector is unique) the pairs solve psi."""
    vals, vecs = pm.CorrelationMatrix(psi=psi).top_pairs(k)
    w, v = np.linalg.eigh(psi)
    scale = max(w[-1], 1.0)
    np.testing.assert_allclose(vals, w[:-k - 1:-1], rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(k), rtol=0, atol=1e-12)
    np.testing.assert_allclose(psi @ vecs, vecs * vals, rtol=0, atol=1e-11 * scale)
    for j in range(k):
        others = np.delete(w, len(w) - 1 - j)
        gap = np.min(np.abs(others - w[-1 - j]))
        if gap > 1e-8 * scale:
            want = v[:, -1 - j]
            got = vecs[:, j] * np.sign(vecs[:, j] @ want)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 + 1e-13 * scale / gap)


@st.composite
def near_floor_correlations(draw):
    """Correlation matrices whose smallest eigenvalue lies within a
    relative 1e-3, or an absolute 1e-3, of the noise floor: m I + (1 - m) C
    for the rank-deficient sample correlation C of fewer observations than
    alphas, whose smallest eigenvalue is 0 to rounding; and C itself."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((draw(st.integers(2, n)), 1)) * rng.uniform(0.0, 1.0, n)
    c = np.corrcoef((x + rng.standard_normal(x.shape)).T)
    psi1 = np.linalg.eigvalsh(c)[-1]
    kind = draw(st.sampled_from(["relative", "absolute", "singular"]))
    offset = draw(st.floats(-1e-3, 1e-3))
    floor = eigen.PSD_TOL * max(psi1, 1.0)
    shift = {"relative": floor * (1.0 + offset), "absolute": floor + offset,
             "singular": 0.0}[kind]
    psi = shift * np.eye(n) + (1.0 - shift) * c
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    assume(np.max(np.abs(psi)) <= 1.0)
    return psi


@given(psi=near_floor_correlations())
def test_psd_cholesky_verdict_is_the_spectrum_rule(psi):
    """Without a cached spectrum, psd (a Cholesky, and eigh only where it
    cannot decide) gives what the PSD rule gives on eigh's eigenvalues."""
    assert pm.CorrelationMatrix(psi=psi).psd == eigen.is_positive_definite(
        np.linalg.eigh(psi)[0])


@given(psi=factor_correlations(), data=st.data())
def test_packed_sweep_matches_square_downdate(psi, data):
    """Downdating the packed upper triangle gives, bit for bit, what
    downdating the N x N matrix gives, skipped steps included."""
    k_max = data.draw(st.integers(1, len(psi) - 1))
    got = cl.residual_correlation_sweep(pm.CorrelationMatrix(psi), k_max)
    want = reference.residual_correlation_sweep(
        pm.CorrelationMatrix(psi.copy()), k_max)
    assert (got.ks, got.skipped, got.rank_used) == (want.ks, want.skipped, want.rank_used)
    assert_same_bits(np.array(got.zeta1), np.array(want.zeta1))
    assert_same_bits(np.array(got.zeta2), np.array(want.zeta2))


def mp_gap_roots(sizes, rho):
    """The root of the secular equation in each gap between distinct poles
    (and above the largest), bisected to 150 bits, or to the pole where
    the root lies closer to it, in 60-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    uniq, counts = np.unique(sizes, return_counts=True)
    roots = []
    with mpmath.workdps(60):
        rho = mpmath.mpf(rho)
        poles = [(1 - rho) * int(u) for u in uniq]
        weights = [int(c) * int(u) for c, u in zip(counts, uniq)]
        for lo, hi in zip(poles, poles[1:] + [sum(sizes) * (1 + rho)]):
            for _ in range(150):
                mid = (lo + hi) / 2
                if mid in (lo, hi):  # a root within 60 digits of its pole
                    break
                if rho * mpmath.fsum(w / (mid - p) for w, p in zip(weights, poles)) > 1:
                    lo = mid
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
    return roots


@given(sizes=cluster_sizes, rho=open_unit)
def test_secular_roots_match_60_digit_roots(sizes, rho):
    """Each gap's root is within 1e-15 relative of its 60-digit value; the
    m - 1 copies of a pole of multiplicity m are pinned and skipped."""
    want = mp_gap_roots(sizes, rho)
    roots = np.sort(fm.secular_roots(sizes, rho))
    if len(sizes) == 1:
        assert roots[0] == sum(sizes)
        return
    got = roots[np.cumsum(np.unique(sizes, return_counts=True)[1]) - 1]
    for g, w in zip(got, want):
        assert float(abs(g - w) / w) <= 1e-15


# scalars at the edges of the schema's type and minimum rules
json_scalars = st.sampled_from([1, 2, 10**20, 0, -1, 1.0, 2.0, 0.0, -0.0, 0.5, -0.5,
                                float("nan"), float("inf"), -float("inf"), True, False,
                                None, "a", ""]) | st.floats(-3.0, 3.0)
json_values = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                           max_leaves=6)


def weighted(*pairs):
    """Draws from each (weight, strategy) with probability in proportion to
    its weight."""
    return st.sampled_from([s for w, s in pairs for _ in range(w)]).flatmap(lambda s: s)


# arrays whose items are mostly valid, so that the first violation can lie
# at any index, and rows of them for omega
arrays = st.lists(weighted((4, st.sampled_from([1, 2, 3, 1.0, 2.0, 10**20])),
                           (1, st.sampled_from([True, False, 0, -1, 0.0, -0.0, 0.5, -0.5])),
                           (1, json_scalars)), max_size=4)
fields = weighted((2, arrays), (2, st.lists(arrays, max_size=3)), (1, json_values))
# valid values, so that a violation can also lie under a later key
valid_fields = {
    "sizes": st.lists(st.integers(1, 3), max_size=3),
    "assignment": st.lists(st.integers(1, 3), max_size=3),
    "xi": st.lists(st.floats(0.0, 2.0), max_size=3),
    "omega": st.lists(st.lists(st.floats(-2.0, 2.0), max_size=2), max_size=3),
    "other": json_values,
}
model_docs = weighted(
    (7, st.fixed_dictionaries(
        {"mode": weighted((3, st.sampled_from(["binary", "dense"])), (1, json_scalars)),
         "phi": fields},
        optional={key: weighted((2, valid), (1, fields)) for key, valid in valid_fields.items()})),
    # mostly a required key missing
    (2, st.dictionaries(st.sampled_from(["mode", "phi", *valid_fields]), fields)),
    (1, json_values),  # mostly not an object
)


@settings(max_examples=300)
@given(doc=model_docs)
# the type rules: 1.0 is an integer, and a bool is neither an integer nor a number
@example(doc={"mode": "binary", "phi": [], "sizes": [1.0, 2, True], "assignment": [0.0]})
@example(doc={"mode": "dense", "phi": [], "xi": [0, 1.5, False], "omega": [[1], [-0.0, True]]})
# NaN is a number, neither below a minimum nor above a maximum
@example(doc={"mode": "dense", "omega": [[1], [2]], "phi": [1], "xi": [float("nan"), 1]})
def test_schema_violation_matches_jsonschema(doc):
    """Accept/reject, the pointer and the message of the first violation in
    pointer order all agree with jsonschema's Draft7Validator."""
    jsonschema = pytest.importorskip("jsonschema")
    errors = sorted(jsonschema.Draft7Validator(fm.MODEL_SCHEMA).iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    want = None
    if errors:
        want = ("/" + "/".join(map(str, errors[0].absolute_path)), errors[0].message)
    assert fm._schema_violation(doc) == want


@st.composite
def dense_path_models(draw):
    """Models that model_eigenstructure sends to the dense path: dense
    loadings with specific risk, or binary ones whose specific risk varies
    within a cluster. The factor covariance has positive entries, as for
    sign-canonicalized alphas, so V1 is positive and rho_star is not a
    cancelling sum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = draw(st.integers(1, 6))
    n = draw(st.integers(f + 1, 40))
    b = rng.uniform(0.0, 1.0, (f, f)) + np.eye(f)
    phi = b @ b.T
    xi = rng.uniform(0.1, 1.0, n)
    if draw(st.booleans()):
        return fm.FactorModel(omega=rng.uniform(0.1, 1.0, (n, f)), phi_cov=phi, xi=xi)
    # n > f alphas in f clusters, each used: some cluster has two, with distinct xi
    assignment = rng.permutation(np.concatenate([np.arange(1, f + 1),
                                                 rng.integers(1, f + 1, n - f)]))
    return fm.FactorModel(assignment=assignment, phi_cov=phi, xi=xi)


@settings(deadline=None)
@given(model=dense_path_models())
def test_dense_path_matches_eigh(model):
    """Eigenvalues from eigvalsh and rho_star from the power-iterated top
    eigenvector agree with eigh of the assembled matrix, spectral_summary's
    reference."""
    structure, method = fm.model_eigenstructure(model)
    assert method == "dense"
    corr = fm.build_covariance(model)
    want = sp.spectral_summary(corr)
    w = corr.spectrum[0]
    np.testing.assert_allclose(structure.eigenvalues(), w[::-1], rtol=0,
                               atol=1e-12 * max(w[-1], 1.0))
    assert structure.rho_star == pytest.approx(want.rho_star, rel=1e-12, abs=0)
    assert fm.dense_rho_star(model).rho_star == structure.rho_star


def tied_top_model():
    """Two equal clusters of three alphas with equal specific risk, given as
    dense loadings: the top eigenvalue is double."""
    return fm.FactorModel(omega=fm.binary_loadings([1, 1, 1, 2, 2, 2], 2),
                          phi_cov=np.eye(2), xi=np.full(6, 0.5))


def cancelling_model():
    """Loadings near 1e3 on two factors with correlation -1 + 1e-8: the
    assembled Omega Phi Omega^T and the factored (Omega L)(Omega L)^T agree
    to about 1e-8 only."""
    rng = np.random.default_rng(0)
    a = rng.uniform(1.0, 2.0, 12) * 1e3
    omega = np.column_stack([a, a + rng.uniform(0.0, 1e-3, 12)])
    r = -1.0 + 1e-8
    return fm.FactorModel(omega=omega, phi_cov=np.array([[1.0, r], [r, 1.0]]),
                          xi=rng.uniform(0.5, 1.0, 12))


@pytest.mark.parametrize("model", [tied_top_model(), cancelling_model()],
                         ids=["tied-top", "cancelling"])
def test_dense_path_matches_eigh_at_hard_cases(model):
    # the dense path takes the cancelling model's top pair from the block
    # iteration on its eigenvalues, and spectral_summary of the bare matrix
    # (12 alphas, too few for a block without them) from eigh: they agree
    # to rounding, not bit for bit
    corr = fm.build_covariance(model)
    structure, method = fm.model_eigenstructure(model)
    assert method == "dense"
    assert structure.rho_star == pytest.approx(sp.spectral_summary(corr).rho_star, rel=1e-12,
                                               abs=0)


def near_tied_model():
    """Two clusters of 500 alphas with factor variances 1 and 1.02 and
    specific risk drawn per alpha from [0.1, 0.2]: the top two eigenvalues
    differ by 0.13%, so a single vector would shrink its error by only
    0.997 per step; a block of 8 spans both clusters."""
    xi = np.random.default_rng(0).uniform(0.1, 0.2, 1000)
    return fm.FactorModel(assignment=np.repeat([1, 2], 500), phi_cov=np.diag([1.0, 1.02]),
                          xi=xi)


def tied_top_distinct_model():
    """Two clusters on separate factors, each with xi 0.4, 0.5 and 0.6, given
    as dense loadings: no two alphas repeat, and the top eigenvalue is
    double."""
    return fm.FactorModel(omega=fm.binary_loadings([1, 1, 1, 2, 2, 2], 2),
                          phi_cov=np.eye(2), xi=np.tile([0.4, 0.5, 0.6], 2))


@st.composite
def repeated_alpha_models(draw):
    """Dense-path models whose alphas fall into fewer groups of repeated
    rows than there are alphas: binary ones with per-cluster specific risk
    and non-diagonal Phi; dense loadings with repeated rows, where some
    copies hold -0.0 for 0.0, which the grouping takes as 0.0; and binary
    ones whose two largest clusters tie at the top, above two single
    alphas with correlated factors."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["binary", "dense", "tied"]))
    if kind == "tied":
        k = draw(st.integers(3, 6))
        r = rng.uniform(-0.9, 0.9)
        phi = np.eye(4)
        phi[2, 3] = phi[3, 2] = r
        xi = np.repeat([rng.uniform(0.1, 0.8), rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)],
                       [2 * k, 1, 1])
        return fm.FactorModel(assignment=np.repeat([1, 2, 3, 4], [k, k, 1, 1]), phi_cov=phi,
                              xi=xi)
    f = draw(st.integers(2 if kind == "binary" else 1, 6))
    b = rng.uniform(0.0, 1.0, (f, f)) + np.eye(f)
    phi = b @ b.T
    groups = f if kind == "binary" else draw(st.integers(1, 8))
    counts = rng.integers(1, 6, groups)
    counts[0] = max(counts[0], 2)
    member = rng.permutation(np.repeat(np.arange(groups), counts))
    xi = rng.uniform(0.1, 1.0, groups)[member]
    if kind == "binary":
        return fm.FactorModel(assignment=member + 1, phi_cov=phi, xi=xi)
    rows = rng.uniform(0.1, 1.0, (groups, f))
    rows[rng.random((groups, f)) < 0.3] = 0.0
    omega = rows[member]
    signed = rng.random(len(member)) < 0.5
    omega[signed[:, None] & (omega == 0.0)] = -0.0
    return fm.FactorModel(omega=omega, phi_cov=phi, xi=xi)


@settings(deadline=None)
@given(model=repeated_alpha_models())
@example(model=tied_top_model())
def test_deflated_dense_path_matches_eigh(model):
    """Eigenvalues deflated to one per group of a binary model's repeated
    alphas, plus each group's repeated within-group value, agree with eigh
    of the assembled matrix, and so does rho_star, at a tied top too; dense
    loadings with repeated rows are not deflated and agree as well."""
    corr = fm.build_covariance(model)
    assert (fm.deflated_eigenvalues(model) is not None) == (model.mode == "binary")
    structure, method = fm.model_eigenstructure(model)
    assert method == "dense"
    want = sp.spectral_summary(corr)
    w = corr.spectrum[0]
    np.testing.assert_allclose(structure.eigenvalues(), w[::-1], rtol=0,
                               atol=1e-12 * max(w[-1], 1.0))
    assert structure.rho_star == pytest.approx(want.rho_star, rel=1e-12, abs=0)
    assert fm.dense_rho_star(model).rho_star == structure.rho_star


@st.composite
def binary_models(draw):
    """Binary models with xi per cluster (G < N groups of repeated alphas) or
    per alpha (G = N, mostly), some of it -0.0; a Phi with -0.0 or 0.0
    off-diagonal entries on either side and asymmetric within 1e-12; and
    tied tops: equal clusters with equal phi and xi."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = draw(st.integers(1, 6))
    if draw(st.booleans()):
        counts = np.full(f, draw(st.integers(1, 4)))
        phi = np.eye(f) * rng.uniform(0.5, 2.0)
        xi = np.full(f, rng.choice([0.0, -0.0, rng.uniform(0.1, 3.0)]))
    else:
        counts = rng.integers(1, 6, f)
        # diagonally dominant, so positive definite
        phi = np.triu(rng.uniform(-1.0, 1.0, (f, f)) * (rng.random((f, f)) < 0.7), 1)
        phi = phi + phi.T + np.diag(rng.uniform(f, 2.0 * f, f))
        xi = rng.choice([0.0, -0.0, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0 * f)], f)
    phi += np.triu(rng.uniform(-5e-13, 5e-13, (f, f)) * (phi != 0.0), 1)
    phi[(phi == 0.0) & (rng.random((f, f)) < 0.5)] = -0.0
    assignment = rng.permutation(np.repeat(np.arange(1, f + 1), counts))
    xi = xi[assignment - 1]
    if draw(st.booleans()):
        xi = np.where(rng.random(len(xi)) < 0.5, rng.uniform(0.0, 3.0, len(xi)), xi)
    return fm.FactorModel(assignment=assignment, phi_cov=phi, xi=xi)


@settings(deadline=None)
@given(model=binary_models())
# rows whose squares overflow: xi^2 + Phi_aa is 2e308 unscaled
@example(model=fm.FactorModel.from_doc(
    {"mode": "binary", "sizes": [2, 2], "phi": [[1e308, 5e307], [5e307, 1e308]],
     "xi": [1e154] * 4}))
def test_deflation_from_phi_matches_deflation_from_psi(model):
    """A binary model's G x G block gathered from Phi gives, bit for bit,
    the eigenvalues that the block read from the assembled matrix (and
    checked against it) gives, both from eigh, and neither deflates where
    the other does not."""
    got = fm.deflated_eigenvalues(model)
    want = reference.deflated_eigenvalues(model, fm.build_covariance(model))
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got[0], want)


def test_dense_loadings_not_deflated():
    model = tied_top_model()
    assert reference.deflated_eigenvalues(model, fm.build_covariance(model)) is not None
    assert fm.deflated_eigenvalues(model) is None


@st.composite
def covariance_models(draw):
    """Binary and dense-loadings models whose xi is zero (0.0 or -0.0) or
    drawn per alpha, on a Phi whose off-diagonal entries are negative or
    -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = draw(st.integers(1, 6))
    n = draw(st.integers(f, 30))
    # diagonally dominant, so positive definite; -(0.0) leaves -0.0 entries
    phi = -np.triu(rng.uniform(0.0, 1.0, (f, f)) * (rng.random((f, f)) < 0.7), 1)
    phi = phi + phi.T + np.diag(rng.uniform(f, 2.0 * f, f))
    xi = rng.choice([0.0, -0.0], n) if draw(st.booleans()) else rng.uniform(0.0, 3.0, n)
    if draw(st.booleans()):
        return fm.FactorModel(omega=rng.uniform(-1.0, 1.0, (n, f)), phi_cov=phi, xi=xi)
    assignment = rng.permutation(np.concatenate([np.arange(1, f + 1),
                                                 rng.integers(1, f + 1, n - f)]))
    return fm.FactorModel(assignment=assignment, phi_cov=phi, xi=xi)


@settings(deadline=None)
@given(model=covariance_models())
def test_build_covariance_matches_first_formula_bit_for_bit(model):
    """build_covariance, which adds xi^2 onto the product's diagonal in place,
    gives the bits of the N x N diag(xi^2) + Omega Phi Omega^T it replaced,
    and unit_diagonal leaves the matrix it is given unchanged."""
    assert_same_bits(fm.build_covariance(model).psi, reference.build_covariance(model))
    phi = model.phi_cov.copy()
    pm.unit_diagonal(model.phi_cov)
    assert_same_bits(model.phi_cov, phi)


@st.composite
def tied_reduced_models(draw):
    """Models for the two reduced solvers whose top eigenvalue is tied
    exactly, k copies of one block: binary models with zero specific risk
    on a block-diagonal Phi of k copies of a correlation block of 2-4
    clusters, each copy with the same cluster sizes; and dense loadings
    with zero specific risk, k copies of one loadings block on a
    block-diagonal Phi. A block has positive entries, so each copy's top
    eigenvector is positive and the uniform vector's projection onto the
    top eigenspace is at least 1; or, for binary models, it is
    [[1, -r], [-r, 1]] on two equal clusters, whose top eigenvector sums to
    zero. Every copy's top eigenvalue lies clear of its next one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 4))
    if draw(st.booleans()):
        if draw(st.booleans()):
            m = draw(st.integers(2, 4))
            b = rng.uniform(0.2, 1.0, (m, m)) + np.eye(m)
            block = pm.unit_diagonal(b @ b.T)
            sizes = rng.integers(1, 6, m)
        else:
            r = rng.uniform(0.1, 0.9)
            block = np.array([[1.0, -r], [-r, 1.0]])
            sizes = np.full(2, rng.integers(1, 6))
        w = np.linalg.eigvalsh(block * np.sqrt(np.outer(sizes, sizes)))
        doc = {"mode": "binary", "sizes": np.tile(sizes, k).tolist(),
               "phi": np.kron(np.eye(k), block).tolist()}
    else:
        n = draw(st.integers(2, 6))
        f = draw(st.integers(1, min(n, 3)))
        omega = rng.uniform(0.1, 1.0, (n, f))
        b = rng.uniform(0.0, 1.0, (f, f)) + np.eye(f)
        phi = b @ b.T
        w = np.linalg.eigvalsh(pm.unit_diagonal(omega @ phi @ omega.T))
        doc = {"mode": "dense", "omega": np.kron(np.eye(k), omega).tolist(),
               "phi": np.kron(np.eye(k), phi).tolist()}
    assume(w[-1] - w[-2] > 1e-6 * w[-1])
    return fm.FactorModel.from_doc(doc)


@settings(deadline=None)
@given(model=tied_reduced_models())
@example(model=fm.FactorModel.from_doc(
    {"mode": "binary", "sizes": [1, 1, 1, 1],
     "phi": [[1, 0.5, 0, 0], [0.5, 1, 0, 0], [0, 0, 1, 0.5], [0, 0, 0.5, 1]]}))
@example(model=fm.FactorModel.from_doc(
    {"mode": "dense", "omega": [[1, 0], [1, 0], [0, 1], [0, 1]], "phi": [1, 1]}))
def test_reduced_solvers_apply_the_tie_rule(model):
    """At a tied top, closed-form-nondiagonal and reduced-nonbinary keep their
    method and give the rho_star of the dense oracle, which applies
    eigen.top_eigenvector's tie rule, with top_cluster 1; where the
    uniform vector's projection onto the top eigenspace vanishes, both lie
    below 1e-8 psi1 / N^(3/2)."""
    structure, method = fm.model_eigenstructure(model)
    assert method == ("closed-form-nondiagonal" if model.mode == "binary"
                      else "reduced-nonbinary")
    assert structure.top_cluster == 1
    want = sp.spectral_summary(fm.build_covariance(model))
    floor = 1e-8 * want.psi1 / model.n**1.5
    if want.rho_star > floor:
        assert structure.rho_star == pytest.approx(want.rho_star, rel=1e-12, abs=0)
    else:
        assert structure.rho_star <= floor


@st.composite
def cluster_specs(draw):
    """ClusterSpecs of 1-6 clusters of 1-6 alphas, with phi in [0.5, 2] and
    xi each 0, -0.0 or drawn from [0.1, 3], each paired with the generator
    that drew it, to permute the alphas of the model built from it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = draw(st.integers(1, 6))
    xi = rng.choice([0.0, -0.0, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)], f)
    return fm.ClusterSpec(rng.integers(1, 7, f), rng.uniform(0.5, 2.0, f), xi), rng


@given(drawn=cluster_specs())
def test_model_closed_form_is_its_cluster_spec_closed_form(drawn):
    """model_eigenstructure of a ClusterSpec's model, its alphas in runs or
    permuted (ids and xi together), is closed-form-binary with the
    EigenStructure binary_eigensystem gives the spec."""
    spec, rng = drawn
    want = fm.binary_eigensystem(spec).to_dict()
    model = spec.to_factor_model()
    perm = rng.permutation(model.n)
    shuffled = fm.FactorModel(assignment=model.assignment[perm], phi_cov=model.phi_cov,
                              xi=model.xi[perm])
    for m in (model, shuffled):
        structure, method = fm.model_eigenstructure(m)
        assert method == "closed-form-binary"
        assert structure.to_dict() == want


def loop_cluster_xi(model):
    """The per-cluster loop that _cluster_xi replaced."""
    assignment = model.assignment
    xi = np.zeros(model.f)
    for a in range(model.f):
        vals = model.xi[assignment == a + 1]
        if vals.size:
            if np.ptp(vals) > 1e-12:
                return None
            xi[a] = vals[0]
    return xi


def full_layouts(f, max_size=12):
    """Lists of 1-based cluster ids that use each of f clusters: a
    permutation of 1..f plus extra draws, in any order."""
    return st.lists(st.integers(1, f), max_size=max_size - f).flatmap(
        lambda extra: st.permutations(list(range(1, f + 1)) + extra))


@given(f=st.integers(1, 5), data=st.data())
def test_cluster_xi_matches_per_cluster_loop(f, data):
    """Same xi, or None, as the loop, with within-cluster spreads on either
    side of 1e-12."""
    assignment = data.draw(full_layouts(f))
    base = data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=f, max_size=f))
    jitter = data.draw(st.lists(st.sampled_from([0.0, 0.0, 4e-13, 1e-12, 3e-12]),
                                min_size=len(assignment), max_size=len(assignment)))
    xi = [base[a - 1] + j for a, j in zip(assignment, jitter)]
    model = fm.FactorModel(assignment=assignment, phi_cov=np.eye(f), xi=xi)
    got, want = fm._cluster_xi(model), loop_cluster_xi(model)
    assert (got is None) == (want is None)
    if want is not None:
        assert_same_bits(got, want)


@given(f=st.integers(1, 5), empty=st.integers(0, 2), data=st.data())
def test_binary_layout_matches_loadings(f, empty, data):
    """A binary model's assignment and sizes are the argmax + 1 and the
    column sums of the one-hot loadings it builds; with `empty` more
    clusters that hold no alpha, building the model fails naming the
    first."""
    assignment = data.draw(full_layouts(f))
    if empty:
        with pytest.raises(ValidationError, match=f"^cluster sizes must be positive: "
                                                  f"cluster {f + 1} has no alpha$"):
            fm.FactorModel(assignment=assignment, phi_cov=np.eye(f + empty),
                           xi=np.zeros(len(assignment)))
        return
    model = fm.FactorModel(assignment=assignment, phi_cov=np.eye(f), xi=np.zeros(len(assignment)))
    omega = model.loadings()
    assert omega.shape == (len(assignment), f)
    assert np.isin(omega, (0.0, 1.0)).all()
    assert np.array_equal(model.assignment, np.argmax(omega, axis=1) + 1)
    assert np.array_equal(model.sizes, omega.sum(axis=0))


def per_time_fstats(values, omega):
    """The per-time loop that _cluster_mean_fstats replaced: a time step is
    usable when it observes more alphas than clusters and every cluster, and
    its F-statistic is one least-squares fit over its observed alphas."""
    usable = np.zeros(len(values), dtype=bool)
    f = np.full(len(values), np.nan)
    for s, y in enumerate(values):
        observed = ~np.isnan(y)
        x = omega[observed]
        if observed.sum() > omega.shape[1] and np.all(x.sum(axis=0) > 0):
            usable[s] = True
            f[s] = reference.through_origin_fstat(y[observed], x)
    return usable, f


small_ints = st.integers(-3, 3).map(float)


@st.composite
def ftest_rows(draw):
    """Binary loadings and a times x alphas panel of small integers, so that
    a fit is either exact or leaves a residual far above roundoff, and each
    cluster mean is zero or far from it. Some rows are offset by 256, where
    RSS taken as sum(y^2) - ESS would cancel to errors near 1e-10. Cells
    are missing at random (leaving clusters unobserved and rows with no more
    observed alphas than clusters), and some rows are constant within every
    cluster, an exact fit."""
    f = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=f, max_size=f))
    assignment = np.array(draw(st.permutations(np.repeat(np.arange(1, f + 1), sizes))))
    m, n = draw(st.integers(1, 8)), len(assignment)
    values = draw(hnp.arrays(float, (m, n), elements=small_ints))
    constant = draw(hnp.arrays(bool, m))
    levels = draw(hnp.arrays(float, (m, f), elements=small_ints))
    values[constant] = levels[constant][:, assignment - 1]
    values += draw(hnp.arrays(float, (m, 1), elements=st.sampled_from([0.0, 256.0])))
    values[draw(hnp.arrays(bool, (m, n)))] = np.nan
    return values, fm.binary_loadings(assignment, f)


@given(rows=ftest_rows())
def test_cluster_mean_fstats_match_per_time_lstsq(rows):
    values, omega = rows
    usable, f = cl._cluster_mean_fstats(values, omega, cl.cluster_ids(omega, "omega"))
    want_usable, want = per_time_fstats(values, omega)
    np.testing.assert_array_equal(usable, want_usable)
    assert np.isnan(f[~usable]).all()
    f, want = f[usable], want[usable]
    # lstsq leaves roundoff in the residual of an exact fit, so its F there
    # is inf or above 1e20, and in the fit of all-zero cluster means, so its
    # F there is below 1e-20; no other fit of these rows comes near either
    exact, zero = want > 1e20, want < 1e-20
    np.testing.assert_array_equal(np.isinf(f), exact)
    np.testing.assert_array_equal(f == 0, zero)
    rest = ~exact & ~zero
    np.testing.assert_allclose(f[rest], want[rest], rtol=1e-12, atol=0)


def test_ftest_fixture_matches_per_time_oracle():
    """The 100-seed acceptance fixture gives the per-time loop's kept and
    skipped times and verdicts."""
    from test_acceptance import _ftest_fixture

    for kind in ("new_factor", "replicated"):
        for seed in range(100):
            p_old, omega_old, p_new, omega_new = _ftest_fixture(seed, kind)
            report = cl.new_cluster_ftest(p_old, omega_old, p_new, omega_new)
            usable_old, f_old = per_time_fstats(p_old.values, omega_old)
            usable_new, f_new = per_time_fstats(p_new.values, omega_new)
            keep = usable_old & usable_new
            assert report.times == [t for t, k in zip(p_old.times, keep) if k]
            assert report.skipped_times == [t for t, k in zip(p_old.times, keep) if not k]
            medians = [np.median(cl.winsorize(f[keep], 0.05)) for f in (f_old, f_new)]
            assert report.verdict == (medians[1] > medians[0])
