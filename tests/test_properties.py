"""Property tests of the CSV format: panels and correlation matrices round
trip through save and load bit for bit, and format_csv writes what a
per-cell "%.17g" loop writes."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alphaturn import panel as pm

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
