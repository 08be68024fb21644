import itertools
import os
import re
import stat

import numpy as np
import pytest

from alphaturn import panel as pm
from alphaturn.errors import ValidationError


def make_corr(psi):
    psi = np.asarray(psi, dtype=float).copy()
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    return pm.CorrelationMatrix(psi=psi)


class TestCorrelationMatrix:
    @pytest.mark.parametrize("psi, where", [
        # NaN fails no comparison, so the symmetry and range checks pass it
        ([[1, np.nan, 0.2], [np.nan, 1, 0.1], [0.2, 0.1, 1]], "[0, 1]"),
        ([[1, 0.2, 0.1], [0.2, np.inf, 0.1], [0.1, 0.1, 1]], "[1, 1]"),
    ], ids=["nan", "inf"])
    def test_rejects_non_finite_entry(self, psi, where):
        with pytest.raises(ValidationError, match=re.escape(f"entry {where} is not finite")):
            pm.CorrelationMatrix(psi)

    def test_only_psi_is_positional(self):
        # a second positional argument would otherwise land in min_overlap
        with pytest.raises(TypeError):
            pm.CorrelationMatrix(np.eye(2), np.ones(2))


class TestLoadPanel:
    def test_plain_csv(self, tmp_path):
        p = tmp_path / "panel.csv"
        p.write_text(
            "time,a,b,c\n1,0.1,0.2,0.3\n2,0.2,0.1,0.0\n3,0.3,0.3,0.1\n"
            "4,0.0,0.1,0.2\n5,0.1,0.0,0.3\n"
        )
        panel = pm.load_panel(p)
        assert panel.n_alphas == 3
        assert panel.n_obs == 5
        assert panel.values[0, 2] == 0.3

    def test_empty_cell_missing(self, tmp_path):
        p = tmp_path / "panel.csv"
        p.write_text("time,a,b\n1,0.1,\n2,0.2,0.1\n3,0.3,0.2\n")
        panel = pm.load_panel(p)
        assert np.isnan(panel.values[0, 1])
        assert panel.n_alphas == 2

    def test_all_empty_column_rejected(self, tmp_path):
        p = tmp_path / "panel.csv"
        p.write_text("time,a,b\n1,0.1,\n2,0.2,\n3,0.3,\n")
        with pytest.raises(ValidationError, match="b"):
            pm.load_panel(p)

    def test_literal_na_policy(self, tmp_path):
        p = tmp_path / "panel.csv"
        p.write_text("time,a,b\n1,0.1,NA\n2,0.2,0.1\n3,0.3,0.2\n")
        panel = pm.load_panel(p, na_policy="literal_NA")
        assert np.isnan(panel.values[0, 1])
        with pytest.raises(ValidationError, match="row 2"):
            pm.load_panel(p, na_policy="empty_cell")

    @pytest.mark.parametrize("text,message", [
        ("time,a,a\n1,0.1,0.2\n2,0.2,0.1\n", "alpha labels must be unique"),
        ("time,a,b\n2,0.1,0.2\n2,0.2,0.1\n", "time labels must be strictly increasing"),
        ("time,a,b\n10,0.1,0.2\n9,0.2,0.1\n", "time labels must be strictly increasing"),
    ], ids=["duplicate-label", "repeated-time", "decreasing-time"])
    def test_labels_and_times_checked(self, tmp_path, text, message):
        p = tmp_path / "panel.csv"
        p.write_text(text)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            pm.load_panel(p)

    def test_bad_row_width(self, tmp_path):
        p = tmp_path / "panel.csv"
        p.write_text("time,a,b\n1,0.1\n")
        with pytest.raises(ValidationError, match="row 2"):
            pm.load_panel(p)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((6, 3))
        vals[2, 1] = np.nan
        panel = pm.AlphaPanel(
            labels=["x", "y", "z"],
            times=[str(i) for i in range(6)],
            values=vals,
        )
        path = tmp_path / "out.csv"
        pm.save_panel(panel, path)
        back = pm.load_panel(path)
        assert np.allclose(back.values, vals, equal_nan=True)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "panel.csv"
        p.write_text(f"time,a,b\n1,0.1,0.2\n2,0.2,{cell}\n3,0.3,0.1\n")
        with pytest.raises(ValidationError, match=r"panel.csv: row 3, column 3: non-finite"):
            pm.load_panel(p)


class TestParseCells:
    def test_missing_cells_parse_in_one_call(self):
        # adjacent missing cells share a comma
        labels, values = pm._parse_cells(["1,,,0.5", "2,NA,NA,", "3,0.25,,NA"], 3, ("NA",))
        assert labels == ["1", "2", "3"]
        np.testing.assert_array_equal(
            values, [[np.nan, np.nan, 0.5], [np.nan, np.nan, np.nan], [0.25, np.nan, np.nan]])

    @pytest.mark.parametrize("lines,na_tokens", [
        (['"a",0.5', "b,0.5"], None),  # csv.reader unquotes the label
        (["a,0.5", "", "b,0.5"], None),  # np.loadtxt skips the blank line
        (["a,0.5,", "b,0.5"], None),
        (["a,", "b,0.5"], None),
        (["a,1_0", "b,0.5"], None),
        (["a,nan", "b,0.5"], ()),  # only a missing cell may be NaN
        (["a,1e400", "b,0.5"], ()),
        (["a,NA", "b,0.5"], ()),
        (["a, NA", "b,0.5"], ("NA",)),
    ])
    def test_declines_for_the_cell_by_cell_reading(self, lines, na_tokens):
        assert pm._parse_cells(lines, 1, na_tokens) is None


def _write_corr_text(path, labels, rows):
    lines = ["," + ",".join(labels)]
    lines += [lab + "," + ",".join(row) for lab, row in zip(labels, rows)]
    path.write_text("\n".join(lines) + "\n")


class TestLoadCorrelation:
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "corr.csv"
        _write_corr_text(p, ["a", "b", "c"], [["1", "0.2", "0.1"], ["0.2", "1", cell],
                                              ["0.1", cell, "1"]])
        with pytest.raises(ValidationError, match=r"corr.csv: row 3, column 4: non-finite"):
            pm.load_correlation(p)

    @pytest.mark.parametrize("cell", ["x", ""])
    def test_unparsable_cell_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "corr.csv"
        _write_corr_text(p, ["a", "b", "c"], [["1", "0.2", "0.1"], ["0.2", "1", cell],
                                              ["0.1", "0.3", "1"]])
        with pytest.raises(ValidationError,
                           match=rf"corr.csv: row 3, column 4: cannot parse '{cell}'$"):
            pm.load_correlation(p)

    def test_asymmetric_matrix_names_worst_pair(self, tmp_path):
        p = tmp_path / "corr.csv"
        _write_corr_text(p, ["a", "b", "c"], [["1", "0.9", "0.1"], ["-0.5", "1", "0.3"],
                                              ["0.1", "0.3", "1"]])
        with pytest.raises(ValidationError, match=r"not symmetric: \(a, b\) is 0.9 but \(b, a\) is -0.5"):
            pm.load_correlation(p)

    # a quoted label sends the file to the cell-by-cell reader
    @pytest.mark.parametrize("label", ["a", '"a"'], ids=["loadtxt", "csv-reader"])
    def test_diagonal_off_one_names_row_and_column(self, tmp_path, label):
        p = tmp_path / "corr.csv"
        p.write_text(f",a,b,c\n{label},1,0.1,0.2\nb,0.1,7,0.3\nc,0.2,0.3,-3\n")
        with pytest.raises(ValidationError,
                           match=r"corr.csv: row 3, column 3: diagonal value 7.0 is not 1"):
            pm.load_correlation(p)

    @pytest.mark.parametrize("label", ["a", '"a"'], ids=["loadtxt", "csv-reader"])
    def test_diagonal_within_tolerance_is_set_to_one(self, tmp_path, label):
        p = tmp_path / "corr.csv"
        p.write_text(f",a,b\n{label},1.0000000000005,0.3\nb,0.3,0.9999999999995\n")
        corr = pm.load_correlation(p)
        np.testing.assert_array_equal(corr.psi, [[1.0, 0.3], [0.3, 1.0]])

    def test_asymmetry_within_tolerance_is_averaged(self, tmp_path):
        p = tmp_path / "corr.csv"
        _write_corr_text(p, ["a", "b"], [["1", "0.3"], ["0.3000000000000005", "1"]])
        corr = pm.load_correlation(p)
        assert corr.psi[0, 1] == corr.psi[1, 0]
        assert corr.psi[0, 1] == pytest.approx(0.3, abs=1e-15)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        psi = np.corrcoef(rng.standard_normal((4, 12)))
        p = tmp_path / "corr.csv"
        pm.save_correlation(make_corr(psi), p)
        back = pm.load_correlation(p)
        np.testing.assert_array_equal(back.psi, make_corr(psi).psi)


class TestAtomicWrite:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            pm._atomic_write(tmp_path / "out.txt", "x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == mode
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]

    def test_umask_left_alone(self, tmp_path, monkeypatch):
        # reading the umask by setting it changes it for every thread
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        pm._atomic_write(tmp_path / "out.txt", "x\n")
        assert (tmp_path / "out.txt").read_text() == "x\n"
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path):
        (tmp_path / "out.txt").write_text("old\n")
        with pytest.raises(TypeError):
            pm._atomic_write(tmp_path / "out.txt", None)
        assert (tmp_path / "out.txt").read_text() == "old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]


class TestPairwiseCorrelation:
    def _panel(self, cols, labels=None):
        cols = np.asarray(cols, dtype=float).T
        n = cols.shape[1]
        labels = labels or [f"a{i}" for i in range(n)]
        return pm.AlphaPanel(
            labels=labels, times=[str(i) for i in range(cols.shape[0])], values=cols
        )

    def test_identical_columns(self):
        panel = self._panel([[1, 2, 3, 4], [1, 2, 3, 4]])
        corr = pm.pairwise_correlation(panel, min_overlap=2)
        assert corr.psi[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column(self):
        panel = self._panel([[1, 2, 3, 4], [-1, -2, -3, -4]])
        corr = pm.pairwise_correlation(panel, min_overlap=2)
        assert corr.psi[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_overlap_hand_value(self):
        # overlap rows hold (2,3,4) vs (1,2,4): r = 3 / sqrt(2 * 14/3)
        panel = self._panel(
            [[1, 2, 3, 4, np.nan], [np.nan, 1, 2, 4, 8]]
        )
        corr = pm.pairwise_correlation(panel, min_overlap=3)
        expected = 3.0 / np.sqrt(2.0 * 14.0 / 3.0)
        assert corr.psi[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_min_overlap_violation_names_pair(self):
        panel = self._panel([[1, 2, 3, 4, np.nan], [np.nan, 1, 2, 4, 8]])
        with pytest.raises(ValidationError, match="'a0'.*'a1'"):
            pm.pairwise_correlation(panel, min_overlap=4)

    @pytest.mark.parametrize("min_overlap", [0, 1])
    def test_no_joint_observation_names_pair(self, min_overlap):
        panel = self._panel([[1, 2, np.nan, np.nan], [np.nan, np.nan, 3, 5]])
        with pytest.raises(ValidationError, match="'a0', 'a1'.* 0 joint observations"):
            pm.pairwise_correlation(panel, min_overlap=min_overlap)

    def test_negative_min_overlap_rejected(self):
        panel = self._panel([[1, 2, 3, 4], [4, 1, 3, 2]])
        with pytest.raises(ValidationError, match=r"^min_overlap must be at least 0, got -1$"):
            pm.pairwise_correlation(panel, min_overlap=-1)
        assert pm.pairwise_correlation(panel, min_overlap=0).n == 2

    def test_zero_variance_column(self):
        panel = self._panel([[1, 1, 1, 1], [1, 2, 3, 4]])
        with pytest.raises(ValidationError, match="zero variance"):
            pm.pairwise_correlation(panel, min_overlap=2)

    def test_gap_free_matches_corrcoef(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((40, 6))
        panel = pm.AlphaPanel(
            labels=[f"a{i}" for i in range(6)],
            times=[f"{i:02d}" for i in range(40)],
            values=vals,
        )
        corr = pm.pairwise_correlation(panel, min_overlap=2)
        assert np.allclose(corr.psi, np.corrcoef(vals.T), atol=1e-12)


class TestRegressOut:
    def _make(self, vals):
        vals = np.asarray(vals, dtype=float)
        return pm.AlphaPanel(
            labels=[f"a{i}" for i in range(vals.shape[1])],
            times=[f"{i:02d}" for i in range(vals.shape[0])],
            values=vals,
        )

    def test_perfect_fit_gives_zero_residual(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8)
        panel = self._make(np.column_stack([x, rng.standard_normal(8)]))
        factors = self._make(np.column_stack([x, rng.standard_normal(8)]))
        resid = pm.regress_out(panel, factors)
        assert np.max(np.abs(resid.values[:, 0])) < 1e-12

    def test_orthogonal_target_is_unchanged(self):
        rng = np.random.default_rng(19)
        f = rng.standard_normal(8)
        g = rng.standard_normal(8)
        y = rng.standard_normal(8)
        # project y onto the orthogonal complement of span{1, f, g}
        design = np.column_stack([np.ones(8), f, g])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        y = y - design @ coef
        panel = self._make(np.column_stack([y, 2.0 * y]))
        factors = self._make(np.column_stack([f, g]))
        resid = pm.regress_out(panel, factors)
        assert np.allclose(resid.values[:, 0], y, atol=1e-10)
        assert np.allclose(resid.values[:, 1], 2.0 * y, atol=1e-10)

    def test_normal_equation_oracle(self):
        rng = np.random.default_rng(7)
        fac = rng.standard_normal(6)
        vals = rng.standard_normal((6, 2))
        panel = self._make(vals)
        factors = self._make(np.column_stack([fac, rng.standard_normal(6)]))
        resid = pm.regress_out(panel, factors)
        design = np.column_stack([np.ones(6), factors.values])
        for k in range(2):
            beta = np.linalg.solve(design.T @ design, design.T @ vals[:, k])
            expect = vals[:, k] - design @ beta
            assert np.allclose(resid.values[:, k], expect, atol=1e-10)

    def test_residuals_orthogonal_to_factors(self):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((30, 4))
        vals[5, 2] = np.nan
        panel = self._make(vals)
        factors = self._make(rng.standard_normal((30, 2)))
        resid = pm.regress_out(panel, factors)
        for k in range(4):
            rows = ~np.isnan(resid.values[:, k])
            for j in range(2):
                assert abs(resid.values[rows, k] @ factors.values[rows, j]) < 1e-10

    def test_misaligned_times(self):
        panel = self._make(np.ones((4, 2)) + np.arange(4)[:, None])
        factors = pm.AlphaPanel(
            labels=["f"] * 1 + ["g"],
            times=["10", "11", "12", "13"],
            values=np.random.default_rng(0).standard_normal((4, 2)),
        )
        with pytest.raises(ValidationError, match="align"):
            pm.regress_out(panel, factors)

    def test_missing_factor_where_alpha_observed(self):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal((8, 2))
        vals[3, 0] = np.nan
        f = rng.standard_normal((8, 2))
        f[3, 1] = np.nan
        # a1 is unobserved where the factor is missing; a0 is not
        with pytest.raises(ValidationError,
                           match="^factors have missing values where alpha 'a1' is observed$"):
            pm.regress_out(self._make(vals), self._make(f))

    def test_rank_deficient_factors(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(6)
        panel = self._make(rng.standard_normal((6, 2)))
        factors = self._make(np.column_stack([f, 2 * f]))
        with pytest.raises(ValidationError, match="rank"):
            pm.regress_out(panel, factors)


class TestCanonicalizeSigns:
    def test_two_by_two_negative(self):
        corr = make_corr([[1.0, -0.6], [-0.6, 1.0]])
        signs, new = pm.canonicalize_signs(corr)
        assert list(signs) in ([1, -1], [-1, 1])
        assert new.psi[0, 1] == pytest.approx(0.6)

    def test_positive_matrix_is_fixed_point(self):
        psi = np.array([[1.0, 0.2, 0.4], [0.2, 1.0, 0.1], [0.4, 0.1, 1.0]])
        signs, new = pm.canonicalize_signs(make_corr(psi))
        assert np.all(signs == 1)
        assert np.allclose(new.psi, psi)

    def test_three_by_three_matches_brute_force(self):
        psi = np.array(
            [[1.0, 0.5, -0.7], [0.5, 1.0, -0.4], [-0.7, -0.4, 1.0]]
        )
        corr = make_corr(psi)
        signs, _ = pm.canonicalize_signs(corr)
        best = max(
            np.asarray(s) @ psi @ np.asarray(s)
            for s in itertools.product([1, -1], repeat=3)
        )
        assert signs @ psi @ signs == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_never_below_input_and_keeps_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 8))
        psi = np.corrcoef(a)
        corr = make_corr(psi)
        signs, new = pm.canonicalize_signs(corr)
        assert signs @ psi @ signs >= np.sum(psi) - 1e-12
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(new.psi)),
            np.sort(np.linalg.eigvalsh(psi)),
            atol=1e-10,
        )


class TestDeformCorrelation:
    def test_psd_input_unchanged(self):
        psi = np.array([[1.0, 0.3], [0.3, 1.0]])
        out = pm.deform_correlation(make_corr(psi))
        assert np.allclose(out.psi, psi, atol=1e-12)

    def test_two_by_two_all_ones(self):
        out = pm.deform_correlation(make_corr(np.ones((2, 2))))
        assert np.allclose(out.psi, np.eye(2), atol=1e-12)

    def test_three_by_three_all_ones(self):
        out = pm.deform_correlation(make_corr(np.ones((3, 3))))
        assert np.allclose(out.psi, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_idempotent_and_positive(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 10))  # rank 4 < 10: singular correlation
        psi = np.corrcoef(a.T @ a + 1e-3 * np.eye(10))
        once = pm.deform_correlation(make_corr(psi))
        w = np.linalg.eigvalsh(once.psi)
        assert w[0] > 0
        twice = pm.deform_correlation(once)
        assert np.max(np.abs(twice.psi - once.psi)) < 1e-10
