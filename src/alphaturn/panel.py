"""Alpha panels: CSV ingestion, pairwise-complete correlation, factor
regression, sign canonicalization and positive-definite repair of
correlation matrices.

Missing values are carried as NaN throughout.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import ValidationError, read_file

FLOAT_FMT = "%.17g"


def _times_ascending(times):
    """True if the time labels are strictly increasing (numerically when
    they all parse as numbers, lexicographically otherwise)."""
    try:
        vals = [float(t) for t in times]
    except ValueError:
        vals = list(times)
    return all(a < b for a, b in zip(vals, vals[1:]))


@dataclass
class AlphaPanel:
    """N alpha return series over M+1 observations; cells may be NaN."""

    labels: list
    times: list
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        m1, n = self.values.shape
        if n < 2:
            raise ValidationError(f"need at least 2 alphas, got {n}")
        if m1 < 2:
            raise ValidationError(f"need at least 2 observations, got {m1}")
        if len(self.labels) != n or len(self.times) != m1:
            raise ValidationError("labels/times length does not match values shape")
        if len(set(self.labels)) != n:
            raise ValidationError("alpha labels must be unique")
        if not _times_ascending(self.times):
            raise ValidationError("time labels must be strictly increasing")
        counts = np.sum(~np.isnan(self.values), axis=0)
        bad = np.where(counts < 2)[0]
        if bad.size:
            raise ValidationError(
                f"column {self.labels[bad[0]]!r} has fewer than 2 observations"
            )

    @property
    def n_alphas(self):
        return self.values.shape[1]

    @property
    def n_obs(self):
        return self.values.shape[0]


class CorrelationMatrix:
    """Symmetric unit-diagonal correlation matrix.

    The full eigendecomposition, `spectrum`, is computed on first use and
    cached, so one matrix costs at most one eigh; `spectrum` is the only
    code that fills the cache. A consumer that needs only the top of the
    spectrum takes `top_pair(w)` or `top_pairs(k)`: they read a cached
    spectrum where there is one, else call eigen.top_pairs (with the
    eigenvalues w where the caller has them), and read the spectrum only
    where it declines. `psd` reads a cached spectrum, else tries one
    Cholesky first. Nothing is computed at construction.
    """

    def __init__(self, psi, *, labels=None):
        self.psi = np.asarray(psi, dtype=float)
        n = self.psi.shape[0]
        if self.psi.shape != (n, n):
            raise ValidationError("correlation matrix must be square")
        # a NaN or infinite entry makes asym non-finite (inf - inf is NaN);
        # NaN would pass every comparison below
        with np.errstate(invalid="ignore"):
            asym = self.psi - self.psi.T
            asym = np.max(np.abs(asym, out=asym))
        if not np.isfinite(asym):
            bad = np.argwhere(~np.isfinite(self.psi))
            if len(bad):
                i, j = bad[0]
                raise ValidationError(
                    f"correlation matrix entry [{i}, {j}] is not finite: {self.psi[i, j]}")
        if not asym <= 1e-12:
            raise ValidationError("correlation matrix must be symmetric to 1e-12")
        if np.max(np.abs(np.diag(self.psi) - 1.0)) != 0.0:
            raise ValidationError("correlation matrix diagonal must be exactly 1")
        if np.max(np.abs(self.psi)) > 1.0 + 1e-12:
            raise ValidationError("off-diagonal correlations must lie in [-1, 1]")
        self.labels = [f"a{i + 1}" for i in range(n)] if labels is None else labels
        self._spectrum = None
        self._top = None
        self._certified = False

    @property
    def n(self):
        return self.psi.shape[0]

    @property
    def spectrum(self):
        """Ascending eigenvalues and orthonormal eigenvectors, (w, v), from
        np.linalg.eigh on first access."""
        if self._spectrum is None:
            self._spectrum = np.linalg.eigh(self.psi)
        return self._spectrum

    @property
    def psd(self):
        """The PSD rule of eigen.is_positive_definite on the cached
        spectrum. Without it, True where eigen.certify_positive proves
        psi - s I positive definite, with s = (PSD_TOL + N (N + 1) eps) N:
        N >= psi1 (Gershgorin, as |psi_ij| <= 1), so s bounds the noise
        floor plus the rounding of an eigh. Else, where the Cholesky cannot
        decide, the rule on the spectrum. A success is cached."""
        if self._certified:
            return True
        if self._spectrum is None:
            n = self.n
            m = self.psi.copy()
            m.flat[::n + 1] -= (eigen.PSD_TOL + n * (n + 1) * eigen.EPS) * n
            self._certified = eigen.certify_positive(m)
            if self._certified:
                return True
            del m
        return eigen.is_positive_definite(self.spectrum[0])

    def top_pair(self, w=None):
        """(psi1, V1), cached: where no spectrum is cached, from
        eigen.top_pairs, passed w, all of psi's eigenvalues ascending, where
        the caller has them; else (or where it declines) from the spectrum
        under the tie rule of eigen.top_eigenvector. V1 has a nonnegative sum."""
        if self._top is None:
            pair = None
            if self._spectrum is None:
                pair = eigen.top_pairs(self.psi, 1, w)
            if pair is None:
                self._top = eigen.top_eigenvector(*self.spectrum)
            else:
                self._top = pair[0][0], eigen.unit_nonnegative_sum(pair[1][:, 0])
        return self._top

    def top_pairs(self, k):
        """The top k eigenvalues, descending, and their eigenvectors as the
        columns of an N x k array: from eigen.top_pairs where no spectrum is
        cached, else (or where it declines) from the spectrum."""
        pairs = None
        if self._spectrum is None:
            pairs = eigen.top_pairs(self.psi, k)
        if pairs is None:
            w, v = self.spectrum
            order = np.argsort(w)[::-1][:k]
            pairs = w[order], v[:, order]
        return pairs


def unit_diagonal(cov):
    """cov_ij / (d_i d_j) with d = sqrt(diag(cov)): the correlation matrix
    of a covariance matrix, made exactly symmetric by averaging it with its
    transpose, with an exact unit diagonal. `cov` is left as it is."""
    d = np.sqrt(np.diag(cov))
    psi = np.outer(d, d)
    np.divide(cov, psi, out=psi)
    psi = psi + psi.T
    psi /= 2.0
    np.fill_diagonal(psi, 1.0)
    return psi


def read_csv(path, kind):
    """All rows of the CSV file at `path`, as lists of cell strings; `kind`
    names the file in read errors."""
    return read_file(path, kind, lambda fh: list(csv.reader(fh)), newline="")


def _read_lines(path, kind):
    """The lines of the text file at `path`, without their line ends (which
    may be \\n, \\r\\n or \\r, as for csv.reader); `kind` names the file in
    read errors."""
    lines = read_file(path, kind, lambda fh: fh.read()).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _parse_cells(lines, width, na_tokens=None):
    """(labels, values) of CSV `lines` that each hold a label cell and
    `width` numeric cells: the text before each line's first comma, and the
    cells after it, parsed by one np.loadtxt call into a (len(lines), width)
    float array. `na_tokens` None allows no missing cell; a tuple makes
    empty cells and cells equal to one of its tokens NaN, and then no other
    cell may be non-finite.

    Returns None where csv.reader and float() might read the lines
    otherwise or reject them: a quoted label, a blank line, a row of
    another width, a non-finite cell under `na_tokens`, or a cell that
    np.loadtxt cannot parse. The last includes cells that float() accepts:
    digit underscores, non-ASCII digits, and missing cells padded with
    blanks or quoted. The caller then reads the file cell by cell.
    """
    labels = [line.partition(",")[0] for line in lines]
    if any(label.startswith('"') for label in labels):
        return None
    if not lines:
        return labels, np.empty((0, width))
    bodies = (line.partition(",")[2] for line in lines)
    if na_tokens is not None:
        text = "\n".join(bodies)
        if "nan" in text.lower():  # a literal NaN cell, which is not missing
            return None
        # with a comma on both sides of every cell a missing cell reads
        # ",token,"; replace twice, as adjacent cells share a comma
        text = "," + text.replace("\n", ",\n,") + ","
        for token in ("", *na_tokens):
            for _ in range(2):
                text = text.replace(f",{token},", ",nan,")
        bodies = text[1:-1].split(",\n,")
    try:
        with warnings.catch_warnings():
            # np.loadtxt warns when every line is blank
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(bodies, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    # np.loadtxt skips blank lines, so a shape check finds them
    if values.shape != (len(lines), width):
        return None
    if na_tokens is not None and np.isinf(values).any():
        return None
    return labels, values


def format_csv(header, values, labels=None):
    """CSV text of a header row and the rows of a 2-D float array, each
    row led by its label when `labels` is given. Floats are written with
    FLOAT_FMT, NaN as an empty cell."""
    rows = [
        ",".join("" if math.isnan(v) else FLOAT_FMT % v for v in row)
        for row in np.asarray(values, dtype=float).tolist()
    ]
    if labels is not None:
        rows = [f"{label},{row}" for label, row in zip(labels, rows)]
    return "\n".join([",".join(header), *rows]) + "\n"


def load_panel(path, na_policy="empty_cell"):
    """Read a panel CSV (header ``time,<label1>,...``) into an AlphaPanel.

    na_policy "empty_cell" treats only empty cells as missing; "literal_NA"
    additionally accepts the token NA.
    """
    if na_policy not in ("empty_cell", "literal_NA"):
        raise ValidationError(f"unknown na_policy {na_policy!r}")
    lines = _read_lines(path, "panel")
    header = next(csv.reader(lines[:1]), [])
    parsed = None
    if len(header) >= 3 and header[0] == "time":
        na_tokens = ("NA",) if na_policy == "literal_NA" else ()
        parsed = _parse_cells(lines[1:], len(header) - 1, na_tokens)
    if parsed is None:
        header, times, values = _scan_panel(path, na_policy)
    else:
        times, values = parsed
    return AlphaPanel(labels=header[1:], times=times, values=values)


def _scan_panel(path, na_policy):
    """(header, times, values) of the panel CSV at `path`, read cell by cell
    with csv.reader and float(); raises naming the first bad row or cell.
    load_panel falls back to it where _parse_cells declines the file."""
    rows = read_csv(path, "panel")
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
    return rows[0], times, np.array(data, dtype=float).reshape(len(data), len(labels))


def save_panel(panel, path):
    """Write a panel back to CSV (NaN cells emitted empty)."""
    _atomic_write(path, format_csv(["time", *panel.labels], panel.values, panel.times))


def _atomic_write(path, text):
    """Write `text` to a new file beside `path`, then rename it over `path`.
    open() gives the new file the mode the umask leaves; "x" refuses an old one.
    A failure to write, such as a missing directory, raises ValidationError
    naming `path` and leaves no new file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write: {exc.strerror or exc}") from None


def check_min_overlap(min_overlap):
    """Raise ValidationError unless `min_overlap` is at least 0, as
    pairwise_correlation requires."""
    if min_overlap < 0:
        raise ValidationError(f"min_overlap must be at least 0, got {min_overlap}")


def pairwise_correlation(panel, min_overlap=12):
    """Pearson correlation over pairwise-complete observations.

    Raises if min_overlap is negative (check_min_overlap), if any pair has
    fewer than min_overlap joint observations (or none, whatever
    min_overlap is) or a column has zero variance.
    """
    check_min_overlap(min_overlap)
    x = panel.values
    obs = (~np.isnan(x)).astype(float)
    x0 = np.where(np.isnan(x), 0.0, x)

    cnt = obs.T @ obs  # joint observation counts
    i, j = np.unravel_index(np.argmin(cnt), cnt.shape)
    if cnt[i, j] < max(min_overlap, 1):
        raise ValidationError(
            f"pair ({panel.labels[i]!r}, {panel.labels[j]!r}) has only "
            f"{int(cnt[i, j])} joint observations (min_overlap={min_overlap})"
        )

    sxy = x0.T @ x0
    sx = x0.T @ obs  # (i, j): sum of x_i over rows where j observed
    sxx = (x0 * x0).T @ obs
    with np.errstate(invalid="ignore", divide="ignore"):
        cov = sxy - sx * sx.T / cnt
        var_i = sxx - sx * sx / cnt  # variance of i over the (i, j) overlap
        denom = np.sqrt(var_i * var_i.T)
        psi = cov / denom

    zero_var = np.where(np.diag(var_i) <= 1e-30)[0]
    if zero_var.size:
        raise ValidationError(
            f"column {panel.labels[zero_var[0]]!r} has zero variance"
        )
    bad = np.argwhere(denom <= 0)
    if bad.size:
        i, j = bad[0]
        raise ValidationError(
            f"pair ({panel.labels[i]!r}, {panel.labels[j]!r}) has zero "
            "variance over its joint observations"
        )
    psi = np.clip((psi + psi.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(psi, 1.0)
    return CorrelationMatrix(psi, labels=list(panel.labels))


def regress_out(panel, factors):
    """Residualize each alpha on the factor columns (time-series OLS with
    intercept); missing cells stay missing."""
    if list(panel.times) != list(factors.times):
        raise ValidationError("panel and factor time labels must align exactly")
    f = factors.values
    m1 = panel.n_obs
    design_full = np.column_stack([np.ones(m1), f])
    finite = ~np.isnan(f).any(axis=1)
    if np.linalg.matrix_rank(design_full[finite]) < design_full.shape[1]:
        raise ValidationError("factor matrix (with intercept) is rank deficient")

    out = np.full_like(panel.values, np.nan)
    for k in range(panel.n_alphas):
        y = panel.values[:, k]
        rows = ~np.isnan(y)
        if np.isnan(f[rows]).any():
            raise ValidationError(
                f"factors have missing values where alpha {panel.labels[k]!r} "
                "is observed"
            )
        design = design_full[rows]
        beta, *_ = np.linalg.lstsq(design, y[rows], rcond=None)
        out[rows, k] = y[rows] - design @ beta
    return AlphaPanel(labels=list(panel.labels), times=list(panel.times), values=out)


def canonicalize_signs(corr):
    """Greedy sign flipping maximizing the total correlation sum.

    Scans indices in ascending order and flips any sign whose row sum is
    negative; stops after a full pass with no flip, or after 100 N passes.
    Returns the +-1 sign array s and the re-signed matrix S Psi S.
    """
    psi = corr.psi
    n = corr.n
    s = np.ones(n)
    for _ in range(100 * n):
        flipped = False
        for i in range(n):
            row = s[i] * np.dot(psi[i], s) - psi[i, i]  # exclude diagonal
            if row < 0:
                s[i] = -s[i]
                flipped = True
        if not flipped:
            break
    # the diagonal stays exactly 1, as s_i^2 = 1
    return s, CorrelationMatrix(psi * np.outer(s, s), labels=list(corr.labels))


def deform_correlation(corr):
    """Make a correlation matrix positive definite by replacing every
    eigenvalue at or below eigen.noise_floor with the smallest eigenvalue
    above it, c, then rescaling to unit diagonal. The matrix is rebuilt
    from the kept pairs alone, as c I + V_+ diag(w_+ - c) V_+^T."""
    w, v = corr.spectrum
    keep = w > eigen.noise_floor(w)
    if not keep.any():
        raise ValidationError("all eigenvalues lie below the noise floor")
    c = w[keep].min()
    kept = v[:, keep]
    psi_new = (kept * (w[keep] - c)) @ kept.T
    psi_new.flat[::corr.n + 1] += c
    # the clip keeps the unit diagonal
    psi_new = np.clip(unit_diagonal(psi_new), -1.0, 1.0)
    return CorrelationMatrix(psi_new, labels=list(corr.labels))


def load_correlation(path):
    """Read a correlation matrix CSV (label header row and column)."""
    lines = _read_lines(path, "correlation")
    labels = next(csv.reader(lines[:1]), [])[1:]
    parsed = None
    if len(lines) - 1 == len(labels) >= 2:
        parsed = _parse_cells(lines[1:], len(labels))
    del lines
    if parsed is not None and parsed[0] == labels:
        psi = parsed[1]
    else:
        labels, psi = _scan_correlation(path)
    bad = np.argwhere(~np.isfinite(psi))
    if bad.size:
        r, c = bad[0]
        raise ValidationError(
            f"{path}: row {r + 2}, column {c + 2}: non-finite value {float(psi[r, c])}"
        )
    bad = np.flatnonzero(np.abs(np.diag(psi) - 1.0) > 1e-12)
    if bad.size:
        k = bad[0]
        raise ValidationError(f"{path}: row {k + 2}, column {k + 2}: diagonal value "
                              f"{float(psi[k, k])!r} is not 1 (to 1e-12)")
    bad = np.argwhere(np.abs(psi) > 1.0 + 1e-12)
    if bad.size:
        r, c = bad[0]
        raise ValidationError(f"{path}: row {r + 2}, column {c + 2}: correlation "
                              f"{float(psi[r, c])!r} lies outside [-1, 1]")
    asym = np.abs(psi - psi.T)
    i, j = np.unravel_index(np.argmax(asym), asym.shape)
    if asym[i, j] > 1e-12:
        raise ValidationError(
            f"{path}: matrix is not symmetric: ({labels[i]}, {labels[j]}) is "
            f"{float(psi[i, j])!r} but ({labels[j]}, {labels[i]}) is {float(psi[j, i])!r}"
        )
    del asym
    # within the tolerances: make the matrix exactly symmetric, with an
    # exact unit diagonal
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    return CorrelationMatrix(psi=psi, labels=labels)


def _scan_correlation(path):
    """(labels, psi) of the correlation CSV at `path`, read cell by cell
    with csv.reader and float(); raises naming the first bad row or cell.
    load_correlation falls back to it where _parse_cells declines the file."""
    rows = read_csv(path, "correlation")
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
    return labels, psi


def save_correlation(corr, path):
    _atomic_write(path, format_csv(["", *corr.labels], corr.psi, corr.labels))

