"""Factor-model covariance assembly and closed-form eigenstructures.

Covers binary clusters with and without specific risk, non-diagonal factor
covariance via the reduced F x F problem, non-binary loadings via the
Gram-matrix reduction and the uniform-correlation secular equation. Any
other model takes the dense path: the eigenvalues and top eigenpair of
its assembled correlation matrix, from one eigh of a G x G block gathered
from Phi where a binary model's alphas fall into G < N groups of repeated
rows, and otherwise from the matrix itself.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from . import eigen
from .panel import CorrelationMatrix, unit_diagonal

# cluster sizes and ids, which numpy holds as int64
_INT64_MAX = 2**63 - 1
_COUNTS = {"type": "array", "items": {"type": "integer", "minimum": 1, "maximum": _INT64_MAX}}
MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["binary", "dense"]},
        "sizes": _COUNTS,
        "assignment": _COUNTS,
        "phi": {"type": "array"},
        "xi": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "omega": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
    },
    "required": ["mode", "phi"],
}


def _integers(values, what):
    """`values` as an int array; ValidationError naming `what` where they are
    ragged or not numbers, or where one is not an integer within int64 (1.5,
    NaN, inf), which the cast would mangle."""
    try:
        values = np.asarray(values)
    except ValueError:  # ragged
        values = None
    if values is None or values.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be an array of 64-bit integers")
    bad = values.dtype.kind == "f" and ~((abs(values) < 2.0**63) & (values == np.round(values)))
    if np.any(bad):
        raise ValidationError(f"{what} must be 64-bit integers, got {float(values[bad][0])}")
    return values.astype(int, copy=False)


def _cluster_sizes(sizes):
    """`sizes` as a 1-D int array of positive cluster sizes; ValidationError
    where one is not an integer within int64 (see _integers) or not
    positive, or where they do not form one list of at least one cluster."""
    sizes = _integers(sizes, "cluster sizes")
    if sizes.ndim != 1:
        raise ValidationError(f"cluster sizes must be one list, got shape {sizes.shape}")
    if not len(sizes):
        raise ValidationError("cluster sizes must list at least one cluster")
    if np.any(sizes < 1):
        raise ValidationError("cluster sizes must be positive")
    return sizes


def cluster_counts(assignment, f):
    """Alphas in each of F clusters of 1-based int cluster ids, each in 1..F."""
    if assignment.size and not 1 <= assignment.min() <= assignment.max() <= f:
        raise ValidationError(f"cluster ids must lie in 1..{f}")
    return np.bincount(assignment - 1, minlength=f)


def binary_loadings(assignment, f):
    """N x F indicator loadings of 1-based cluster ids, each in 1..F."""
    omega = np.zeros((len(assignment), f))
    omega[np.arange(len(assignment)), np.asarray(assignment) - 1] = 1.0
    return omega


@dataclass
class ClusterSpec:
    """Per-cluster parameters of a binary model, as binary_eigensystem reads
    them: sizes N_A, factor variances phi (default 1) and specific risks xi
    (default 0). The alphas' cluster ids are FactorModel's."""

    sizes: np.ndarray
    phi: np.ndarray = None
    xi: np.ndarray = None

    def __post_init__(self):
        self.sizes = _cluster_sizes(self.sizes)
        f = len(self.sizes)
        self.phi = np.ones(f) if self.phi is None else np.asarray(self.phi, dtype=float)
        self.xi = np.zeros(f) if self.xi is None else np.asarray(self.xi, dtype=float)
        # two comparisons each, which NaN fails
        if self.phi.shape != (f,) or not np.all((self.phi > 0) & (self.phi < np.inf)):
            raise ValidationError("phi must be positive and finite, one per cluster")
        if self.xi.shape != (f,) or not np.all((self.xi >= 0) & (self.xi < np.inf)):
            raise ValidationError("xi must be nonnegative and finite, one per cluster")

    @classmethod
    def from_sizes(cls, sizes, phi=None, xi=None):
        return cls(sizes, phi, xi)

    @property
    def n(self):
        return int(self.sizes.sum())

    @property
    def f(self):
        return len(self.sizes)

    def to_factor_model(self, phi_cov=None):
        """The binary FactorModel of this layout, its clusters in consecutive
        runs of alphas, on Phi = phi_cov, by default diag(phi)."""
        return FactorModel(phi_cov=np.diag(self.phi) if phi_cov is None else phi_cov,
                           xi=np.repeat(self.xi, self.sizes),
                           assignment=np.repeat(np.arange(1, self.f + 1), self.sizes))


@dataclass
class FactorModel:
    """Factor covariance, specific risks, and dense loadings `omega` or, for
    a binary model, only its 1-based cluster ids `assignment`: no N x F
    array, as `loadings()` builds Omega on demand for Gamma = diag(xi^2) +
    Omega Phi Omega^T. A binary model's ids lie in 1..F and every cluster
    holds an alpha. Building the model sets `mode`, a binary model's
    cluster `sizes` (a dense model's sizes and assignment are None) and
    `phi_chol`, Phi's lower Cholesky factor."""

    phi_cov: np.ndarray
    xi: np.ndarray
    omega: np.ndarray = None
    assignment: np.ndarray = None
    mode: str = field(default="dense", init=False)
    phi_chol: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.phi_cov = np.asarray(self.phi_cov, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        if self.assignment is not None:
            if self.omega is not None:
                raise ValidationError("a model takes loadings or cluster ids, not both")
            self.mode, self.assignment = "binary", _integers(self.assignment, "cluster ids")
            if self.assignment.ndim != 1:
                raise ValidationError("cluster ids must be one list")
            n, f = len(self.assignment), len(self.phi_cov)
            self.sizes = cluster_counts(self.assignment, f)
            if not self.sizes.all():
                raise ValidationError(f"cluster sizes must be positive: "
                                      f"cluster {np.argmin(self.sizes) + 1} has no alpha")
        else:
            self.omega = np.asarray(self.omega, dtype=float)
            if self.omega.ndim != 2:
                raise ValidationError("loadings must be an N x F matrix")
            n, f = self.omega.shape
        if n < 1 or f < 1:
            raise ValidationError(f"a model needs at least one alpha and one factor, "
                                  f"got N={n}, F={f}")
        if self.phi_cov.shape != (f, f):
            raise ValidationError("factor covariance shape does not match loadings")
        if not all(np.isfinite(a).all() for a in (self.omega, self.phi_cov, self.xi)
                   if a is not None):
            raise ValidationError("loadings, factor covariance and specific risks must be finite")
        if np.max(np.abs(self.phi_cov - self.phi_cov.T)) > 1e-12:
            raise ValidationError("factor covariance must be symmetric")
        try:
            self.phi_chol = np.linalg.cholesky(self.phi_cov)
        except np.linalg.LinAlgError:
            raise ValidationError("factor covariance must be positive definite") from None
        if self.xi.shape != (n,) or np.any(self.xi < 0):
            raise ValidationError("specific risks must be nonnegative, one per alpha")

    @property
    def n(self):
        return len(self.xi)

    @property
    def f(self):
        return len(self.phi_cov)

    def loadings(self):
        """N x F Omega: `omega`, or a binary model's indicator loadings, built per call."""
        return self.omega if self.assignment is None else binary_loadings(self.assignment, self.f)

    def to_json(self):
        doc = {
            "mode": self.mode,
            "phi": self.phi_cov.tolist(),
            "xi": self.xi.tolist(),
        }
        if self.mode == "binary":
            doc["assignment"] = self.assignment.tolist()
            doc["sizes"] = self.sizes.tolist()
        else:
            doc["omega"] = self.omega.tolist()
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text):
        return cls.from_doc(json.loads(text))

    @classmethod
    def from_doc(cls, doc):
        """Model from a parsed model document, checked against MODEL_SCHEMA.
        A binary document gives its 1-based cluster ids as `assignment`, or
        as `sizes` for consecutive runs of alphas; see _binary_doc_assignment."""
        violation = _schema_violation(doc)
        if violation:
            pointer, message = violation
            raise ValidationError(f"model schema violation at {pointer}: {message}")
        phi = _float_array(doc, "phi")
        if phi.ndim == 1:
            phi = np.diag(phi)
        try:
            layout = ({"assignment": _binary_doc_assignment(doc, phi.shape[0])}
                      if doc["mode"] == "binary" else {"omega": _float_array(doc, "omega")})
        except KeyError as exc:
            raise ValidationError(f"model schema violation at /{exc.args[0]}: missing") from None
        xi = np.asarray(doc.get("xi", np.zeros(len(*layout.values()))), dtype=float)
        return cls(phi_cov=phi, xi=xi, **layout)


def _binary_doc_assignment(doc, f):
    """1-based cluster ids of a binary model document with F clusters:
    `assignment`, or else consecutive runs of `sizes`; where both are given
    they must agree."""
    sizes = doc.get("sizes")
    if "assignment" in doc or sizes is None:
        assignment = np.asarray(doc["assignment"], dtype=int)
        if sizes is not None and (counts := cluster_counts(assignment, f).tolist()) != sizes:
            raise ValidationError(f"/sizes does not match /assignment's counts {counts}")
        return assignment
    try:
        return np.repeat(np.arange(1, len(sizes) + 1), np.asarray(sizes, dtype=int))
    except (MemoryError, ValueError):  # ValueError: N overflows int64
        raise ValidationError(
            f"/sizes: N={sum(map(int, sizes))} alphas do not fit in memory") from None


def _is_number(x):
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


def _is_integer(x):
    return not isinstance(x, bool) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer())


# per-element type test, minimum, maximum and type name of the MODEL_SCHEMA
# arrays whose items are numbers
_ITEM_RULES = {
    "assignment": (_is_integer, 1, _INT64_MAX, "integer"),
    "sizes": (_is_integer, 1, _INT64_MAX, "integer"),
    "xi": (_is_number, 0, math.inf, "number"),
}


def _schema_violation(doc):
    """(JSON pointer, message) of the first violation of MODEL_SCHEMA in
    pointer order, worded as jsonschema's Draft7Validator words it, or None.
    As in JSON Schema, 1.0 is an integer and a bool is not a number."""
    if not isinstance(doc, dict):
        return "/", f"{doc!r} is not of type 'object'"
    for key in MODEL_SCHEMA["required"]:
        if key not in doc:
            return "/", f"{key!r} is a required property"
    # the first violation lies under the first key, in sorted order, that
    # has one; under it, in row-major order
    for key in sorted(doc.keys() & MODEL_SCHEMA["properties"].keys()):
        value = doc[key]
        found = []  # (path below key, message)
        if key == "mode":
            if value not in ("binary", "dense"):
                found = [((), f"{value!r} is not one of ['binary', 'dense']")]
        elif not isinstance(value, list):
            found = [((), f"{value!r} is not of type 'array'")]
        elif key == "omega":
            found = [((i,), f"{row!r} is not of type 'array'")
                     for i, row in enumerate(value) if not isinstance(row, list)]
            found += [((i, j), f"{x!r} is not of type 'number'")
                      for i, row in enumerate(value) if isinstance(row, list)
                      for j, x in enumerate(row) if not _is_number(x)]
        elif key in _ITEM_RULES:
            is_type, minimum, maximum, name = _ITEM_RULES[key]
            # two comparisons, not minimum <= x <= maximum: NaN passes both
            found = [((i,), f"{x!r} is not of type {name!r}" if not is_type(x)
                      else f"{x!r} is less than the minimum of {minimum!r}" if x < minimum
                      else f"{x!r} is greater than the maximum of {maximum!r}")
                     for i, x in enumerate(value) if not is_type(x) or x < minimum or x > maximum]
        if found:
            path, message = min(found, key=lambda err: err[0])
            return "/" + "/".join(map(str, (key, *path))), message
    return None


def _float_array(doc, key):
    """doc[key] as a float array; a ragged or non-numeric one violates the
    model schema."""
    try:
        return np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"model schema violation at /{key}: {exc}") from None


@dataclass
class EigenStructure:
    """Eigenvalues with multiplicities plus the implied turnover-reduction
    coefficient."""

    values: list
    rho_star: float
    top_cluster: int

    def eigenvalues(self):
        """Flat descending eigenvalue array, multiplicities expanded."""
        out = []
        for val, mult in self.values:
            out.extend([val] * mult)
        return np.sort(np.asarray(out))[::-1]

    def to_dict(self):
        return {"values": [{"value": v, "mult": m} for v, m in self.values],
                "rho_star": self.rho_star, "top_cluster": self.top_cluster}


@dataclass
class AllocationPlan:
    """Cluster sizes minimizing the turnover-reduction coefficient at fixed
    N and F: F_plus ceilings and F_minus floors."""

    f_minus: int
    f_plus: int
    size_floor: int
    size_ceiling: int
    rho_star_min: float

    @property
    def sizes(self):
        return [self.size_ceiling] * self.f_plus + [self.size_floor] * self.f_minus


def build_covariance(model):
    """The correlation matrix of Gamma = diag(xi^2) + Omega Phi Omega^T
    (spectrum not yet computed), assembled from the rows (xi_i, Omega_i)
    scaled by _unit_rows, so tiny or huge rows square without under- or
    overflow. xi^2 is added onto the product's diagonal in place, after a
    0.0 that turns -0.0 to 0.0 as adding a diagonal matrix would."""
    rows = _unit_rows(np.column_stack([model.xi, model.loadings()]))
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = rows[:, 1:] @ model.phi_cov @ rows[:, 1:].T
        gamma += 0.0
        gamma.flat[::len(gamma) + 1] += rows[:, 0] ** 2
    _check_total_variance(np.diag(gamma))
    return CorrelationMatrix(psi=unit_diagonal(gamma))


def _unit_rows(rows):
    """rows with row i scaled exactly by the power of two that brings its
    largest magnitude into [0.5, 1); a zero row stays zero."""
    e = np.frexp(np.max(np.abs(rows), axis=1))[1]
    return np.ldexp(rows, -e[:, None])


def _check_total_variance(var):
    """Raise naming the first alpha whose total variance (or its square
    root) `var` is zero, or is not finite because it overflowed."""
    bad = np.flatnonzero(~((var > 0) & np.isfinite(var)))
    if bad.size:
        kind = "zero" if var[bad[0]] <= 0 else "non-finite (overflowing)"
        raise ValidationError(f"alpha {bad[0]} has {kind} total variance")


def binary_eigensystem(spec):
    """Closed-form eigenvalues of the binary-cluster correlation matrix:
    one psi_A = (xi^2 + N_A phi) / (xi^2 + phi) per cluster plus
    xi^2 / (xi^2 + phi) with multiplicity N_A - 1, and rho_star =
    psi_A sqrt(N_A) / N^(3/2) of the largest psi_A, ties broken by larger
    N_A, then lower index: the one exception to eigen.top_eigenvector's tie
    rule, giving F^(-3/2) at F equal clusters where the rule gives 1/F.
    Each cluster's xi and sqrt(phi) are first scaled exactly by the power of
    two that brings the larger into [0.5, 1), as _unit_rows scales a row,
    so the sums hold at most about N_A and the ratios are as unscaled."""
    e = np.frexp(np.maximum(spec.xi, np.sqrt(spec.phi)))[1]
    xi2 = np.ldexp(spec.xi, -e) ** 2
    phi = np.ldexp(spec.phi, -2 * e)
    psi_a = (xi2 + spec.sizes * phi) / (xi2 + phi)
    top = min(range(spec.f), key=lambda a: (-psi_a[a], -spec.sizes[a], a))
    psi_t = xi2 / (xi2 + phi)
    values = [(float(psi_a[a]), 1) for a in range(spec.f)]
    values += [
        (float(psi_t[a]), int(spec.sizes[a] - 1))
        for a in range(spec.f)
        if spec.sizes[a] > 1
    ]
    rho = float(psi_a[top] * math.sqrt(spec.sizes[top]) / spec.n**1.5)
    return EigenStructure(values=values, rho_star=rho, top_cluster=top + 1)


def optimal_allocation(n, f):
    """Most even split of N alphas into F clusters and the limiting
    rho_star = F^(-3/2)."""
    if not 1 <= f <= n:
        raise ValidationError(f"need 1 <= F <= N, got F={f}, N={n}")
    floor = n // f
    f_plus = n - f * floor
    return AllocationPlan(
        f_minus=f - f_plus,
        f_plus=f_plus,
        size_floor=floor,
        size_ceiling=floor + 1 if f_plus else floor,
        rho_star_min=f**-1.5,
    )


def reduce_nondiagonal(sizes, factor_corr):
    """Eigenstructure of the binary model with non-diagonal factor
    covariance, solved in the reduced F x F problem Q PsiHat Q with
    Q = diag(sqrt(N_A))."""
    sizes = _cluster_sizes(sizes)
    factor_corr = np.asarray(factor_corr, dtype=float)
    f = len(sizes)
    n = int(sizes.sum())
    if not np.isfinite(factor_corr).all():
        raise ValidationError("factor correlation must be finite")
    if factor_corr.shape != (f, f) or np.max(np.abs(factor_corr - factor_corr.T)) > 1e-12:
        raise ValidationError("factor correlation must be symmetric F x F")
    q = np.sqrt(sizes.astype(float))
    reduced = factor_corr * np.outer(q, q)
    w, chi = np.linalg.eigh(reduced)
    # Q C Q is congruent to C, so by Sylvester's law it has C's inertia
    if w[0] <= 0:
        raise ValidationError("factor correlation must be positive definite")
    if abs(w.sum() - n) > 1e-9 * max(n, 1):
        raise NumericalError("reduced eigenvalues do not sum to N")
    return _reduced_structure(w, n, lambda k: np.dot(q, chi[:, k]))


def _reduced_structure(w, n, lifted_sum):
    """EigenStructure of an N x N correlation matrix of rank F from the
    ascending eigenvalues w of its reduced F x F problem; lifted_sum(k) is
    the component sum of the unit N-space eigenvector lifted from pair k.
    |sum V1| is the length of the uniform vector's projection onto the top
    eigenspace, eigen.top_eigenvector's tie rule in any basis; at most 1e-8,
    where that rule takes any eigenvector, both give rho_star <= 1e-8 psi1/N^1.5."""
    f = len(w)
    top = range(f - eigen.top_multiplicity(w), f)
    rho = float(w[-1] * math.hypot(*(lifted_sum(k) for k in top)) / n**1.5)
    values = [(float(x), 1) for x in w[::-1]]
    if n > f:
        values.append((0.0, n - f))
    return EigenStructure(values=values, rho_star=rho, top_cluster=1)


def reduce_nonbinary(model):
    """Eigenstructure of a zero-specific-risk model with arbitrary loadings,
    via the F x F Gram matrix lam^T lam of its row-normalized loadings
    lam = Omega L / |Omega L| (L the Cholesky factor of Phi); Omega's rows
    are scaled by _unit_rows first, which leaves lam as it is."""
    if np.any(model.xi != 0):
        raise ValidationError("nonzero specific risk: use the dense path (dense_rho_star)")
    omega_t = _unit_rows(model.loadings()) @ model.phi_chol
    with np.errstate(over="ignore"):
        sig = np.linalg.norm(omega_t, axis=1)
    _check_total_variance(sig)
    lam = omega_t / sig[:, None]
    w, vecs = np.linalg.eigh(lam.T @ lam)
    if not eigen.is_positive_definite(w):
        small = vecs[:, 0]
        cols = np.argsort(-np.abs(small))[:2]
        raise ValidationError(
            f"loadings columns are linearly dependent (columns {sorted(cols.tolist())})"
        )
    return _reduced_structure(w, model.n, lambda k: (lam @ vecs[:, k] / math.sqrt(w[k])).sum())


def deflated_eigenvalues(model):
    """(ascending eigenvalues, top pair (psi1, V1)) of a binary model's
    correlation matrix from one eigh of a G x G block, where its N alphas
    form G < N groups of repeated rows; None for a dense-mode model or
    where G = N.

    Alphas of one cluster with byte-identical xi_i, -0.0 taken as 0.0, form
    the groups. With each group's row (xi_g, one-hot) scaled by _unit_rows,
    r_g on its loading, psi's entries between groups g and h in clusters a and b are
    M_gh = r_g Phi_ab r_h / (s_g s_h) with s_g^2 = (r_g xi_g)^2 + r_g Phi_aa r_g,
    averaged with the transpose: the operations build_covariance applies to
    one-hot loadings, so M holds psi's entries bit for bit. Then
    psi = E M E^T + diag(1 - M_gg) with E the group indicators, so a group
    of c_g alphas holds c_g - 1 eigenvectors that sum to zero over it, each
    with eigenvalue 1 - M_gg, and the other G eigenvalues are those of
    sqrt(c c^T) * M + diag(1 - M_gg), psi on the normalised indicators (the
    deflation of Bunch, Nielsen and Sorensen 1978). A block eigenvector y
    lifts isometrically to y_g / sqrt(c_g) on group g, so the tie rule of
    eigen.top_eigenvector on the lifted vectors is the N-space rule."""
    if model.mode != "binary":
        return None
    # groups sort by their keys' bytes, xi's then the big-endian F - id: equal xi
    # in descending cluster order, as one-hot rows sorted, which eigh's bits need
    keys = np.rec.fromarrays([model.xi + 0.0, model.f - model.assignment],
                             dtype=[("xi", float), ("id", ">u8")])
    _, first, inverse, counts = np.unique(keys.view((np.void, keys.itemsize)), return_index=True,
                                          return_inverse=True, return_counts=True)
    if len(first) == model.n:
        return None
    cluster = model.assignment[first] - 1
    unit = _unit_rows(np.column_stack([model.xi[first], np.ones(len(first))]))
    r = unit[:, 1]
    # scaled and + 0.0 as in build_covariance, where it turns -0.0 to 0.0
    phi = r[:, None] * model.phi_cov[np.ix_(cluster, cluster)] * r[None, :] + 0.0
    s = np.sqrt(unit[:, 0] ** 2 + np.diag(phi))
    m = phi / np.outer(s, s)
    m = (m + m.T) / 2.0
    d = 1.0 - np.diag(m)
    root = np.sqrt(counts)
    block = root[:, None] * m * root[None, :]
    # for a lone alpha this is M_gg + (1 - M_gg), which rounds to exactly 1
    block[np.diag_indices_from(block)] = counts * np.diag(m) + d
    w, y = np.linalg.eigh(block)
    top = eigen.top_eigenvector(w, (y / root[:, None])[inverse])
    return np.sort(np.concatenate([w, np.repeat(d, counts - 1)])), top


def dense_rho_star(model):
    """Dense path: the EigenStructure of the model's assembled correlation
    matrix, every eigenvalue with multiplicity 1 and the top first, with
    the eigenvalues w from np.linalg.eigvalsh and the top pair from the
    matrix's `top_pair(w)`, or both from deflated_eigenvalues where a
    binary model's alphas repeat. Such a pair must have |psi V1 - psi1 V1|
    at most the spread of psi1's eigenspace plus eigen.TOP_RESIDUAL_TOL
    times psi1, the error a backward-stable eigh may leave whatever the gap
    below psi1, else NumericalError."""
    corr = build_covariance(model)
    deflated = deflated_eigenvalues(model)
    if deflated is None:
        w = np.linalg.eigvalsh(corr.psi)
        psi1, v1 = corr.top_pair(w)
    else:
        w, (psi1, v1) = deflated
        spread = psi1 - w[-eigen.top_multiplicity(w)]
        if not np.linalg.norm(corr.psi @ v1 - psi1 * v1) <= spread + eigen.TOP_RESIDUAL_TOL * psi1:
            raise NumericalError("the deflated top eigenpair fails its residual check")
    rho = float(psi1 * abs(np.sum(v1)) / model.n**1.5)
    return EigenStructure(values=[(float(x), 1) for x in w[::-1]], rho_star=rho, top_cluster=1)


def model_eigenstructure(model):
    """(EigenStructure, method tag) from the applicable closed-form
    reduction, else from the dense path (dense_rho_star), each returned as
    its solver built it. The binary closed form needs a diagonal Phi and xi
    uniform within each cluster."""
    if model.mode == "binary":
        off = model.phi_cov - np.diag(np.diag(model.phi_cov))
        xi = _cluster_xi(model) if np.max(np.abs(off)) < 1e-15 else None
        if xi is not None:
            spec = ClusterSpec(model.sizes, np.diag(model.phi_cov), xi)
            return binary_eigensystem(spec), "closed-form-binary"
        if np.all(model.xi == 0):
            return (reduce_nondiagonal(model.sizes, unit_diagonal(model.phi_cov)),
                    "closed-form-nondiagonal")
    elif np.all(model.xi == 0):
        return reduce_nonbinary(model), "reduced-nonbinary"
    return dense_rho_star(model), "dense"


def _cluster_xi(model):
    """Per-cluster specific risk of a binary model, or None where xi varies
    within a cluster: the xi of each cluster's first alpha, where every
    cluster's xi spans at most 1e-12."""
    cluster = model.assignment - 1
    lo, hi = np.full(model.f, np.inf), np.full(model.f, -np.inf)
    np.minimum.at(lo, cluster, model.xi)
    np.maximum.at(hi, cluster, model.xi)
    if np.any(hi - lo > 1e-12):
        return None
    return model.xi[np.unique(cluster, return_index=True)[1]]


def _secular_poles(sizes, rho):
    """Distinct pole positions (1-rho) N_C, of sizes checked by
    _cluster_sizes, with their multiplicities."""
    uniq, counts = np.unique(sizes, return_counts=True)
    return uniq, counts, (1.0 - rho) * uniq.astype(float)


def secular_roots(sizes, rho):
    """Eigenvalues of the uniform-factor-correlation reduced matrix, as the
    roots of rho * sum_C N_C / (psi - (1-rho) N_C) = 1.

    Returns F values in descending order. rho = 1 is handled analytically
    (one eigenvalue N, the rest zero).
    """
    sizes = _cluster_sizes(sizes)
    f = len(sizes)
    n = float(sizes.sum())
    if not 0 <= rho <= 1:  # also rejects NaN
        raise ValidationError("factor correlation must lie in [0, 1]")
    if rho == 1.0:
        return np.array([n] + [0.0] * (f - 1))
    if rho == 0.0:
        return np.sort(sizes.astype(float))[::-1]
    if f == 1:
        return np.array([n])

    uniq, counts, poles = _secular_poles(sizes, rho)
    weights = counts * uniq.astype(float)
    # m-fold duplicated sizes pin m-1 eigenvalues exactly at their pole
    roots = np.repeat(poles, counts - 1)

    # one root strictly inside each gap between consecutive distinct poles,
    # and one above the largest pole, below n (1 + rho); the secular
    # function falls across each gap, from +inf to -inf (to below 0 in the
    # last). All gaps are bisected at once on the integer view of their
    # float ends, which orders positive floats as their values do, until
    # each gap is two adjacent floats: at most 63 halvings.
    lo = poles.view(np.int64).copy()
    hi = np.append(poles[1:], n * (1.0 + rho)).view(np.int64)
    while (wide := np.flatnonzero(hi - lo > 1)).size:
        mid = lo[wide] + (hi[wide] - lo[wide]) // 2
        x = mid.view(float)
        below = rho * np.sum(weights / (x[:, None] - poles), axis=1) > 1.0
        lo[wide[below]] = mid[below]
        hi[wide[~below]] = mid[~below]
    # the end that is not a pole is hi: a root can lie within one float
    # above its gap's lower pole, but it lies more than a fraction 1/(2N)
    # of the upper pole below that pole, which for N < 2^51 is more than a
    # float
    roots = np.concatenate([roots, hi.view(float)])

    roots = np.sort(roots)[::-1]
    if abs(roots.sum() - n) > 1e-9 * max(n, 1.0):
        raise NumericalError("secular roots do not sum to N")
    return roots


@dataclass
class SecularRootCheck:
    root: float
    chi_tilde_sq: float
    identity_rhs: float
    discrepancy: float
    skipped: bool = False


def secular_identity_check(sizes, rho, step=1e-5):
    """Verify, per simple root, that (sum_B sqrt(N_B) chi_B)^2 equals
    psi + (1-rho) d(psi)/d(rho) via central differences."""
    sizes = _cluster_sizes(sizes)
    if not (0 < rho - step and rho + step < 1):
        raise ValidationError("need rho +/- step inside (0, 1)")
    uniq, counts, poles = _secular_poles(sizes, rho)
    weights = counts * uniq.astype(float)
    roots = secular_roots(sizes, rho)
    roots_lo = np.sort(secular_roots(sizes, rho - step))
    roots_hi = np.sort(secular_roots(sizes, rho + step))
    order = np.argsort(roots)
    reports = [None] * len(roots)
    for pos, idx in enumerate(order):
        psi = roots[idx]
        if np.any(np.abs(psi - poles) < 1e-9 * max(psi, 1.0)):
            reports[idx] = SecularRootCheck(
                root=psi, chi_tilde_sq=float("nan"), identity_rhs=float("nan"),
                discrepancy=float("nan"), skipped=True,
            )
            continue
        s2 = np.sum(weights / (psi - poles) ** 2)
        chi_tilde_sq = 1.0 / (rho**2 * s2)
        dpsi = (roots_hi[pos] - roots_lo[pos]) / (2.0 * step)
        rhs = psi + (1.0 - rho) * dpsi
        reports[idx] = SecularRootCheck(
            root=psi,
            chi_tilde_sq=float(chi_tilde_sq),
            identity_rhs=float(rhs),
            discrepancy=float(abs(chi_tilde_sq - rhs)),
        )
    return reports


def secular_f2_closed_form(n1, n2, rho):
    """Two-cluster eigenvalues
    (N1 + N2 +/- sqrt((N1 - N2)^2 + 4 N1 N2 rho^2)) / 2."""
    disc = math.sqrt((n1 - n2) ** 2 + 4.0 * n1 * n2 * rho**2)
    return (n1 + n2 + disc) / 2.0, (n1 + n2 - disc) / 2.0
