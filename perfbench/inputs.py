"""Seeded input files for the benchmark workloads.

Everything here is the benchmark's own numpy code: it never calls
``alphaturn.synth`` or ``alphaturn.panel.save_panel``, so a change to those
cannot change the inputs. All randomness comes from PCG64 streams keyed by
``(seed, stream)``; the same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def rng(seed, stream):
    return np.random.Generator(np.random.PCG64([seed, stream]))


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def labels(prefix, n, start=0):
    width = len(str(start + n))
    return [f"{prefix}{i:0{width}d}" for i in range(start, start + n)]


def cluster_sizes(gen, n, f):
    """Unequal cluster sizes (each at least 2) summing to n."""
    cuts = np.sort(gen.choice(np.arange(1, n // 2), size=f - 1, replace=False))
    sizes = np.diff(np.concatenate(([0], cuts, [n // 2]))) * 2
    sizes[-1] += n - sizes.sum()
    return sizes


def cluster_panel(gen, n, m, f, factor_rho, na_frac=0.0, flip_frac=0.0):
    """Returns (values (m, n), 1-based assignment) for a binary cluster model
    with uniform factor correlation, per-cluster factor variance in
    [0.5, 2] and per-alpha specific risk in [0.5, 1.5]; a share flip_frac
    of the columns is sign-flipped and a share na_frac of cells is NaN."""
    assignment = np.repeat(np.arange(1, f + 1), cluster_sizes(gen, n, f))
    gen.shuffle(assignment)
    phi = gen.uniform(0.5, 2.0, f)
    fcorr = np.full((f, f), factor_rho)
    np.fill_diagonal(fcorr, 1.0)
    chol = np.linalg.cholesky(fcorr * np.sqrt(np.outer(phi, phi)))
    factors = gen.standard_normal((m, f)) @ chol.T
    xi = gen.uniform(0.5, 1.5, n)
    values = factors[:, assignment - 1] + xi * gen.standard_normal((m, n))
    values *= np.where(gen.random(n) < flip_frac, -1.0, 1.0)
    if na_frac:
        values[gen.random((m, n)) < na_frac] = np.nan
    return values, assignment


def _cell(v):
    return "NA" if v != v else repr(v)


def write_panel(path, col_labels, values):
    """Panel CSV: header ``time,<labels>``, integer times, NA for NaN."""
    lines = ["time," + ",".join(col_labels)]
    for s, row in enumerate(values.tolist()):
        lines.append(f"{s}," + ",".join(map(_cell, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_corr(path, col_labels, psi):
    lines = ["," + ",".join(col_labels)]
    for lab, row in zip(col_labels, psi.tolist()):
        lines.append(lab + "," + ",".join(map(repr, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_loadings(path, col_labels, assignment):
    lines = ["alpha,cluster"] + [f"{a},{c}" for a, c in zip(col_labels, assignment)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def sample_correlation(values):
    """Exactly symmetric, unit-diagonal sample correlation of full columns."""
    x = values - values.mean(axis=0)
    x /= np.linalg.norm(x, axis=0)
    psi = x.T @ x
    psi = np.clip((psi + psi.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(psi, 1.0)
    return psi


def factor_covariance(gen, f, rho, diagonal=False):
    """F x F factor covariance: variances in [0.5, 2], correlation rho
    off the diagonal unless diagonal."""
    phi = gen.uniform(0.5, 2.0, f)
    corr = np.eye(f) if diagonal else np.full((f, f), rho) + (1.0 - rho) * np.eye(f)
    return corr * np.sqrt(np.outer(phi, phi))


def binary_model(gen, n, f, rho, diagonal, specific):
    """Binary model document (sizes and per-cluster specific risk)."""
    sizes = cluster_sizes(gen, n, f)
    phi = factor_covariance(gen, f, rho, diagonal)
    xi_c = gen.uniform(0.3, 1.0, f) if specific else np.zeros(f)
    return {
        "mode": "binary",
        "sizes": sizes.tolist(),
        "phi": phi.tolist(),
        "xi": np.repeat(xi_c, sizes).tolist(),
    }


def dense_model(gen, n, f, rho, specific):
    """Dense model document with positive loadings."""
    return {
        "mode": "dense",
        "omega": gen.uniform(0.0, 1.0, (n, f)).tolist(),
        "phi": factor_covariance(gen, f, rho).tolist(),
        "xi": (gen.uniform(0.3, 1.0, n) if specific else np.zeros(n)).tolist(),
    }
