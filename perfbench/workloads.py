"""The benchmark's workloads: seeded input files, the CLI command list of
each workload, and an oracle check for every command's outputs.

A workload's commands run on large inputs and are what the end-to-end
metrics time. Its probes are commands on small inputs (labels starting
with ``probe_``) that run only in the traced run, where they cost
milliseconds: they reach the layers the workload's own commands do not, so
every per-layer metric is measured on every workload. See README.md for
why each workload was chosen.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import inputs
import oracle
from oracle import Mismatch, close

FACTOR_RHO = 0.3
NA_FRAC = 0.05
FLIP_FRAC = 0.3
KMAX = 10
WINSOR = 0.05
RHO_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

# Sizes of the large inputs, chosen so that one pass over a workload's
# commands takes a few seconds on a 2-core machine (see README.md).
PANEL = dict(n=500, m=500, clusters=40)
FTEST = dict(n=500, m=500, clusters=50, n_new=20)
SYNTH = dict(n=500, m=500, clusters=40)
CORR = dict(n=1200, m=600, clusters=40)
BINARY = dict(n=1600, clusters=100)
DENSE = dict(n=1000, factors=20)
# (label, diagonal Phi, xi != 0): closed-form binary, closed-form
# non-diagonal and the dense fallback
BINARY_MODELS = [("binary_diag_xi", True, True), ("binary_nondiag", False, False),
                 ("binary_nondiag_xi", False, True)]

# Probe sizes: large enough to be rank-deficient where the big input is.
PROBE_PANEL = dict(n=100, m=60, clusters=10)
PROBE_FTEST = dict(n=60, m=60, clusters=6, n_new=6)
PROBE_SYNTH = dict(n=60, m=60, clusters=6)
PROBE_CORR = dict(n=100, m=60, clusters=10)
PROBE_MODEL = dict(n=60, clusters=6)


@dataclass
class Command:
    cmd: str  # CLI subcommand
    label: str  # unique within a workload
    argv: list
    outputs: list
    check: Callable[[], None]  # raises oracle.Mismatch


@dataclass
class Workload:
    name: str
    seed: int
    work: str
    commands: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)  # file name -> sha256
    _stream: int = 0

    def gen(self):
        """A fresh PCG64 stream; streams are numbered in build order."""
        self._stream += 1
        return inputs.rng(self.seed, self._stream)

    def path(self, name):
        return os.path.join(self.work, name)

    def record(self, *paths):
        for p in paths:
            self.inputs[os.path.basename(p)] = inputs.sha256(p)

    def add(self, cmd, label, argv, outputs, check):
        target = self.probes if label.startswith("probe_") else self.commands
        target.append(Command(cmd, label, argv, [self.path(o) for o in outputs], check))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- analyze ---------------------------------------------------------------

def _check_analyze(out, want, signs):
    """psi1, deformed and the bound against the oracle; the signs must be a
    fixed point of the greedy flip (no row sum negative), and v1 must be
    the oracle's top eigenvector of D Psi D, with D the reported signs (or
    I with --raw-basis); rho_star then follows from the oracle's psi1."""
    doc = _read_json(out)
    n = want["n"]
    close("psi1", doc["psi1"], want["psi1"], rtol=1e-8)
    if doc["deformed"] != want["deformed"]:
        raise Mismatch(f"deformed is {doc['deformed']}, expected {want['deformed']}")
    close("cluster_lower_bound", doc["cluster_lower_bound"], n / want["psi1"], rtol=1e-8)
    if signs != ("signs" in doc):
        raise Mismatch("signs present" if not signs else "signs missing")
    d = np.ones(n)
    if signs:
        d = np.asarray(doc["signs"], dtype=float)
        if d.shape != (n,) or not set(d.tolist()) <= {1.0, -1.0}:
            raise Mismatch("signs must be N values of +-1")
        rows = d * (want["psi"] @ d) - np.diag(want["psi"])
        if rows.min() < -1e-9:
            raise Mismatch(f"signs are not a greedy fixed point: a row sum is {rows.min():.3g}")
    u1 = d * want["u1"]
    v1 = np.asarray(doc["v1"], dtype=float)
    if v1.shape != (n,):
        raise Mismatch(f"v1 has {v1.size} entries, expected {n}")
    close("v1", v1 * np.sign(v1 @ u1), u1, rtol=0.0, atol=1e-7)
    close("rho_star", doc["rho_star"], want["psi1"] * abs(u1.sum()) / n**1.5, rtol=1e-7)


def add_panel_analyze(w, size, label, both):
    """A seeded panel (NA cells, sign-flipped columns) and its 3-column
    factor panel; `analyze --deform` with signs, and when `both`, also
    `--factors --raw-basis`. The probe form runs one command that covers
    both: `--factors --deform` with signs."""
    n, m = size["n"], size["m"]
    values, _ = inputs.cluster_panel(
        w.gen(), n, m, size["clusters"], FACTOR_RHO, NA_FRAC, FLIP_FRAC
    )
    factors = w.gen().standard_normal((m, 3))
    panel, fac = w.path(f"{label}.csv"), w.path(f"{label}_factors.csv")
    inputs.write_panel(panel, inputs.labels("a", n), values)
    inputs.write_panel(fac, ["f1", "f2", "f3"], factors)
    w.record(panel, fac)
    resid = oracle.analyze(oracle.pairwise_correlation(oracle.regress_out(values, factors)), True)
    if both:
        plain = oracle.analyze(oracle.pairwise_correlation(values), True)
        out = f"{label}_analyze.json"
        w.add("analyze", f"{label}:analyze-deform", ["analyze", panel, "--deform", "--out", w.path(out)],
              [out], lambda: _check_analyze(w.path(out), plain, signs=True))
        out2 = f"{label}_analyze_factors.json"
        w.add("analyze", f"{label}:analyze-factors-raw",
              ["analyze", panel, "--factors", fac, "--deform", "--raw-basis", "--out", w.path(out2)],
              [out2], lambda: _check_analyze(w.path(out2), resid, signs=False))
    else:
        out = f"{label}_analyze.json"
        w.add("analyze", f"{label}:analyze-factors",
              ["analyze", panel, "--factors", fac, "--deform", "--out", w.path(out)],
              [out], lambda: _check_analyze(w.path(out), resid, signs=True))


# -- correlation matrix: clusters and analyze --corr -------------------------

def _check_sweep(out, summary, want):
    rows = _read_csv(out)
    if rows[0] != ["K", "zeta1", "zeta2"]:
        raise Mismatch(f"sweep header {rows[0]}")
    ks = [int(r[0]) for r in rows[1:]]
    if ks != want["K"]:
        raise Mismatch(f"sweep K {ks}, expected {want['K']}")
    close("zeta1", [float(r[1]) for r in rows[1:]], want["zeta1"], rtol=1e-7, atol=1e-10)
    close("zeta2", [float(r[2]) for r in rows[1:]], want["zeta2"], rtol=1e-7, atol=1e-10)
    if _read_json(summary)["knee"] not in ks:
        raise Mismatch("knee is not one of the swept K")


def add_corr(w, size, label, with_analyze):
    """Sample correlation of a full panel with fewer observations than
    alphas: rank-deficient, so `--deform` fires. `clusters --deform`, and
    when with_analyze, `analyze --corr --deform`."""
    n = size["n"]
    values, _ = inputs.cluster_panel(w.gen(), n, size["m"], size["clusters"], FACTOR_RHO)
    psi = inputs.sample_correlation(values)
    path = w.path(f"{label}.csv")
    inputs.write_corr(path, inputs.labels("c", n), psi)
    w.record(path)
    deformed = oracle.deform(psi) if oracle.needs_deform(psi) else psi
    want = oracle.sweep(deformed, KMAX)
    out, summary = f"{label}_sweep.csv", f"{label}_knee.json"
    w.add("clusters", f"{label}:clusters",
          ["clusters", path, "--kmax", str(KMAX), "--deform", "--out", w.path(out),
           "--summary-out", w.path(summary)],
          [out, summary], lambda: _check_sweep(w.path(out), w.path(summary), want))
    if with_analyze:
        want_a = oracle.analyze(psi, True)
        out_a = f"{label}_analyze.json"
        w.add("analyze", f"{label}:analyze-corr",
              ["analyze", path, "--corr", "--deform", "--out", w.path(out_a)],
              [out_a], lambda: _check_analyze(w.path(out_a), want_a, signs=True))


# -- ftest -----------------------------------------------------------------

def _check_ftest(out, summary, want):
    """Per-time F values, then the summary: the skipped times, the
    winsorized medians and the verdict they give."""
    rows = _read_csv(out)
    if rows[0] != ["time", "f_old", "f_new"]:
        raise Mismatch(f"ftest header {rows[0]}")
    times = [r[0] for r in rows[1:]]
    if times != [str(t) for t in want["kept"]]:
        raise Mismatch(f"ftest kept {len(times)} times, expected {len(want['kept'])}")
    close("f_old", [float(r[1]) for r in rows[1:]], want["f_old"], rtol=1e-8)
    close("f_new", [float(r[2]) for r in rows[1:]], want["f_new"], rtol=1e-8)
    doc = _read_json(summary)
    if doc["n_times"] != len(want["kept"]):
        raise Mismatch("ftest summary n_times")
    if [str(t) for t in doc["skipped_times"]] != [str(t) for t in want["skipped"]]:
        raise Mismatch("ftest summary skipped_times")
    close("median_f_old", doc["median_f_old"], want["median_old"], rtol=1e-8)
    close("median_f_new", doc["median_f_new"], want["median_new"], rtol=1e-8)
    if doc["verdict"] != (doc["median_f_new"] > doc["median_f_old"]):
        raise Mismatch(f"ftest verdict {doc['verdict']} does not follow from the medians")


def add_ftest(w, size, label):
    """Old alphas in F clusters; the new panel adds n_new alphas that form
    cluster F+1. Both panels have NA cells."""
    n, m, f, n_new = size["n"], size["m"], size["clusters"], size["n_new"]
    old, asg = inputs.cluster_panel(w.gen(), n, m, f, FACTOR_RHO, NA_FRAC)
    new, _ = inputs.cluster_panel(w.gen(), n_new, m, 1, FACTOR_RHO, NA_FRAC)
    values = np.hstack([old, new])
    asg = np.concatenate([asg, np.full(n_new, f + 1)])
    names = inputs.labels("a", n + n_new)
    paths = [w.path(f"{label}_{x}.csv") for x in ("old", "old_loadings", "new", "new_loadings")]
    inputs.write_panel(paths[0], names[:n], values[:, :n])
    inputs.write_loadings(paths[1], names[:n], asg[:n])
    inputs.write_panel(paths[2], names, values)
    inputs.write_loadings(paths[3], names, asg)
    w.record(*paths)
    kept_o, f_old = oracle.ftest(values[:, :n], asg[:n], f)
    kept_n, f_new = oracle.ftest(values, asg, f + 1)
    kept = np.intersect1d(kept_o, kept_n)
    f_old = f_old[np.isin(kept_o, kept)]
    f_new = f_new[np.isin(kept_n, kept)]
    want = {"kept": kept, "skipped": np.setdiff1d(np.arange(m), kept), "f_old": f_old,
            "f_new": f_new, "median_old": oracle.winsorized_median(f_old, WINSOR),
            "median_new": oracle.winsorized_median(f_new, WINSOR)}
    out, summary = f"{label}_ftest.csv", f"{label}_ftest.json"
    w.add("ftest", f"{label}:ftest",
          ["ftest", *paths, "--winsor", str(WINSOR), "--out", w.path(out),
           "--summary-out", w.path(summary)],
          [out, summary], lambda: _check_ftest(w.path(out), w.path(summary), want))


# -- synth -----------------------------------------------------------------

class _SynthCheck:
    """Full check of the first synth output; later runs must reproduce its
    bytes exactly (synth output is byte-stable per seed)."""

    def __init__(self, panel, model, size):
        self.panel, self.model, self.size = panel, model, size
        self.digest = None

    def __call__(self):
        digest = (inputs.sha256(self.panel), inputs.sha256(self.model))
        if self.digest is not None:
            if digest != self.digest:
                raise Mismatch("synth output differs between runs with the same seed")
            return
        n, m, f = self.size["n"], self.size["m"], self.size["clusters"]
        rows = _read_csv(self.panel)
        if len(rows) != m + 1 or len(rows[0]) != n + 1 or rows[0][0] != "time":
            raise Mismatch("synth panel shape")
        cells = [c for r in rows[1:] for c in r[1:]]
        values = np.array(cells, dtype=float).reshape(m, n)
        if not np.all(np.isfinite(values)):
            raise Mismatch("synth panel has non-finite cells")
        if any("%.17g" % v != c for v, c in zip(values.ravel().tolist(), cells)):
            raise Mismatch("synth panel cells do not reload to the same values")
        doc = _read_json(self.model)
        phi = np.asarray(doc["phi"])
        sizes = np.asarray(doc["sizes"])
        if phi.shape != (f, f) or sizes.sum() != n or np.ptp(sizes) > 1:
            raise Mismatch("synth model shape")
        corr = phi / np.sqrt(np.outer(np.diag(phi), np.diag(phi)))
        off = corr[~np.eye(f, dtype=bool)]
        close("factor correlation", off, np.full_like(off, FACTOR_RHO), rtol=1e-12)
        # total variance of the panel against the model's, within 6 sigma
        asg = np.asarray(doc["assignment"]) - 1
        model_var = np.asarray(doc["xi"]) ** 2 + np.diag(phi)[asg]
        ratio = values.var(axis=0, ddof=1).sum() / model_var.sum()
        if abs(ratio - 1.0) > 6.0 * math.sqrt(2.0 / (m * f)):
            raise Mismatch(f"synth panel variance is {ratio:.3f} of the model's")
        self.digest = digest


def add_synth(w, size, label):
    panel, model = f"{label}_panel.csv", f"{label}_model.json"
    w.add("synth", f"{label}:synth",
          ["synth", "--seed", str(w.seed), "--n", str(size["n"]), "--clusters",
           str(size["clusters"]), "--n-obs", str(size["m"]), "--factor-rho", str(FACTOR_RHO),
           "--panel-out", w.path(panel), "--model-out", w.path(model)],
          [panel, model], _SynthCheck(w.path(panel), w.path(model), size))


# -- model -----------------------------------------------------------------

def _check_eigen(out, want):
    doc = _read_json(out)
    vals = [v["value"] for v in doc["values"] for _ in range(v["mult"])]
    scale = max(1.0, want["values"][0])
    close("eigenvalues", np.sort(vals)[::-1], want["values"], rtol=0.0, atol=1e-8 * scale)
    close("rho_star", doc["rho_star"], want["rho_star"], rtol=1e-8)


def _check_rho_star(out, want):
    close("rho_star", _read_json(out)["rho_star"], want["rho_star"], rtol=1e-8)


def _check_rho_curve(out, want):
    rows = _read_csv(out)
    if rows[0] != ["rho", "psi_star"] or [float(r[0]) for r in rows[1:]] != RHO_GRID:
        raise Mismatch("rho-curve grid")
    close("psi_star", [float(r[1]) for r in rows[1:]], want, rtol=1e-9)


def add_model(w, label, doc, ops=("eigen",)):
    path = w.path(f"{label}.json")
    inputs.write_json(path, doc)
    w.record(path)
    want = oracle.model_eigen(doc)
    for op in ops:
        out = f"{label}_{op}.out"
        argv = ["model", path, "--op", op, "--out", w.path(out)]
        if op == "eigen":
            check = lambda out=out: _check_eigen(w.path(out), want)
        elif op == "rho-star":
            check = lambda out=out: _check_rho_star(w.path(out), want)
        else:
            curve = oracle.rho_curve(doc["sizes"], RHO_GRID)
            check = lambda out=out: _check_rho_curve(w.path(out), curve)
        w.add("model", f"{label}:{op}", argv, [out], check)


def add_probe_models(w):
    """One small model per model_eigenstructure path, with rho-curve on the
    non-diagonal binary one, so every factor_model layer is reached."""
    n, f = PROBE_MODEL["n"], PROBE_MODEL["clusters"]
    for label, diagonal, specific in BINARY_MODELS:
        doc = inputs.binary_model(w.gen(), n, f, FACTOR_RHO, diagonal=diagonal, specific=specific)
        ops = ("eigen", "rho-curve") if label == "binary_nondiag" else ("eigen",)
        add_model(w, f"probe_{label}", doc, ops)
    add_model(w, "probe_dense", inputs.dense_model(w.gen(), n, f, FACTOR_RHO, specific=False))


# -- workloads -------------------------------------------------------------

def build_panel(w):
    add_panel_analyze(w, PANEL, "panel", both=True)
    add_ftest(w, FTEST, "ftest")
    add_synth(w, SYNTH, "synth")
    add_corr(w, PROBE_CORR, "probe_corr", with_analyze=False)
    add_probe_models(w)


def build_corr(w):
    add_corr(w, CORR, "corr", with_analyze=True)
    add_panel_analyze(w, PROBE_PANEL, "probe_panel", both=False)
    add_ftest(w, PROBE_FTEST, "probe_ftest")
    add_synth(w, PROBE_SYNTH, "probe_synth")
    add_probe_models(w)


def build_model(w):
    n, f = BINARY["n"], BINARY["clusters"]
    for label, diagonal, specific in BINARY_MODELS:
        doc = inputs.binary_model(w.gen(), n, f, FACTOR_RHO, diagonal=diagonal, specific=specific)
        # the unequal-size model without specific risk also runs rho-star and rho-curve
        ops = ("eigen", "rho-star", "rho-curve") if label == "binary_nondiag" else ("eigen",)
        add_model(w, label, doc, ops)
    n, f = DENSE["n"], DENSE["factors"]
    for label, specific in [("dense", False), ("dense_xi", True)]:
        add_model(w, label, inputs.dense_model(w.gen(), n, f, FACTOR_RHO, specific=specific))
    add_panel_analyze(w, PROBE_PANEL, "probe_panel", both=False)
    add_corr(w, PROBE_CORR, "probe_corr", with_analyze=False)
    add_ftest(w, PROBE_FTEST, "probe_ftest")
    add_synth(w, PROBE_SYNTH, "probe_synth")


BUILDERS = {"panel": build_panel, "corr": build_corr, "model": build_model}


def build(name, seed, work):
    """Write the workload's inputs under `work` and return it with its
    command list and the sha256 of every input file."""
    os.makedirs(work, exist_ok=True)
    w = Workload(name, seed, work)
    BUILDERS[name](w)
    return w
