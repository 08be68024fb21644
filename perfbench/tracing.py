"""Timing wrappers for the traced run.

The traced run calls ``alphaturn.cli.main(argv)`` in-process after
replacing module attributes of the library and the ``numpy.linalg`` entry
points with wrappers that record spans. The library reaches these through
module attributes and globals (``panel_mod.load_panel``, ``_is_psd`` ->
``np.linalg.eigvalsh``), so every call goes through a wrapper and no
program file changes.

A span's self time is its duration minus the time of the spans it caused.
Decompositions (``eigh``, ``eigvalsh``, ``cholesky``) are also counted:
``redundant`` counts calls on matrix content already decomposed within the
same command, and ``n3_computed`` sums n^3 taken from the array shapes.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = {
    "panel": ["load_panel", "save_panel", "load_correlation", "pairwise_correlation",
              "regress_out", "canonicalize_signs", "deform_correlation"],
    "spectral": ["spectral_summary"],
    "clusters": ["lower_bound_F", "residual_correlation_sweep", "new_cluster_ftest"],
    "factor_model": ["build_covariance", "dense_rho_star", "binary_eigensystem",
                     "reduce_nondiagonal", "reduce_nonbinary", "secular_roots"],
    "synth": ["gen_model", "gen_panel"],
    "cli": ["model_eigenstructure"],
}
# span name -> index of the argument holding the path of the file read or written
FILE_ARG = {"panel.load_panel": 0, "panel.save_panel": 1, "panel.load_correlation": 0}
DECOMPOSITIONS = ["eigh", "eigvalsh", "cholesky"]


class Tracer:
    def __init__(self):
        self._open = []  # child-time accumulator of each open span
        self._seen = set()  # digests of matrices decomposed in this command
        self._patched = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.bytes = Counter()
        self.counts = Counter()

    def _enter(self):
        self._open.append(0.0)
        return time.perf_counter()

    def _leave(self, name, start):
        dur = time.perf_counter() - start
        child = self._open.pop()
        if self._open:
            self._open[-1] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        return dur

    def _exclude(self, seconds):
        """Keep tracer bookkeeping out of the enclosing span's self time."""
        if self._open:
            self._open[-1] += seconds

    def span(self, name, fn):
        file_arg = FILE_ARG.get(name)

        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, start)
            if file_arg is not None:
                self.bytes[name] += os.path.getsize(args[file_arg])
            if name == "cli.model_eigenstructure":
                self.counts[f"cli.method.{result[1]}.count"] += 1
            return result

        return wrapper

    def decomposition(self, fn):
        def wrapper(a, *args, **kwargs):
            t0 = time.perf_counter()
            arr = np.ascontiguousarray(a)
            digest = hashlib.sha1(arr.view(np.uint8).reshape(-1)).digest() + repr(arr.shape).encode()
            self.counts["linalg.decomp.calls"] += 1
            self.counts["linalg.decomp.redundant"] += digest in self._seen
            self.counts["linalg.decomp.n3_computed"] += arr.shape[-1] ** 3
            self._seen.add(digest)
            self._exclude(time.perf_counter() - t0)
            start = self._enter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._leave("linalg.decomp", start)

        return wrapper

    def command(self, name, main, argv):
        """Run main(argv) as the root span of one command; returns
        (exit code, seconds)."""
        self._seen.clear()
        start = self._enter()
        try:
            code = main(argv)
        finally:
            dur = self._leave(name, start)
        return code, dur

    def install(self, modules):
        """Patch the layers of `modules` (name -> module) and numpy.linalg."""
        for mod_name, names in LAYERS.items():
            for attr in names:
                self._patch(modules[mod_name], attr, self.span(f"{mod_name}.{attr}",
                                                               getattr(modules[mod_name], attr)))
        for attr in DECOMPOSITIONS:
            self._patch(np.linalg, attr, self.decomposition(getattr(np.linalg, attr)))
        self._patch(np.linalg, "lstsq", self.span("linalg.lstsq", np.linalg.lstsq))

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
