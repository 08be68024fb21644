"""Spectral and factor-model estimation of portfolio turnover reduction
across alpha streams.

Importing the package loads none of its modules: each public name below
imports its module, and with it numpy, on first use (PEP 562).
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ["NumericalError", "ValidationError"],
        "panel": ["AlphaPanel", "CorrelationMatrix", "canonicalize_signs", "deform_correlation",
                  "load_panel", "pairwise_correlation", "regress_out"],
        "spectral": ["SpectralSummary", "spectral_summary"],
        "factor_model": ["AllocationPlan", "ClusterSpec", "EigenStructure", "FactorModel",
                         "binary_eigensystem", "build_covariance", "dense_rho_star",
                         "optimal_allocation", "reduce_nonbinary", "reduce_nondiagonal",
                         "secular_identity_check", "secular_roots"],
        "clusters": ["ClusterCountEstimate", "FTestReport", "SweepCurve", "knee_estimate",
                     "lower_bound_F", "new_cluster_ftest", "residual_correlation_sweep"],
        "synth": ["SynthConfig", "gen_cluster_spec", "gen_factor_correlation", "gen_model",
                  "gen_panel"],
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
