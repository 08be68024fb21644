"""Command-line pipeline: panel analysis, cluster-count estimation, factor
model eigenstructures, synthetic data generation and the new-cluster
F-test.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.

Each command imports the library modules it calls, and numpy with them,
once its arguments have parsed: --help, usage errors and --config errors
load no numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import NumericalError, ValidationError, read_file


def model_eigenstructure(model):
    """factor_model.model_eigenstructure, looked up by name in this module
    so that the CLI's solve can be replaced or timed on its own."""
    from . import factor_model as fm

    return fm.model_eigenstructure(model)


def _emit(text, out_path):
    text = text if text.endswith("\n") else text + "\n"
    if out_path:
        from .panel import _atomic_write

        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _read_json_object(path, kind):
    try:
        doc = read_file(path, kind, json.load)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: {kind} must be a JSON object")
    return doc


def cmd_analyze(args):
    from . import clusters as clusters_mod
    from . import panel as panel_mod
    from . import spectral as spectral_mod

    if args.corr:
        for flag, value in [("--factors", args.factors), ("--min-overlap", args.min_overlap),
                            ("--na-policy", args.na_policy)]:
            if value is not None:
                raise ValidationError(f"{flag} needs a panel input; it cannot be used with --corr")
        corr = panel_mod.load_correlation(args.input)
    else:
        na_policy = args.na_policy or "literal_NA"
        min_overlap = 12 if args.min_overlap is None else args.min_overlap
        panel_mod.check_min_overlap(min_overlap)
        panel = panel_mod.load_panel(args.input, na_policy=na_policy)
        if args.factors:
            factors = panel_mod.load_panel(args.factors, na_policy=na_policy)
            panel = panel_mod.regress_out(panel, factors)
        corr = panel_mod.pairwise_correlation(panel, min_overlap=min_overlap)
    deformed = False
    if args.deform and not corr.psd:
        corr = panel_mod.deform_correlation(corr)
        deformed = True
    signs = None
    if not args.raw_basis:
        signs, corr = panel_mod.canonicalize_signs(corr)
        signs = signs.tolist()
    doc = {**spectral_mod.spectral_summary(corr).to_dict(),
           "cluster_lower_bound": clusters_mod.lower_bound_F(corr).lower_bound,
           "deformed": deformed}
    if signs is not None:
        doc["signs"] = signs
    _emit(json.dumps(doc, indent=2), args.out)


def cmd_clusters(args):
    from . import clusters as clusters_mod
    from . import panel as panel_mod

    clusters_mod.check_knee_args(args.rel_drop, args.window)
    clusters_mod.check_k_max(args.kmax)
    corr = panel_mod.load_correlation(args.input)
    if not corr.psd:
        if not args.deform:
            raise ValidationError(
                "correlation matrix is not positive definite; pass --deform"
            )
        corr = panel_mod.deform_correlation(corr)
    curve = clusters_mod.residual_correlation_sweep(corr, args.kmax)
    knee, flat = clusters_mod.knee_estimate(
        curve, rel_drop=args.rel_drop, window=args.window
    )
    _emit(curve.to_csv(), args.out)
    summary = json.dumps({"knee": knee, "flat": flat, "rank_used": curve.rank_used})
    if args.summary_out:
        _emit(summary, args.summary_out)
    elif args.out:
        sys.stdout.write(summary + "\n")


def cmd_model(args):
    from . import factor_model as fm
    from . import panel as panel_mod

    model = fm.FactorModel.from_doc(_read_json_object(args.input, "model"))
    if args.op in ("eigen", "rho-star"):
        structure, method = model_eigenstructure(model)
        doc = structure.to_dict() if args.op == "eigen" else {"rho_star": structure.rho_star}
        _emit(json.dumps({**doc, "method": method}), args.out)
    elif args.op == "rho-curve":
        if model.mode != "binary":
            raise ValidationError("rho-curve requires a binary model")
        try:
            grid = [float(x) for x in args.grid.split(",")]
        except ValueError as exc:
            raise ValidationError(f"--grid: {exc}") from None
        sizes = model.sizes
        rows = [(rho, fm.secular_roots(sizes, rho)[0]) for rho in grid]
        _emit(panel_mod.format_csv(["rho", "psi_star"], rows), args.out)
    elif args.op == "sweep-f":
        if args.fmax < 1:
            raise ValidationError(f"--fmax must be at least 1, got {args.fmax}")
        fs = range(1, args.fmax + 1)
        _emit(panel_mod.format_csv(["F", "rho_star_min"], [[f ** -1.5] for f in fs], fs), args.out)


def cmd_synth(args):
    from . import panel as panel_mod
    from . import synth as synth_mod

    if args.factor_rho != "random":
        try:
            args.factor_rho = float(args.factor_rho)
        except ValueError:
            raise ValidationError(
                f"--factor-rho must be a number or 'random', got {args.factor_rho!r}"
            ) from None
    config = synth_mod.SynthConfig(
        seed=args.seed,
        n_alphas=args.n,
        n_clusters=args.clusters,
        n_obs=args.n_obs,
        phi_range=tuple(args.phi_range),
        xi_range=tuple(args.xi_range),
        factor_rho=args.factor_rho,
        size_scheme=args.size_scheme,
    )
    model = synth_mod.gen_model(config)
    panel = synth_mod.gen_panel(model, config.n_obs, config.seed + 2)
    panel_mod.save_panel(panel, args.panel_out)
    _emit(model.to_json(), args.model_out)


def cmd_ftest(args):
    from . import clusters as clusters_mod
    from . import panel as panel_mod

    clusters_mod.check_winsor(args.winsor)
    panel = panel_mod.load_panel(args.panel, na_policy="literal_NA")
    panel_new = panel_mod.load_panel(args.panel_new, na_policy="literal_NA")
    omega_old = clusters_mod.load_loadings(args.omega_old, panel.labels)
    omega_new = clusters_mod.load_loadings(args.omega_new, panel_new.labels)
    report = clusters_mod.new_cluster_ftest(
        panel, omega_old, panel_new, omega_new, winsor=args.winsor
    )
    _emit(report.to_csv(), args.out)
    if args.summary_out:
        _emit(report.to_json(), args.summary_out)
    elif args.out:
        sys.stdout.write(report.to_json() + "\n")


def _config_value(action, key, value):
    """A --config value, converted and checked as the flag's command-line
    value would be: argparse applies type= and choices to command-line
    strings, but to a default only type=, and only to a string. A switch
    takes true or false, a flag that takes n values a list of n, and any
    other flag a string or a number, which goes through type= as its text.
    null leaves a flag without a default unset. Anything else exits 2
    naming the key."""
    if value is None and action.default is None:
        return None
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise ValidationError(f"--config: {key}: expected true or false, got {json.dumps(value)}")
    if isinstance(action.nargs, int):
        if isinstance(value, list) and len(value) == action.nargs:
            return [_config_scalar(action, key, v) for v in value]
        raise ValidationError(
            f"--config: {key}: expected a list of {action.nargs} values, got {json.dumps(value)}"
        )
    return _config_scalar(action, key, value)


def _config_scalar(action, key, value):
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            converted = (action.type or str)(str(value))
        except ValueError:
            pass
        else:
            if action.choices is None or converted in action.choices:
                return converted
    if action.choices is not None:
        expected = "one of " + ", ".join(action.choices)
    else:
        expected = {int: "an integer", float: "a number"}.get(action.type, "a string")
    raise ValidationError(f"--config: {key}: expected {expected}, got {json.dumps(value)}")


def build_parser():
    # no abbreviation such as --conf: main reads the config file only under
    # the flag's full name
    parser = argparse.ArgumentParser(
        prog="alphaturn",
        description="Spectral and factor-model turnover-reduction analysis",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--config", help="JSON file whose keys mirror the command flags"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="panel/correlation spectral analysis")
    p.add_argument("input", help="panel CSV (or correlation CSV with --corr)")
    p.add_argument("--corr", action="store_true", help="input is a correlation CSV")
    p.add_argument("--factors", help="factor panel CSV to regress out")
    p.add_argument("--deform", action="store_true", help="repair non-PD matrices")
    p.add_argument("--raw-basis", action="store_true", help="skip sign canonicalization")
    p.add_argument("--min-overlap", type=int, help="panel input only (default 12)")
    p.add_argument("--na-policy", choices=["empty_cell", "literal_NA"],
                   help="panel input only (default literal_NA)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("clusters", help="residual-correlation sweep and knee")
    p.add_argument("input", help="correlation CSV")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--deform", action="store_true")
    p.add_argument("--rel-drop", type=float, default=0.05)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--out", help="sweep CSV path (stdout if omitted)")
    p.add_argument("--summary-out", help="knee JSON path")
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("model", help="factor-model eigenstructure tools")
    p.add_argument("input", help="model JSON")
    p.add_argument("--op", choices=["eigen", "rho-star", "rho-curve", "sweep-f"], required=True)
    p.add_argument("--grid", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--fmax", type=int, default=32)
    p.add_argument("--out")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("synth", help="generate a synthetic model and panel")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--n-obs", type=int, default=1000)
    p.add_argument("--phi-range", type=float, nargs=2, default=[0.5, 2.0])
    p.add_argument("--xi-range", type=float, nargs=2, default=[0.0, 1.0])
    p.add_argument("--factor-rho", default="0.0")
    p.add_argument("--size-scheme", choices=["equal", "random_multinomial"], default="equal")
    p.add_argument("--panel-out", required=True)
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ftest", help="new-cluster F-statistic comparison")
    p.add_argument("panel", help="old panel CSV")
    p.add_argument("omega_old", help="old loadings CSV (alpha,cluster)")
    p.add_argument("panel_new", help="old+new panel CSV")
    p.add_argument("omega_new", help="old+new loadings CSV")
    p.add_argument("--winsor", type=float, default=0.05)
    p.add_argument("--out")
    p.add_argument("--summary-out")
    p.set_defaults(func=cmd_ftest)

    return parser


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        # --config supplies defaults for the flags of the chosen subcommand,
        # given as "--config FILE" or "--config=FILE"
        idx = next((i for i, a in enumerate(argv) if a.partition("=")[0] == "--config"), None)
        if idx is not None:
            _, eq, path = argv[idx].partition("=")
            if not eq:
                if idx + 1 == len(argv):
                    raise ValidationError("--config needs a JSON file path")
                path = argv[idx + 1]
            doc = _read_json_object(path, "config")
            subparsers = [sp for action in parser._subparsers._group_actions
                          for sp in action.choices.values()]
            # the flags (not the positionals or --help) of each subcommand
            flags = [{a.dest: a for a in sp._actions if a.option_strings and a.dest != "help"}
                     for sp in subparsers]
            known = set().union(*flags)
            for key in doc:
                if key.replace("-", "_") not in known:
                    raise ValidationError(f"--config: unknown key {key!r}")
            for sp, sp_flags in zip(subparsers, flags):
                defaults = {
                    dest: _config_value(sp_flags[dest], key, value)
                    for key, value in doc.items()
                    if (dest := key.replace("-", "_")) in sp_flags
                }
                for dest, value in defaults.items():
                    # argparse checks a required flag on the command line
                    # only, so one that the config sets is optional
                    if value is not None:
                        sp_flags[dest].required = False
                sp.set_defaults(**defaults)
        args = parser.parse_args(argv)
        # every command loads numpy: its LinAlgError exits 3 as a NumericalError
        import numpy as np

        try:
            args.func(args)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(str(exc)) from None
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0

if __name__ == "__main__":
    sys.exit(main())
