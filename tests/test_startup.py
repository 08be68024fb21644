"""Start-up cost and dependencies. The CLI imports the library lazily:
importing it and building its parser loads no numpy, and neither do
--help, usage errors and --config errors. Each subcommand loads only the
alphaturn modules that MODULES lists for it, and `import alphaturn` loads
none until a public name is used. The package imports only numpy: no
command loads scipy or jsonschema, and every command runs with either of
them unimportable.

Every check runs in a fresh interpreter, because this test process has the
whole library loaded, and may have scipy loaded too (some tests use it as
a reference). A check on what a run loads fails printing the import chain
that loaded the first module it should not have.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from alphaturn import cli
from alphaturn import panel as pm

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in [str(SRC), os.environ.get("PYTHONPATH")] if p))

# The alphaturn modules each subcommand may load, besides the package,
# alphaturn.cli and alphaturn.errors
MODULES = {
    "analyze": {"panel", "eigen", "spectral", "clusters"},
    "clusters": {"panel", "eigen", "clusters"},
    "model": {"panel", "eigen", "factor_model"},
    "synth": {"panel", "eigen", "factor_model", "synth"},
    "ftest": {"panel", "eigen", "clusters", "factor_model"},
}
CLI_MODULES = {"alphaturn", "alphaturn.cli", "alphaturn.errors"}

# Runs cli.main on its arguments and prints its exit code, or argparse's,
# as the last line of stdout.
RUN_MAIN = """
import json, sys
from alphaturn import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse exits on --help and on usage errors
    code = exc.code
print(json.dumps(code))
"""


def python(*args):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True,
                          text=True, timeout=120)


def import_chain(lines, i):
    """The module on importtime line i, then the modules that imported it.
    importtime prints a module after everything it imports, indented two
    spaces deeper than its importer."""
    def depth(line):
        name = line.split("|")[2]
        return len(name) - len(name.lstrip())

    chain = [lines[i]]
    for line in lines[i + 1:]:
        if depth(line) < depth(chain[-1]):
            chain.append(line)
    return chain


def importtime(*args):
    """The importtime lines of `python -X importtime *args`, which must exit 0."""
    proc = python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return proc, [line for line in proc.stderr.splitlines()
                  if line.startswith("import time:") and line.count("|") == 2]


def names(lines):
    return [line.split("|")[2].strip() for line in lines]


def assert_loads_none(lines, unwanted, what):
    """Fail, printing its import chain, at the first module of `lines` for
    whose name `unwanted` is true."""
    hits = [i for i, name in enumerate(names(lines)) if unwanted(name)]
    assert not hits, f"{what} loads {names(lines)[hits[0]]}:\n" + "\n".join(
        import_chain(lines, hits[0]))


def top(name):
    return name.split(".")[0]


def beyond_parsing(name):
    """Whether module `name` is numpy or an alphaturn module that parsing
    the command line does not need."""
    return top(name) == "numpy" or (top(name) == "alphaturn" and name not in CLI_MODULES)


def test_cli_import_loads_no_scipy():
    _, lines = importtime("-c", "import alphaturn.cli")
    assert "alphaturn.cli" in names(lines)
    assert_loads_none(lines, lambda name: top(name) == "scipy", "importing alphaturn.cli")


def test_cli_parser_loads_no_numpy():
    # what the benchmark's setup_s times
    _, lines = importtime("-c", "from alphaturn.cli import build_parser; build_parser()")
    assert_loads_none(lines, beyond_parsing, "building the CLI parser")


def run_main(*argv, code=0):
    """The importtime lines of cli.main(argv) in a fresh interpreter, whose
    exit code must be `code`."""
    proc, lines = importtime("-c", RUN_MAIN, *map(str, argv))
    assert json.loads(proc.stdout.splitlines()[-1]) == code, proc.stderr
    return lines


@pytest.mark.parametrize("argv, code", [
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["model", "--help"], 0, id="model-help"),
    pytest.param([], 2, id="no-command"),
    pytest.param(["analyze"], 2, id="missing-input"),
    pytest.param(["model", "m.json", "--op", "bogus"], 2, id="bad-choice"),
    pytest.param(["synth", "--seed", "x", "--n", "3", "--clusters", "1", "--panel-out", "p",
                  "--model-out", "m"], 2, id="bad-int"),
    pytest.param(["--config", "{d}/missing.json", "analyze", "p.csv"], 2, id="config-missing"),
    pytest.param(["--config", "{d}/bad-key.json", "analyze", "p.csv"], 2, id="config-key"),
])
def test_help_and_usage_errors_load_no_numpy(tmp_path, argv, code):
    (tmp_path / "bad-key.json").write_text(json.dumps({"min_overlpa": 3}))
    lines = run_main(*[a.format(d=tmp_path) for a in argv], code=code)
    assert_loads_none(lines, beyond_parsing, " ".join(argv) or "no arguments")


def run_command(*argv):
    """Runs the command `argv`, which must exit 0. Fails, printing the import
    chain, where it loads an alphaturn module that MODULES does not list for
    its subcommand; returns the scipy and jsonschema modules it loads."""
    lines = run_main(*argv)
    allowed = CLI_MODULES | {f"alphaturn.{m}" for m in MODULES[argv[0]]}
    assert_loads_none(lines, lambda name: top(name) == "alphaturn" and name not in allowed,
                      argv[0])
    return {name for name in names(lines) if top(name) in ("scipy", "jsonschema")}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A synth panel and its binary model, a rank-deficient correlation
    matrix, old/new panels and loadings for ftest, and one model document
    per model_eigenstructure path."""
    d = tmp_path_factory.mktemp("startup")
    assert cli.main(["synth", "--seed", "3", "--n", "12", "--clusters", "3",
                     "--n-obs", "40", "--panel-out", str(d / "panel.csv"),
                     "--model-out", str(d / "model.json")]) == 0
    panel = pm.load_panel(d / "panel.csv")
    assignment = json.loads((d / "model.json").read_text())["assignment"]
    old = [j for j, a in enumerate(assignment) if a < 3]
    pm.save_panel(pm.AlphaPanel(labels=[panel.labels[j] for j in old], times=panel.times,
                                values=panel.values[:, old]), d / "old.csv")
    for name, cols in [("old_loadings.csv", old), ("new_loadings.csv", range(12))]:
        rows = [f"{panel.labels[j]},{assignment[j]}" for j in cols]
        (d / name).write_text("\n".join(["alpha,cluster", *rows]) + "\n")

    # 40 alphas and 12 observations: rank 11, so --deform replaces the
    # matrix, and the replacement has no cached spectrum
    psi = np.corrcoef(np.random.default_rng(4).standard_normal((12, 40)).T)
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    pm.save_correlation(pm.CorrelationMatrix(psi=psi), d / "corr.csv")

    omega = [[1.0, 0.2], [0.8, 0.1], [0.1, 1.0], [0.2, 0.9]]
    models = {
        "closed-form-binary": {"mode": "binary", "sizes": [3, 1], "phi": [1.0, 1.0]},
        "closed-form-nondiagonal": {"mode": "binary", "sizes": [3, 1],
                                    "phi": [[1.0, 0.5], [0.5, 1.0]]},
        "reduced-nonbinary": {"mode": "dense", "omega": omega, "phi": [1.0, 1.0]},
        "dense": {"mode": "dense", "omega": omega, "phi": [1.0, 1.0],
                  "xi": [0.3, 0.3, 0.3, 0.3]},
    }
    for method, doc in models.items():
        (d / f"{method}.json").write_text(json.dumps(doc))
    return d


@pytest.mark.parametrize("method", ["closed-form-binary", "closed-form-nondiagonal",
                                    "reduced-nonbinary", "dense"])
@pytest.mark.parametrize("op", ["eigen", "rho-star"])
def test_model_paths_load_no_scipy(inputs, method, op):
    out = inputs / f"{method}-{op}.json"
    assert run_command("model", inputs / f"{method}.json", "--op", op, "--out", out) == set()
    assert json.loads(out.read_text())["method"] == method


@pytest.mark.parametrize("argv", [
    pytest.param(["analyze", "{d}/panel.csv", "--out", "{d}/a-panel.json"], id="analyze-panel"),
    pytest.param(["analyze", "{d}/corr.csv", "--corr", "--out", "{d}/a-corr.json"],
                 id="analyze-corr"),
    pytest.param(["analyze", "{d}/corr.csv", "--corr", "--deform", "--out", "{d}/a-deform.json"],
                 id="analyze-corr-deform"),
    pytest.param(["synth", "--seed", "1", "--n", "12", "--clusters", "3", "--n-obs", "40",
                  "--panel-out", "{d}/s.csv", "--model-out", "{d}/s.json"], id="synth"),
    pytest.param(["ftest", "{d}/old.csv", "{d}/old_loadings.csv", "{d}/panel.csv",
                  "{d}/new_loadings.csv", "--out", "{d}/f.csv", "--summary-out", "{d}/f.json"],
                 id="ftest"),
    pytest.param(["clusters", "{d}/corr.csv", "--deform", "--kmax", "5",
                  "--out", "{d}/sweep.csv", "--summary-out", "{d}/knee.json"], id="clusters"),
    pytest.param(["model", "{d}/model.json", "--op", "sweep-f", "--out", "{d}/sweep-f.csv"],
                 id="sweep-f"),
])
def test_command_loads_no_scipy(inputs, argv):
    assert run_command(*[a.format(d=inputs) for a in argv]) == set()


def test_rho_curve_loads_no_scipy(inputs):
    assert run_command("model", inputs / "model.json", "--op", "rho-curve",
                    "--out", inputs / "curve.csv") == set()
    assert len(pm.read_csv(inputs / "curve.csv", "curve")) == 11


def test_model_paths_run_without_jsonschema(inputs):
    # a None entry in sys.modules makes `import jsonschema` raise ImportError
    code = ("import sys\nsys.modules['jsonschema'] = None\nfrom alphaturn import cli\n"
            "sys.exit(max(cli.main(['model', f'{sys.argv[1]}/{m}.json', '--op', 'rho-star'])\n"
            "             for m in sys.argv[2:]))\n")
    methods = ["closed-form-binary", "closed-form-nondiagonal", "reduced-nonbinary", "dense"]
    proc = python("-c", code, str(inputs), *methods)
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line)["method"] for line in proc.stdout.splitlines()] == methods


def test_every_command_runs_without_scipy(inputs):
    # a None entry in sys.modules makes `import scipy` raise ImportError
    code = ("import json, sys\nsys.modules['scipy'] = None\nfrom alphaturn import cli\n"
            "print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))\n")
    methods = ["closed-form-binary", "closed-form-nondiagonal", "reduced-nonbinary", "dense"]
    ops = ["eigen", "rho-star", "rho-curve", "sweep-f"]
    d = inputs
    argvs = [
        ["analyze", f"{d}/panel.csv", "--out", f"{d}/ns-panel.json"],
        ["analyze", f"{d}/corr.csv", "--corr", "--deform", "--out", f"{d}/ns-deform.json"],
        ["clusters", f"{d}/corr.csv", "--deform", "--kmax", "5", "--out", f"{d}/ns-sweep.csv",
         "--summary-out", f"{d}/ns-knee.json"],
        ["synth", "--seed", "2", "--n", "12", "--clusters", "3", "--n-obs", "40",
         "--panel-out", f"{d}/ns-s.csv", "--model-out", f"{d}/ns-s.json"],
        ["ftest", f"{d}/old.csv", f"{d}/old_loadings.csv", f"{d}/panel.csv",
         f"{d}/new_loadings.csv", "--out", f"{d}/ns-f.csv", "--summary-out", f"{d}/ns-f.json"],
    ] + [["model", f"{d}/{m}.json", "--op", op, "--out", f"{d}/ns-{m}-{op}.out"]
         for m in methods for op in ops]
    proc = python("-c", code, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    # rho-curve needs a binary model: the two non-binary paths exit 2
    want = [0] * 5 + [2 if op == "rho-curve" and not m.startswith("closed-form") else 0
                      for m in methods for op in ops]
    assert json.loads(proc.stdout.splitlines()[-1]) == want, proc.stderr
    assert proc.stderr.count("error: rho-curve requires a binary model") == 2
    assert json.loads((d / "ns-deform.json").read_text())["deformed"]
    for m in methods:
        assert json.loads((d / f"ns-{m}-eigen.out").read_text())["method"] == m


def test_other_exception_propagates_without_scipy(inputs):
    # the exit-3 handler catches numerical failures only: an unrelated
    # exception reaches the user as a traceback, and nothing loads scipy
    code = ("import sys\nfrom alphaturn import cli\n"
            "def boom(*a, **k):\n    raise RuntimeError('not a numerical failure')\n"
            "from alphaturn import spectral\n"
            "spectral.spectral_summary = boom\n"
            "cli.main(sys.argv[1:])\n")
    proc = python("-c", code, "analyze", str(inputs / "corr.csv"), "--corr", "--deform")
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith("RuntimeError: not a numerical failure")
    assert "scipy" not in proc.stderr


def test_package_import_loads_no_submodule():
    _, lines = importtime("-c", "import alphaturn")
    assert_loads_none(lines, lambda name: top(name) == "numpy" or name.startswith("alphaturn."),
                      "import alphaturn")


def test_public_names_resolve_to_their_modules():
    # each name of __all__ is the object its defining module holds, through
    # both attribute access and a star import
    code = """
import importlib, json
import alphaturn
from alphaturn import *
from alphaturn import panel
bad = [name for name in alphaturn.__all__
       if getattr(alphaturn, name) is not globals()[name]
       or getattr(importlib.import_module(globals()[name].__module__), name) is not globals()[name]]
print(json.dumps({"n": len(alphaturn.__all__), "bad": bad, "panel": panel.__name__,
                  "missing": hasattr(alphaturn, "no_such_name")}))
"""
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"n": 35, "bad": [], "panel": "alphaturn.panel", "missing": False}
