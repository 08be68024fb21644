"""Start-up cost and dependencies: the package imports only numpy, so
importing the CLI loads no scipy module, no command loads scipy or
jsonschema, and every command runs with either of them unimportable.

Every check runs in a fresh interpreter, because this test process may have
scipy loaded already (some tests use it as a reference).
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

# Runs cli.main on its arguments and prints the exit code and the scipy and
# jsonschema modules then loaded as the last line of stdout.
RUN_MAIN = """
import json, sys
from alphaturn import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(
    m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema"))}))
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


def test_cli_import_loads_no_scipy():
    proc = python("-X", "importtime", "-c", "import alphaturn.cli")
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines()
             if line.startswith("import time:") and line.count("|") == 2]
    names = [line.split("|")[2].strip() for line in lines]
    assert "alphaturn.cli" in names
    scipy_lines = [i for i, name in enumerate(names) if name.split(".")[0] == "scipy"]
    assert not scipy_lines, "importing alphaturn.cli loads scipy:\n" + "\n".join(
        import_chain(lines, scipy_lines[0]))


def run_main(*argv):
    proc = python("-c", RUN_MAIN, *map(str, argv))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return set(result["loaded"])


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
    assert run_main("model", inputs / f"{method}.json", "--op", op, "--out", out) == set()
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
    assert run_main(*[a.format(d=inputs) for a in argv]) == set()


def test_rho_curve_loads_no_scipy(inputs):
    assert run_main("model", inputs / "model.json", "--op", "rho-curve",
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
            "cli.spectral_mod.spectral_summary = boom\n"
            "cli.main(sys.argv[1:])\n")
    proc = python("-c", code, "analyze", str(inputs / "corr.csv"), "--corr", "--deform")
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith("RuntimeError: not a numerical failure")
    assert "scipy" not in proc.stderr
