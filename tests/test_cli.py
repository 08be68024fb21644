import importlib
import json
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from alphaturn import cli
from alphaturn import clusters as cl
from alphaturn import eigen
from alphaturn import factor_model as fm
from alphaturn import panel as pm
from alphaturn import spectral as sp
from alphaturn.errors import NumericalError

from test_startup import python


def run(argv):
    return cli.main(argv)


def write_corr(path, psi, labels=None):
    psi = np.asarray(psi, dtype=float).copy()
    psi = (psi + psi.T) / 2.0
    np.fill_diagonal(psi, 1.0)
    corr = pm.CorrelationMatrix(psi=psi, labels=labels)
    pm.save_correlation(corr, path)
    return corr


class TestAnalyze:
    def test_identity_correlation(self, tmp_path):
        path = tmp_path / "corr.csv"
        write_corr(path, np.eye(16))
        out = tmp_path / "out.json"
        assert run(["analyze", str(path), "--corr", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rho_star"] == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert doc["psi1"] == pytest.approx(1.0, abs=1e-10)
        assert doc["cluster_lower_bound"] == pytest.approx(16.0, rel=1e-9)

    def test_panel_pipeline(self, tmp_path):
        rng = np.random.default_rng(0)
        common = rng.standard_normal(80)
        vals = common[:, None] + 0.5 * rng.standard_normal((80, 5))
        lines = ["time," + ",".join(f"a{i}" for i in range(5))]
        for s in range(80):
            lines.append(f"{s:02d}," + ",".join("%.10g" % v for v in vals[s]))
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.json"
        assert run(["analyze", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # one strong common factor: rho_star near (1 + (N-1) rho) / N
        assert doc["rho_star"] > 0.5
        assert len(doc["v1"]) == 5
        assert doc["signs"] == [1.0] * 5

    def test_raw_basis_skips_signs(self, tmp_path):
        path = tmp_path / "corr.csv"
        write_corr(path, np.eye(3))
        out = tmp_path / "out.json"
        assert run(["analyze", str(path), "--corr", "--raw-basis", "--out", str(out)]) == 0
        assert "signs" not in json.loads(out.read_text())

    def test_negative_total_writes_null_gamma(self, tmp_path):
        # off-diagonals of -0.9: not positive definite, and rho_prime < 0,
        # where gamma is undefined; the output must stay strict JSON
        path = tmp_path / "corr.csv"
        write_corr(path, np.full((3, 3), -0.9))
        out = tmp_path / "out.json"
        assert run(["analyze", str(path), "--corr", "--raw-basis", "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["rho_prime"] < 0
        assert doc["gamma"] is None
        summary = sp.spectral_summary(pm.load_correlation(path))
        assert json.loads(json.dumps(summary.to_dict()), parse_constant=reject)["gamma"] is None

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert run(["analyze", str(tmp_path / "nope.csv")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("factors", ["factors.csv", "nope.csv"])
    def test_factors_with_corr_exit_2(self, tmp_path, capsys, factors):
        # --factors regresses a panel; a correlation input cannot honour it
        path = tmp_path / "corr.csv"
        write_corr(path, np.eye(3))
        (tmp_path / "factors.csv").write_text("time,f\n1,0.5\n2,0.1\n3,0.3\n")
        out = tmp_path / "out.json"
        code = run(["analyze", str(path), "--corr", "--factors", str(tmp_path / factors),
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and "--factors" in err and "--corr" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [
        (["--min-overlap", "100000"], None), (["--na-policy", "empty_cell"], None),
        (["--min-overlap", "100000", "--na-policy", "empty_cell"], None),
        ([], {"min-overlap": 100000}), ([], {"na_policy": "empty_cell"})])
    def test_panel_flags_with_corr_exit_2(self, tmp_path, capsys, flags, config):
        # --min-overlap and --na-policy apply to a panel's correlation; a
        # correlation input cannot honour them, given on the command line
        # or by --config
        path = tmp_path / "corr.csv"
        write_corr(path, np.eye(3))
        out = tmp_path / "out.json"
        argv = ["analyze", str(path), "--corr", *flags, "--out", str(out)]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = ["--config", str(tmp_path / "cfg.json"), *argv]
        code = run(argv)
        err = capsys.readouterr().err
        flag = "--" + next(iter(config)).replace("_", "-") if config else flags[0]
        assert code == 2 and flag in err and "--corr" in err
        assert not out.exists()
        # without them the same input runs
        assert run(["analyze", str(path), "--corr", "--out", str(out)]) == 0

    @pytest.mark.parametrize("min_overlap", ["0", "1"])
    def test_pair_with_no_joint_observation_exit_2(self, tmp_path, capsys, min_overlap):
        path = tmp_path / "panel.csv"
        path.write_text("time,a1,a2,a3\n1,0.1,,0.2\n2,0.3,,0.5\n3,,0.2,0.1\n4,,0.4,0.7\n")
        assert run(["analyze", str(path), "--min-overlap", min_overlap]) == 2
        assert "pair ('a1', 'a2') has only 0 joint observations" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,config,value", [
        (["--min-overlap", "-5"], None, -5), ([], {"min-overlap": -1}, -1)])
    def test_negative_min_overlap_exit_2(self, tmp_path, capsys, flags, config, value):
        path = tmp_path / "panel.csv"
        path.write_text("time,a,b\n1,0.1,0.2\n2,0.3,0.1\n3,0.2,0.5\n")
        cfg = []
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            cfg = ["--config", str(tmp_path / "cfg.json")]
        assert run([*cfg, "analyze", str(path), *flags]) == 2
        assert capsys.readouterr().err == f"error: min_overlap must be at least 0, got {value}\n"
        # 0 is valid: every pair here has three joint observations
        assert run(["analyze", str(path), "--min-overlap", "0",
                    "--out", str(tmp_path / "out.json")]) == 0

    def test_factors_regressed_out(self, tmp_path):
        rng = np.random.default_rng(3)
        times = [f"{t:02d}" for t in range(40)]
        f = rng.standard_normal((40, 3))
        vals = f @ rng.standard_normal((3, 6)) + 0.3 * rng.standard_normal((40, 6))
        vals[4, 2] = np.nan
        panel, factors, out = tmp_path / "panel.csv", tmp_path / "factors.csv", tmp_path / "a.json"
        pm.save_panel(pm.AlphaPanel([f"a{i}" for i in range(6)], times, vals), panel)
        pm.save_panel(pm.AlphaPanel(["f1", "f2", "f3"], times, f), factors)
        assert run(["analyze", str(panel), "--factors", str(factors), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        resid = pm.regress_out(pm.load_panel(panel), pm.load_panel(factors))
        signs, corr = pm.canonicalize_signs(pm.pairwise_correlation(resid))
        assert doc["signs"] == signs.tolist()
        assert doc["rho_star"] == sp.spectral_summary(corr).rho_star

    def test_negative_min_overlap_checked_before_reading(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run(["analyze", str(missing), "--min-overlap", "-5"]) == 2
        assert capsys.readouterr().err == "error: min_overlap must be at least 0, got -5\n"

    def test_config_overrides_min_overlap(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((6, 3))
        lines = ["time,a,b,c"]
        for s in range(6):
            lines.append(f"{s}," + ",".join("%.10g" % v for v in vals[s]))
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n")
        # default min_overlap = 12 fails on 6 observations
        assert run(["analyze", str(path)]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min-overlap": 3}))
        out = tmp_path / "out.json"
        assert run(
            ["--config", str(cfg), "analyze", str(path), "--out", str(out)]
        ) == 0

    def test_nan_correlation_cell_exit_2(self, tmp_path, capsys):
        path = tmp_path / "corr.csv"
        path.write_text(",a,b,c\na,1,0.2,nan\nb,0.2,1,0.3\nc,nan,0.3,1\n")
        assert run(["analyze", str(path), "--corr"]) == 2
        err = capsys.readouterr().err
        assert "corr.csv: row 2, column 4: non-finite value nan" in err

    def test_inf_panel_cell_exit_2(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text("time,a,b\n1,0.1,0.2\n2,inf,0.1\n3,0.3,0.2\n")
        assert run(["analyze", str(path), "--min-overlap", "2"]) == 2
        assert "panel.csv: row 3, column 2: non-finite value 'inf'" in capsys.readouterr().err

    def test_asymmetric_correlation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "corr.csv"
        path.write_text(",a,b\na,1,0.9\nb,-0.5,1\n")
        assert run(["analyze", str(path), "--corr"]) == 2
        assert "(a, b) is 0.9 but (b, a) is -0.5" in capsys.readouterr().err

    def test_config_as_last_argument_exit_2(self, tmp_path, capsys):
        assert run(["analyze", str(tmp_path / "p.csv"), "--config"]) == 2
        assert "--config needs a JSON file path" in capsys.readouterr().err

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{min-overlap: 3")
        assert run(["--config", str(cfg), "analyze", str(tmp_path / "p.csv")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[3]")
        assert run(["--config", str(cfg), "analyze", str(tmp_path / "p.csv")]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_linalg_error_exit_3(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "corr.csv"
        write_corr(path, np.eye(4))

        def boom(*a, **k):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        assert run(["analyze", str(path), "--corr", "--deform"]) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_other_exception_propagates(self, tmp_path, monkeypatch):
        # only numerical failures exit 3; any other exception is a bug
        path = tmp_path / "corr.csv"
        write_corr(path, np.eye(4))

        def boom(*a, **k):
            raise RuntimeError("not a numerical failure")

        monkeypatch.setattr(sp, "spectral_summary", boom)
        with pytest.raises(RuntimeError, match="not a numerical failure"):
            run(["analyze", str(path), "--corr"])


class TestConfig:
    """--config values are converted and checked as the flags' command-line
    values are."""

    @pytest.fixture
    def panel(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((6, 3))
        lines = ["time,a,b,c"] + [
            f"{s}," + ",".join("%.10g" % v for v in vals[s]) for s in range(6)
        ]
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def analyze(self, tmp_path, panel, cfg, *flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        out.unlink(missing_ok=True)
        code = run(["--config", str(path), "analyze", str(panel), "--out", str(out), *flags])
        return code, out.read_bytes() if code == 0 else None

    @pytest.mark.parametrize("cfg, message", [
        ({"min_overlap": [1]}, "--config: min_overlap: expected an integer, got [1]"),
        ({"min_overlap": {"a": 1}}, '--config: min_overlap: expected an integer, got {"a": 1}'),
        ({"min-overlap": 3.5}, "--config: min-overlap: expected an integer, got 3.5"),
        ({"min_overlap": True}, "--config: min_overlap: expected an integer, got true"),
        ({"min_overlap": "x"}, '--config: min_overlap: expected an integer, got "x"'),
        ({"deform": 1}, "--config: deform: expected true or false, got 1"),
        ({"na_policy": "bogus"},
         '--config: na_policy: expected one of empty_cell, literal_NA, got "bogus"'),
        ({"phi_range": 0.5}, "--config: phi_range: expected a list of 2 values, got 0.5"),
        ({"phi_range": [0.5, [2]]}, "--config: phi_range: expected a number, got [2]"),
        ({"out": ["a"]}, '--config: out: expected a string, got ["a"]'),
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, panel, cfg, message):
        assert self.analyze(tmp_path, panel, cfg) == (2, None)
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["min_overlpa", "input", "help", "config"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, panel, key):
        # positionals, --help and the global --config are no subcommand flags
        assert self.analyze(tmp_path, panel, {"min_overlap": 3, key: 3}) == (2, None)
        assert capsys.readouterr().err == f"error: --config: unknown key {key!r}\n"

    @pytest.mark.parametrize("cfg", [
        {"min_overlap": 3},
        {"min_overlap": "3"},
        {"min_overlap": 3, "deform": False, "out": None, "factors": None},
        # keys of other subcommands' flags are allowed
        {"min_overlap": 3, "kmax": 5, "op": "eigen", "seed": 1, "winsor": 0.1},
    ])
    def test_valid_value_matches_flag(self, tmp_path, panel, cfg):
        code, doc = self.analyze(tmp_path, panel, {"min_overlap": 12}, "--min-overlap", "3")
        assert code == 0
        assert self.analyze(tmp_path, panel, cfg) == (0, doc)

    def test_number_for_float_flag(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "corr.csv"
        write_corr(path, np.corrcoef(rng.standard_normal((120, 8)).T))
        cfg = tmp_path / "cfg.json"
        knees = []
        for doc, flags in [({}, []), ({}, ["--rel-drop", "1"]), ({"rel_drop": 1}, []),
                           ({"rel-drop": "1"}, [])]:
            cfg.write_text(json.dumps(doc))
            out = tmp_path / "knee.json"
            assert run(["--config", str(cfg), "clusters", str(path), "--kmax", "5",
                        "--out", str(tmp_path / "sweep.csv"), "--summary-out", str(out),
                        *flags]) == 0
            knees.append(json.loads(out.read_text()))
        assert knees[0] != knees[1] == knees[2] == knees[3]


# one command per subcommand with required flags, giving all of them on the
# command line
REQUIRED_ARGV = {
    "clusters": ["clusters", "{d}/corr.csv", "--kmax", "5", "--out", "{d}/sweep.csv",
                 "--summary-out", "{d}/knee.json"],
    "model": ["model", "{d}/model.json", "--op", "rho-star", "--out", "{d}/rho.json"],
    "synth": ["synth", "--seed", "5", "--n", "12", "--clusters", "3", "--n-obs", "40",
              "--panel-out", "{d}/panel.csv", "--model-out", "{d}/model_out.json"],
}
REQUIRED_FLAGS = [("clusters", "--kmax"), ("model", "--op"), ("synth", "--seed"),
                  ("synth", "--n"), ("synth", "--clusters"), ("synth", "--panel-out"),
                  ("synth", "--model-out")]


class TestConfigSpelling:
    """main reads the config file under both spellings argparse accepts."""

    @pytest.fixture
    def model(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"mode": "binary", "sizes": [3, 1], "phi": [1.0, 1.0]}))
        cfg = tmp_path / "cfg.json"
        # --op is required, so a config that is not read fails the command
        cfg.write_text(json.dumps({"op": "rho-curve", "grid": "0.1,0.5"}))
        return path, cfg

    def test_both_forms_give_identical_output(self, tmp_path, capsys, model):
        path, cfg = model
        outputs = []
        for form in (["--config", str(cfg)], [f"--config={cfg}"]):
            out = tmp_path / "curve.csv"
            assert run([*form, "model", str(path), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
            out.unlink()
        assert outputs[0] == outputs[1]
        assert outputs[0].decode().splitlines()[0] == "rho,psi_star"
        assert len(outputs[0].decode().splitlines()) == 3
        assert capsys.readouterr().err == ""

    def test_missing_file_in_equals_form_exit_2(self, tmp_path, capsys, model):
        path, _ = model
        missing = tmp_path / "missing.json"
        assert run([f"--config={missing}", "model", str(path), "--op", "eigen"]) == 2
        assert capsys.readouterr().err == f"error: config file not found: {missing}\n"

    def test_abbreviated_flag_exit_2(self, model):
        path, cfg = model
        with pytest.raises(SystemExit) as exc:
            run(["--conf", str(cfg), "model", str(path)])
        assert exc.value.code == 2


class TestRequiredFromConfig:
    """A required flag that the config sets need not be on the command line."""

    @pytest.fixture
    def argv(self, tmp_path, request):
        write_corr(tmp_path / "corr.csv", np.corrcoef(
            np.random.default_rng(7).standard_normal((120, 8)).T))
        (tmp_path / "model.json").write_text(
            json.dumps({"mode": "binary", "sizes": [3, 1], "phi": [1.0, 1.0]}))
        return [a.format(d=tmp_path) for a in REQUIRED_ARGV[request.param]]

    @staticmethod
    def out_paths(argv):
        return [pathlib.Path(argv[i + 1]) for i, a in enumerate(argv) if a.endswith("-out")]

    def test_every_required_flag_is_tested(self):
        parser = cli.build_parser()
        required = {(name, a.option_strings[-1])
                    for action in parser._subparsers._group_actions
                    for name, sp in action.choices.items()
                    for a in sp._actions if a.required and a.option_strings}
        assert required == set(REQUIRED_FLAGS)

    @pytest.mark.parametrize("argv, flag", REQUIRED_FLAGS, indirect=["argv"])
    def test_config_supplies_required_flag(self, tmp_path, argv, flag):
        assert run(argv) == 0
        want = [path.read_bytes() for path in self.out_paths(argv)]
        for path in self.out_paths(argv):
            path.unlink()
        i = argv.index(flag)
        value = argv[i + 1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: int(value) if value.isdigit() else value}))
        assert run(["--config", str(cfg), *argv[:i], *argv[i + 2:]]) == 0
        assert [path.read_bytes() for path in self.out_paths(argv)] == want

    @pytest.mark.parametrize("argv", ["clusters"], indirect=True)
    def test_null_leaves_flag_required(self, tmp_path, capsys, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kmax": None}))
        with pytest.raises(SystemExit) as exc:
            run(["--config", str(cfg), *argv[:2], *argv[4:]])
        assert exc.value.code == 2
        assert "the following arguments are required: --kmax" in capsys.readouterr().err


class TestClusters:
    def test_sweep_and_knee(self, tmp_path):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((120, 8))
        path = tmp_path / "corr.csv"
        write_corr(path, np.corrcoef(a.T))
        out = tmp_path / "sweep.csv"
        summary = tmp_path / "knee.json"
        code = run(
            ["clusters", str(path), "--kmax", "5",
             "--out", str(out), "--summary-out", str(summary)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "K,zeta1,zeta2"
        assert len(lines) >= 5
        doc = json.loads(summary.read_text())
        assert 1 <= doc["knee"] <= 5
        assert doc["rank_used"] == 8

    def test_out_of_range_correlation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "corr.csv"
        path.write_text(",a,b,c\na,1,0.5,0.2\nb,0.5,1,0.3\nc,0.2,1.0000001,1\n")
        assert run(["clusters", str(path), "--kmax", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: row 4, column 3: correlation 1.0000001 lies outside [-1, 1]\n")

    def test_singular_requires_deform_flag(self, tmp_path):
        path = tmp_path / "corr.csv"
        # rank-3 correlation of four series built from three draws
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 4))
        psi = np.corrcoef(a.T @ a)
        write_corr(path, psi)
        assert run(["clusters", str(path), "--kmax", "2", "--window", "1"]) == 2
        out = tmp_path / "sweep.csv"
        code = run(
            ["clusters", str(path), "--kmax", "2", "--window", "1",
             "--deform", "--out", str(out)]
        )
        assert code == 0

    def test_kmax_too_large_exit_2(self, tmp_path):
        path = tmp_path / "corr.csv"
        write_corr(path, np.eye(4) * 1.0)
        assert run(["clusters", str(path), "--kmax", "4"]) == 2

    @pytest.mark.parametrize("window", ["0", "-1", "-20"])
    def test_window_below_one_exit_2(self, tmp_path, capsys, window):
        path = tmp_path / "corr.csv"
        write_corr(path, np.corrcoef(np.random.default_rng(5).standard_normal((200, 40)).T))
        assert run(["clusters", str(path), "--kmax", "8", "--window", window]) == 2
        assert capsys.readouterr().err == f"error: window must be at least 1, got {window}\n"

    @pytest.mark.parametrize("rel_drop", ["-1", "0", "nan", "inf"])
    def test_rel_drop_not_positive_and_finite_exit_2(self, tmp_path, capsys, rel_drop):
        path = tmp_path / "corr.csv"
        write_corr(path, np.corrcoef(np.random.default_rng(5).standard_normal((200, 40)).T))
        summary = tmp_path / "knee.json"
        assert run(["clusters", str(path), "--kmax", "8", "--rel-drop", rel_drop,
                    "--out", str(tmp_path / "sweep.csv"), "--summary-out", str(summary)]) == 2
        assert capsys.readouterr().err == (
            f"error: rel_drop must be finite and greater than 0, got {float(rel_drop)}\n")
        assert not summary.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--rel-drop", "-1", "rel_drop must be finite and greater than 0, got -1.0"),
        ("--window", "0", "window must be at least 1, got 0"),
    ])
    def test_bad_knee_args_exit_2_before_loading(self, monkeypatch, capsys, flag, value,
                                                 message):
        def load_correlation(path):
            raise AssertionError(f"{path} was loaded")

        monkeypatch.setattr(pm, "load_correlation", load_correlation)
        assert run(["clusters", "corr.csv", "--kmax", "8", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestModel:
    def _write_model(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return path

    def test_eigen_binary(self, tmp_path):
        path = self._write_model(
            tmp_path, {"mode": "binary", "sizes": [3, 1], "phi": [1.0, 1.0]}
        )
        out = tmp_path / "eig.json"
        assert run(["model", str(path), "--op", "eigen", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "closed-form-binary"
        vals = sorted(
            (v["value"] for v in doc["values"] for _ in range(v["mult"])),
            reverse=True,
        )
        assert vals == pytest.approx([3.0, 1.0, 0.0, 0.0], abs=1e-12)
        assert doc["rho_star"] == pytest.approx(3.0 * np.sqrt(3.0) / 8.0, abs=1e-12)

    @pytest.mark.parametrize("doc", [
        {"mode": "dense", "omega": [[]], "phi": []},
        {"mode": "binary", "sizes": [], "phi": []},
    ], ids=["dense", "binary"])
    def test_zero_factors_exit_2(self, tmp_path, capsys, doc):
        path = self._write_model(tmp_path, doc)
        assert run(["model", str(path), "--op", "eigen"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: a model needs at least one alpha and one factor")

    def test_eigen_nondiagonal(self, tmp_path):
        phi = [[1.0, 0.5], [0.5, 1.0]]
        path = self._write_model(
            tmp_path, {"mode": "binary", "sizes": [3, 1], "phi": phi}
        )
        out = tmp_path / "eig.json"
        assert run(["model", str(path), "--op", "eigen", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "closed-form-nondiagonal"
        assert doc["rho_star"] == pytest.approx(0.8191981964403675, abs=1e-10)

    def test_eigen_dense_fallback(self, tmp_path):
        path = self._write_model(
            tmp_path,
            {
                "mode": "dense",
                "omega": [[1.0, 0.2], [0.8, 0.1], [0.1, 1.0], [0.2, 0.9]],
                "phi": [1.0, 1.0],
                "xi": [0.3, 0.3, 0.3, 0.3],
            },
        )
        out = tmp_path / "eig.json"
        assert run(["model", str(path), "--op", "eigen", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["method"] == "dense"

    def test_rho_curve(self, tmp_path):
        path = self._write_model(
            tmp_path, {"mode": "binary", "sizes": [3, 1], "phi": [1.0, 1.0]}
        )
        out = tmp_path / "curve.csv"
        code = run(
            ["model", str(path), "--op", "rho-curve",
             "--grid", "0,0.5,1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "rho,psi_star"
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert vals[0] == pytest.approx(3.0, abs=1e-12)
        assert vals[1] == pytest.approx((4.0 + np.sqrt(7.0)) / 2.0, rel=1e-12)
        assert vals[2] == pytest.approx(4.0, abs=1e-12)

    def test_sweep_f(self, tmp_path):
        path = self._write_model(
            tmp_path, {"mode": "binary", "sizes": [2, 2], "phi": [1.0, 1.0]}
        )
        out = tmp_path / "sweep.csv"
        assert run(
            ["model", str(path), "--op", "sweep-f", "--fmax", "8", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "F,rho_star_min"
        assert float(lines[4].split(",")[1]) == pytest.approx(4.0**-1.5, rel=1e-12)

    @pytest.mark.parametrize("fmax", ["0", "-3"])
    def test_sweep_f_fmax_below_one_exit_2(self, tmp_path, capsys, fmax):
        path = self._write_model(
            tmp_path, {"mode": "binary", "sizes": [2, 2], "phi": [1.0, 1.0]}
        )
        out = tmp_path / "sweep.csv"
        assert run(["model", str(path), "--op", "sweep-f", "--fmax", fmax,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --fmax must be at least 1, got {fmax}\n"
        assert not out.exists()

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        path = self._write_model(tmp_path, {"mode": "binary", "sizes": [3, 0]})
        assert run(["model", str(path), "--op", "eigen"]) == 2
        err = capsys.readouterr().err
        assert "/sizes" in err or "phi" in err

    def test_schema_error_names_pointer(self, tmp_path, capsys):
        path = self._write_model(
            tmp_path, {"mode": "binary", "sizes": [3, -1], "phi": [1.0, 1.0]}
        )
        assert run(["model", str(path), "--op", "eigen"]) == 2
        assert "/sizes/1" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"mode": "binary"}, "/: 'phi' is a required property"),
        ({"mode": "binary", "sizes": [3, 0.5], "phi": [1, 1]},
         "/sizes/1: 0.5 is not of type 'integer'"),
        ({"mode": "binary", "sizes": [3.0, 1], "phi": [1, 1], "xi": [0.1, True, -1]},
         "/xi/1: True is not of type 'number'"),
        ({"mode": "dense", "omega": [[1, 2], "x", [None]], "phi": [1, 1]},
         "/omega/1: 'x' is not of type 'array'"),
        ({"mode": "sparse", "phi": {}}, "/mode: 'sparse' is not one of ['binary', 'dense']"),
    ])
    def test_schema_violation_message(self, tmp_path, capsys, doc, message):
        path = self._write_model(tmp_path, doc)
        assert run(["model", str(path), "--op", "eigen"]) == 2
        assert capsys.readouterr().err == f"error: model schema violation at {message}\n"

    def test_diagonal_phi_varying_xi_goes_dense(self, tmp_path):
        doc = {"mode": "binary", "sizes": [3, 2], "phi": [1, 1],
               "xi": [0.1, 0.2, 0.3, 0.4, 0.4]}
        path = self._write_model(tmp_path, doc)
        want = sp.spectral_summary(fm.build_covariance(fm.FactorModel.from_doc(doc))).rho_star
        for op in ("eigen", "rho-star"):
            out = tmp_path / f"{op}.json"
            assert run(["model", str(path), "--op", op, "--out", str(out)]) == 0
            got = json.loads(out.read_text())
            assert got["method"] == "dense"
            # the power-iterated top eigenvector against eigh's
            assert got["rho_star"] == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("grid, message", [
        ("0,a", "'a'"),
        ("0,", "''"),
        ("nan", "must lie in [0, 1]"),
    ])
    def test_bad_grid_exit_2(self, tmp_path, capsys, grid, message):
        path = self._write_model(
            tmp_path, {"mode": "binary", "sizes": [3, 1], "phi": [1.0, 1.0]}
        )
        assert run(["model", str(path), "--op", "rho-curve", "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("doc, message", [
        ({"mode": "binary", "assignment": [1, 3], "phi": [1, 1]}, "cluster ids must lie in 1..2"),
        ({"mode": "binary", "assignment": [1, 1], "phi": [1, 1]}, "sizes must be positive"),
    ])
    def test_bad_binary_layout_exit_2(self, tmp_path, capsys, doc, message):
        path = self._write_model(tmp_path, doc)
        assert run(["model", str(path), "--op", "eigen"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"mode": "dense", "omega": [[1, 2], [3]], "phi": [1, 1]},
         "model schema violation at /omega: "),
        ({"mode": "binary", "sizes": [1, 1], "phi": [[1, 0.2], [0.2]]},
         "model schema violation at /phi: "),
        ({"mode": "binary", "sizes": [1], "phi": ["a"]},
         "model schema violation at /phi: "),
        ({"mode": "dense", "omega": [], "phi": [1]}, "loadings must be an N x F matrix"),
        ({"mode": "binary", "sizes": [2], "phi": [None]}, "must be finite"),
        ({"mode": "dense", "omega": [[1, 2]], "phi": [1]},
         "factor covariance shape does not match loadings"),
        ({"mode": "dense", "omega": [[1, 2]], "phi": [[1, 0.5], [0.4, 1]]},
         "factor covariance must be symmetric"),
        ({"mode": "dense", "omega": [[1], [2]], "phi": [1], "xi": [1]},
         "specific risks must be nonnegative, one per alpha"),
        # the schema gives xi no maximum, so NaN passes it
        ({"mode": "dense", "omega": [[1], [2]], "phi": [1], "xi": [float("nan"), 1]},
         "loadings, factor covariance and specific risks must be finite"),
        # symmetric, with eigenvalues 3 and -1
        ({"mode": "binary", "sizes": [2, 1], "phi": [[1, 2], [2, 1]]},
         "factor covariance must be positive definite"),
    ])
    def test_malformed_arrays_exit_2(self, tmp_path, capsys, doc, message):
        path = self._write_model(tmp_path, doc)
        assert run(["model", str(path), "--op", "eigen"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_numerical_error_exit_3(self, tmp_path, monkeypatch):
        path = self._write_model(
            tmp_path, {"mode": "binary", "sizes": [3, 1], "phi": [1.0, 1.0]}
        )

        def boom(*a, **k):
            raise NumericalError("forced failure")

        monkeypatch.setattr(fm, "secular_roots", boom)
        assert run(["model", str(path), "--op", "rho-curve"]) == 3

    def test_deflated_top_pair_failing_its_guard_exit_3(self, tmp_path, monkeypatch, capsys):
        # repeated alphas on correlated factors: the dense path takes the top
        # pair from the deflated block, which no residual passes at tolerance 0
        path = self._write_model(tmp_path, {
            "mode": "binary", "assignment": [1, 1, 2, 2, 2], "phi": [[1, 0.3], [0.3, 1]],
            "xi": [0.5, 0.5, 0.2, 0.2, 0.4]})
        monkeypatch.setattr(eigen, "TOP_RESIDUAL_TOL", 0.0)
        assert run(["model", str(path), "--op", "eigen"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical error: ") and "Traceback" not in err

    def _exit_2(self, tmp_path, capsys, doc):
        """stderr of a model document that must exit 2 without a warning."""
        path = self._write_model(tmp_path, doc)
        with warnings.catch_warnings():
            # a warning would reach stderr outside pytest
            warnings.simplefilter("error")
            assert run(["model", str(path), "--op", "eigen"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        return err

    def _eigen(self, tmp_path, capsys, doc):
        """`model --op eigen` output of a model document that must exit 0
        without a warning."""
        path = self._write_model(tmp_path, doc)
        out = tmp_path / "eig.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["model", str(path), "--op", "eigen", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        return json.loads(out.read_text())

    # each row is scaled into [0.5, 1) before it is squared, so a variance
    # overflows only through Phi: eight factors of variance 1.7e308 on a
    # row of ones sum to 3.4e308
    @pytest.mark.parametrize("doc, message", [
        # xi = 0: the Gram reduction, whose row norm overflows
        ({"mode": "dense", "omega": [[1] * 8, [1] + [0] * 7], "phi": [1.7e308] * 8},
         "alpha 0 has non-finite (overflowing) total variance"),
        ({"mode": "dense", "omega": [[1] * 8, [1] * 8], "phi": [1.7e308] * 8},
         "alpha 0 has non-finite (overflowing) total variance"),
        # xi != 0: the dense path, whose assembled covariance overflows
        ({"mode": "dense", "omega": [[1] + [0] * 7, [1] * 8], "phi": [1.7e308] * 8,
          "xi": [1, 1]},
         "alpha 1 has non-finite (overflowing) total variance"),
    ], ids=["gram-one", "gram-both", "dense"])
    def test_overflowing_variance_exit_2(self, tmp_path, capsys, doc, message):
        assert self._exit_2(tmp_path, capsys, doc) == f"error: {message}\n"

    @pytest.mark.parametrize("doc", [
        {"mode": "dense", "omega": [[0], [1]], "phi": [1]},
        {"mode": "dense", "omega": [[1], [0]], "phi": [1], "xi": [1, 0]},
    ], ids=["gram", "dense"])
    def test_zero_row_exit_2(self, tmp_path, capsys, doc):
        alpha = doc["omega"].index([0])
        assert self._exit_2(tmp_path, capsys, doc) == (
            f"error: alpha {alpha} has zero total variance\n")

    # rows whose squares underflow or overflow, each with the same model at
    # an ordinary scale: scaling an alpha's row leaves its correlations as
    # they are
    @pytest.mark.parametrize("doc, unit", [
        ({"mode": "dense", "omega": [[1e-170], [2e-170]], "phi": [1]},
         {"mode": "dense", "omega": [[1], [2]], "phi": [1]}),
        ({"mode": "dense", "omega": [[1e-170], [2e-170]], "phi": [1], "xi": [1e-170] * 2},
         {"mode": "dense", "omega": [[1], [2]], "phi": [1], "xi": [1, 1]}),
        ({"mode": "dense", "omega": [[1e200], [2e200]], "phi": [1]},
         {"mode": "dense", "omega": [[1], [2]], "phi": [1]}),
        ({"mode": "dense", "omega": [[1e200], [2e200]], "phi": [1], "xi": [1e200] * 2},
         {"mode": "dense", "omega": [[1], [2]], "phi": [1], "xi": [1, 1]}),
        ({"mode": "binary", "assignment": [1, 2, 2], "phi": [1, 1], "xi": [1, 1e200, 1]},
         {"mode": "dense", "omega": [[1, 0], [0, 1e-200], [0, 1]], "phi": [1, 1],
          "xi": [1, 1, 1]}),
        # repeated alphas, whose G x G block is gathered from Phi
        ({"mode": "binary", "sizes": [2, 2], "phi": [[1e308, 5e307], [5e307, 1e308]],
          "xi": [1e154] * 4},
         {"mode": "binary", "sizes": [2, 2], "phi": [[1, 0.5], [0.5, 1]], "xi": [1] * 4}),
        ({"mode": "binary", "sizes": [2, 2], "phi": [[1, 0.5], [0.5, 1]], "xi": [1e308, 1, 1, 1]},
         {"mode": "dense", "omega": [[1e-308, 0], [1, 0], [0, 1], [0, 1]],
          "phi": [[1, 0.5], [0.5, 1]], "xi": [1] * 4}),
        # the binary closed form, where xi^2 + N_A phi overflows unscaled
        ({"mode": "binary", "sizes": [2, 2], "phi": [1, 1], "xi": [1, 1, 1e200, 1e200]},
         {"mode": "dense", "omega": [[1, 0], [1, 0], [0, 1e-200], [0, 1e-200]],
          "phi": [1, 1], "xi": [1] * 4}),
    ], ids=["tiny", "tiny-xi", "huge", "huge-xi", "binary-dense", "binary-huge-phi",
            "binary-huge-xi", "binary-closed-form"])
    def test_tiny_or_huge_rows(self, tmp_path, capsys, doc, unit):
        got = self._eigen(tmp_path, capsys, doc)
        corr = fm.build_covariance(fm.FactorModel.from_doc(unit))
        w = np.linalg.eigvalsh(corr.psi)
        # the closed form lists each cluster's values, the other paths descend
        values = sorted((v["value"] for v in got["values"] for _ in range(v["mult"])),
                        reverse=True)
        np.testing.assert_allclose(values, w[::-1], rtol=0, atol=1e-12 * w[-1])
        assert got["rho_star"] == pytest.approx(sp.spectral_summary(corr).rho_star, rel=1e-12)

    def test_huge_tied_clusters_closed_form(self, tmp_path, capsys):
        # xi^2 + N_A phi overflows unscaled. The top eigenvalue is tied
        # between the clusters, where the closed form takes one cluster's
        # eigenvector (binary_eigensystem), so it is checked against the
        # closed form at unit scale rather than against the dense path.
        doc = {"mode": "binary", "sizes": [2, 2], "phi": [1e308, 1e308], "xi": [1e154] * 4}
        unit = {"mode": "binary", "sizes": [2, 2], "phi": [1, 1], "xi": [1] * 4}
        got = self._eigen(tmp_path, capsys, doc)
        assert got["method"] == "closed-form-binary"
        assert [v["value"] for v in got["values"]] == [1.5, 1.5, 0.5, 0.5]
        want, _ = fm.model_eigenstructure(fm.FactorModel.from_doc(unit))
        assert got["rho_star"] == pytest.approx(want.rho_star, rel=1e-12)

    @pytest.mark.parametrize("key", ["sizes", "assignment"])
    def test_count_beyond_int64_exit_2(self, tmp_path, capsys, key):
        err = self._exit_2(tmp_path, capsys, {"mode": "binary", key: [1e20], "phi": [1]})
        assert err == (f"error: model schema violation at /{key}/0: 1e+20 is greater than "
                       "the maximum of 9223372036854775807\n")

    # 7 PiB of cluster ids, which numpy declines to allocate at once; and a
    # sum of sizes beyond int64, which np.repeat takes as a negative length
    @pytest.mark.parametrize("sizes, n", [([1e15], 10**15), ([2**62, 2**62], 2**63)],
                             ids=["7-PiB", "beyond-int64"])
    def test_sizes_beyond_memory_exit_2(self, tmp_path, capsys, sizes, n):
        doc = {"mode": "binary", "sizes": sizes, "phi": [1] * len(sizes)}
        assert self._exit_2(tmp_path, capsys, doc) == (
            f"error: /sizes: N={n} alphas do not fit in memory\n")

    def test_sizes_disagreeing_with_assignment_exit_2(self, tmp_path, capsys):
        doc = {"mode": "binary", "sizes": [2, 3], "assignment": [1, 1, 1, 2, 2],
               "phi": [1, 1]}
        assert self._exit_2(tmp_path, capsys, doc) == (
            "error: /sizes does not match /assignment's counts [3, 2]\n")

    # the first has xi uniform within each cluster (the closed form), the
    # second not (the dense path); both are rejected before either
    @pytest.mark.parametrize("xi", [[0.1, 0.1, 0.2], [0.1, 0.2, 0.2]])
    def test_empty_cluster_exit_2(self, tmp_path, capsys, xi):
        doc = {"mode": "binary", "assignment": [1, 1, 3], "phi": [1, 1, 1], "xi": xi}
        assert self._exit_2(tmp_path, capsys, doc) == (
            "error: cluster sizes must be positive: cluster 2 has no alpha\n")

    def test_nearly_symmetric_phi_takes_nondiagonal_closed_form(self, tmp_path):
        # Phi is symmetric to 5e-13, within FactorModel's 1e-12; its factor
        # correlation, scaled by 1 / (d_i d_j) = 1e8, must be symmetrised
        doc = {"mode": "binary", "sizes": [2, 3],
               "phi": [[1e-4, 1e-5], [1.00000005e-5, 1e-4]]}
        path = self._write_model(tmp_path, doc)
        out = tmp_path / "eig.json"
        assert run(["model", str(path), "--op", "eigen", "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        assert got["method"] == "closed-form-nondiagonal"
        values = np.sort([v["value"] for v in got["values"] for _ in range(v["mult"])])
        w, v = np.linalg.eigh(fm.build_covariance(fm.FactorModel.from_doc(doc)).psi)
        np.testing.assert_allclose(values, w, rtol=0, atol=1e-12)
        assert got["rho_star"] == pytest.approx(w[-1] * abs(v[:, -1].sum()) / 5**1.5,
                                                rel=1e-12, abs=0)


# the 547 bytes of `synth --seed 5 --n 12 --clusters 3 --factor-rho 0.25`'s model file
PINNED_SYNTH_MODEL = (
    '{"mode": "binary", "phi": [[1.7075043856180703, 0.4274265913216283, 0.3685811627087598], '
    '[0.4274265913216283, 1.7119111846047403, 0.36905648109346895], '
    '[0.3685811627087598, 0.36905648109346895, 1.272988341563213]], '
    '"xi": [0.2858013800881416, 0.2858013800881416, 0.2858013800881416, 0.2858013800881416, '
    '0.053930702381656426, 0.053930702381656426, 0.053930702381656426, 0.053930702381656426, '
    '0.38336888078551823, 0.38336888078551823, 0.38336888078551823, 0.38336888078551823], '
    '"assignment": [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3], "sizes": [4, 4, 4]}\n'
).encode()


class TestSynth:
    def test_byte_identical_reruns(self, tmp_path):
        argv = [
            "synth", "--seed", "5", "--n", "12", "--clusters", "3",
            "--n-obs", "40",
        ]
        p1, m1 = tmp_path / "p1.csv", tmp_path / "m1.json"
        p2, m2 = tmp_path / "p2.csv", tmp_path / "m2.json"
        assert run(argv + ["--panel-out", str(p1), "--model-out", str(m1)]) == 0
        assert run(argv + ["--panel-out", str(p2), "--model-out", str(m2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()

    def test_model_bytes_pinned(self, tmp_path):
        # the same bytes in every tree, where test_byte_identical_reruns
        # compares one tree with itself; equal sizes and a uniform rho, so
        # no LAPACK call or multinomial draw enters the file
        p, m = tmp_path / "p.csv", tmp_path / "m.json"
        assert run(["synth", "--seed", "5", "--n", "12", "--clusters", "3",
                    "--factor-rho", "0.25", "--panel-out", str(p), "--model-out", str(m)]) == 0
        assert m.read_bytes() == PINNED_SYNTH_MODEL

    def test_panel_roundtrips_and_model_loads(self, tmp_path):
        p, m = tmp_path / "p.csv", tmp_path / "m.json"
        assert run(
            ["synth", "--seed", "1", "--n", "10", "--clusters", "2",
             "--n-obs", "30", "--panel-out", str(p), "--model-out", str(m)]
        ) == 0
        panel = pm.load_panel(p)
        assert panel.n_alphas == 10
        assert panel.n_obs == 30
        model = fm.FactorModel.from_json(m.read_text())
        assert model.n == 10
        assert model.f == 2

    @pytest.mark.parametrize("factor_rho", ["0.3", "random"])
    def test_correlated_factors_take_dense_path(self, tmp_path, factor_rho):
        """A non-diagonal Phi with xi != 0: reruns are byte-identical, and
        the dense path's eigenvalues, deflated to one per cluster, and
        rho_star agree with eigh of the assembled matrix."""
        argv = ["synth", "--seed", "7", "--n", "60", "--clusters", "6", "--n-obs", "30",
                "--factor-rho", factor_rho]
        written = []
        for k in range(2):
            p, m = tmp_path / f"p{k}.csv", tmp_path / f"m{k}.json"
            assert run(argv + ["--panel-out", str(p), "--model-out", str(m)]) == 0
            written.append((p.read_bytes(), m.read_bytes()))
        assert written[0] == written[1]
        model = fm.FactorModel.from_json(written[0][1].decode())
        corr = pm.unit_diagonal(model.phi_cov)
        assert np.array_equal(np.diag(corr), np.ones(6))
        assert np.linalg.eigvalsh(corr)[0] > 0
        off = corr[~np.eye(6, dtype=bool)]
        if factor_rho == "random":
            assert np.ptp(off) > 0.1
        else:
            np.testing.assert_allclose(off, 0.3, rtol=1e-15)
        assert fm.deflated_eigenvalues(model) is not None
        w, v = np.linalg.eigh(fm.build_covariance(model).psi)
        for op in ("eigen", "rho-star"):
            out = tmp_path / f"{op}.json"
            assert run(["model", str(tmp_path / "m0.json"), "--op", op, "--out", str(out)]) == 0
            got = json.loads(out.read_text())
            assert got["method"] == "dense"
            assert got["rho_star"] == pytest.approx(w[-1] * abs(v[:, -1].sum()) / 60**1.5,
                                                    rel=1e-12, abs=0)
        values = np.sort([x["value"] for x in json.loads((tmp_path / "eigen.json").read_text())
                          ["values"] for _ in range(x["mult"])])
        np.testing.assert_allclose(values, w, rtol=0, atol=1e-12 * w[-1])

    def test_random_multinomial_too_many_clusters_exit_2(self, tmp_path):
        # every cluster nonempty in one draw of 50 alphas into 50 clusters has
        # odds near 3e-21: the redraws stop at a bound. Run in a subprocess
        # with a timeout, so that unbounded redraws fail the test instead of
        # hanging it.
        proc = python("-c", "import sys; from alphaturn.cli import main; sys.exit(main())",
                      "synth", "--seed", "1", "--n", "50", "--clusters", "50",
                      "--size-scheme", "random_multinomial",
                      "--panel-out", str(tmp_path / "p.csv"),
                      "--model-out", str(tmp_path / "m.json"))
        assert proc.returncode == 2
        assert "'equal' size scheme or fewer clusters" in proc.stderr
        assert not (tmp_path / "p.csv").exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(
                ["synth", "--seed", "-1", "--n", "4", "--clusters", "2",
                 "--panel-out", str(tmp_path / "p.csv"),
                 "--model-out", str(tmp_path / "m.json")]
            ) == 2
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("args, message", [
        (["--clusters", "0", "--size-scheme", "random_multinomial"],
         "n_clusters must lie in 1..n_alphas, got n_clusters=0, n_alphas=4"),
        (["--clusters", "-1", "--size-scheme", "random_multinomial"],
         "n_clusters must lie in 1..n_alphas, got n_clusters=-1, n_alphas=4"),
        (["--clusters", "2", "--phi-range", "1", "nan"],
         "phi_range must be finite, positive and ordered, got [1.0, nan]"),
        (["--clusters", "2", "--xi-range", "0", "inf"],
         "xi_range must be finite, nonnegative and ordered, got [0.0, inf]"),
    ], ids=["no-clusters", "negative-clusters", "nan-phi", "infinite-xi"])
    def test_bad_config_exit_2(self, tmp_path, capsys, args, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["synth", "--seed", "1", "--n", "4", *args,
                        "--panel-out", str(tmp_path / "p.csv"),
                        "--model-out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "p.csv").exists()

    def test_alphas_beyond_memory_exit_2(self, tmp_path, capsys):
        # 10^15 alphas in one cluster: numpy declines 7 PiB of cluster ids
        assert run(["synth", "--seed", "1", "--n", str(10**15), "--clusters", "1",
                    "--panel-out", str(tmp_path / "p.csv"),
                    "--model-out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate 7.11 PiB")
        assert err.count("\n") == 1
        assert not (tmp_path / "p.csv").exists()

    def test_bad_factor_rho_exit_2(self, tmp_path):
        assert run(
            ["synth", "--seed", "1", "--n", "4", "--clusters", "2",
             "--factor-rho", "maybe",
             "--panel-out", str(tmp_path / "p.csv"),
             "--model-out", str(tmp_path / "m.json")]
        ) == 2


class TestFTest:
    def _write_panel(self, path, values, labels):
        values = np.asarray(values, dtype=float)
        lines = ["time," + ",".join(labels)]
        for s in range(values.shape[0]):
            cells = ["" if np.isnan(v) else "%.10g" % v for v in values[s]]
            lines.append(f"t{s}," + ",".join(cells))
        path.write_text("\n".join(lines) + "\n")

    def _write_loadings(self, path, labels, clusters):
        lines = ["alpha,cluster"] + [
            f"{lab},{c}" for lab, c in zip(labels, clusters)
        ]
        path.write_text("\n".join(lines) + "\n")

    def test_end_to_end(self, tmp_path):
        rng = np.random.default_rng(2)
        old_labels = [f"a{i}" for i in range(6)]
        new_labels = old_labels + [f"b{i}" for i in range(3)]
        f1 = rng.standard_normal(5)
        f2 = rng.standard_normal(5)
        f3 = rng.standard_normal(5)
        old_vals = np.column_stack(
            [f1 + 0.2 * rng.standard_normal(5) for _ in range(3)]
            + [f2 + 0.2 * rng.standard_normal(5) for _ in range(3)]
        )
        new_vals = np.column_stack(
            [old_vals] + [(f3 + 0.2 * rng.standard_normal(5))[:, None] for _ in range(3)]
        )
        p_old, p_new = tmp_path / "old.csv", tmp_path / "new.csv"
        w_old, w_new = tmp_path / "wold.csv", tmp_path / "wnew.csv"
        self._write_panel(p_old, old_vals, old_labels)
        self._write_panel(p_new, new_vals, new_labels)
        self._write_loadings(w_old, old_labels, [1, 1, 1, 2, 2, 2])
        self._write_loadings(w_new, new_labels, [1, 1, 1, 2, 2, 2, 3, 3, 3])
        out = tmp_path / "ftest.csv"
        summary = tmp_path / "ftest.json"
        code = run(
            ["ftest", str(p_old), str(w_old), str(p_new), str(w_new),
             "--out", str(out), "--summary-out", str(summary)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "time,f_old,f_new"
        doc = json.loads(summary.read_text())
        assert set(doc) >= {"median_f_old", "median_f_new", "verdict"}

    def test_summary_to_stdout_without_summary_out(self, tmp_path, capsys):
        self.test_end_to_end(tmp_path)
        assert capsys.readouterr().out == ""
        assert run(["ftest", *(str(tmp_path / f) for f in ("old.csv", "wold.csv", "new.csv",
                    "wnew.csv")), "--out", str(tmp_path / "w.csv")]) == 0
        assert capsys.readouterr().out == (tmp_path / "ftest.json").read_text()
        assert (tmp_path / "w.csv").read_text() == (tmp_path / "ftest.csv").read_text()

    def test_missing_loading_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        labels = ["a0", "a1", "a2", "a3"]
        vals = rng.standard_normal((4, 4)) + 1.0
        p = tmp_path / "p.csv"
        self._write_panel(p, vals, labels)
        w = tmp_path / "w.csv"
        self._write_loadings(w, labels[:3], [1, 1, 2])  # a3 unmapped
        assert run(["ftest", str(p), str(w), str(p), str(w)]) == 2
        assert capsys.readouterr() == ("", f"error: {w}: no cluster for alpha 'a3'\n")

    def test_every_time_skipped_exit_2(self, tmp_path, capsys):
        # each time step observes both clusters but only 2 alphas, no more
        # than its 2 clusters
        labels = ["a0", "a1", "a2", "a3"]
        vals = np.random.default_rng(4).standard_normal((4, 4))
        vals[:2, [1, 3]] = np.nan
        vals[2:, [0, 2]] = np.nan
        p = tmp_path / "p.csv"
        self._write_panel(p, vals, labels)
        w = tmp_path / "w.csv"
        self._write_loadings(w, labels, [1, 1, 2, 2])
        summary = tmp_path / "s.json"
        assert run(["ftest", str(p), str(w), str(p), str(w), "--out", str(tmp_path / "f.csv"),
                    "--summary-out", str(summary)]) == 2
        assert capsys.readouterr().err == (
            "error: all 4 time steps were skipped: none observes every cluster and "
            "more alphas than clusters in both panels\n")
        assert not summary.exists()

    def test_makes_no_lstsq_call(self, tmp_path, monkeypatch):
        calls = []
        real = np.linalg.lstsq

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        self.test_end_to_end(tmp_path)
        assert calls == []

    @pytest.mark.parametrize("winsor", ["-0.1", "0.7", "1.5", "nan"])
    def test_winsor_out_of_range_exit_2(self, tmp_path, capsys, winsor):
        self.test_end_to_end(tmp_path)
        capsys.readouterr()
        out = tmp_path / "w.csv"
        assert run(["ftest", *(str(tmp_path / f) for f in ("old.csv", "wold.csv", "new.csv",
                    "wnew.csv")), "--winsor", winsor, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: winsor must lie in [0, 0.5], got {float(winsor)}\n")
        assert not out.exists()

    def test_winsor_out_of_range_exit_2_before_loading(self, monkeypatch, capsys):
        def load(path, *args, **kwargs):
            raise AssertionError(f"{path} was loaded")

        monkeypatch.setattr(pm, "load_panel", load)
        monkeypatch.setattr(cl, "load_loadings", load)
        assert run(["ftest", "old.csv", "wold.csv", "new.csv", "wnew.csv",
                    "--winsor", "0.7"]) == 2
        assert capsys.readouterr().err == "error: winsor must lie in [0, 0.5], got 0.7\n"

    @pytest.mark.parametrize("winsor", ["0", "0.5"])
    def test_winsor_at_range_ends_runs(self, tmp_path, winsor):
        self.test_end_to_end(tmp_path)
        summary = tmp_path / "w.json"
        assert run(["ftest", *(str(tmp_path / f) for f in ("old.csv", "wold.csv", "new.csv",
                    "wnew.csv")), "--winsor", winsor, "--out", str(tmp_path / "w.csv"),
                    "--summary-out", str(summary)]) == 0
        assert "verdict" in json.loads(summary.read_text())

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_cluster_id_exit_2(self, tmp_path, capsys, bad):
        rng = np.random.default_rng(3)
        labels = ["a0", "a1", "a2", "a3"]
        p = tmp_path / "p.csv"
        self._write_panel(p, rng.standard_normal((4, 4)) + 1.0, labels)
        w = tmp_path / "w.csv"
        self._write_loadings(w, labels, [1, bad, 2, 2])
        assert run(["ftest", str(p), str(w), str(p), str(w)]) == 2
        assert f"{w}: row 3: bad cluster id '{bad}'" in capsys.readouterr().err

    def test_cluster_id_above_alpha_count_exit_2_before_allocating(self, tmp_path, capsys):
        # loadings sized by the largest id would take 3 x 5e6 floats, 120 MB
        labels = ["a0", "a1", "a2"]
        p = tmp_path / "p.csv"
        self._write_panel(p, np.random.default_rng(3).standard_normal((4, 3)) + 1.0, labels)
        w = tmp_path / "w.csv"
        self._write_loadings(w, labels, [1, 5000000, 2])
        tracemalloc.start()
        try:
            assert run(["ftest", str(p), str(w), str(p), str(w)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr() == (
            "", f"error: {w}: row 3: cluster id 5000000 exceeds the number of alphas, 3\n")
        assert peak < 10e6

    @pytest.mark.parametrize("rows, message", [
        (["a0,1,2", "a1,1", "a2,2", "a3,2"], "{w}: row 2 must have 2 fields"),
        # cluster ids 1 and 3: the loadings have an empty second column
        (["a0,1", "a1,1", "a2,3", "a3,3"], "omega_old: cluster column 2 is empty"),
        # a0 listed twice: without the check, its last row would win
        (["a0,1", "a1,1", "a0,2", "a2,2", "a3,2"],
         "{w}: row 4: alpha 'a0' is already listed in row 2"),
    ], ids=["three-fields", "skipped-cluster", "alpha-twice"])
    def test_bad_loadings_exit_2(self, tmp_path, capsys, rows, message):
        p = tmp_path / "p.csv"
        self._write_panel(p, np.random.default_rng(3).standard_normal((4, 4)) + 1.0,
                          ["a0", "a1", "a2", "a3"])
        w = tmp_path / "w.csv"
        w.write_text("\n".join(["alpha,cluster", *rows]) + "\n")
        assert run(["ftest", str(p), str(w), str(p), str(w)]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(w=w)}\n")


# Malformed panel and correlation files: (file text, extra analyze flags,
# message, where {path} stands for the file's path). Each exits 2 with only
# that message on stderr.
MALFORMED = {
    "panel-blank-line": ("time,a,b\n1,0.1,0.2\n\n3,0.3,0.1\n", [],
                         "{path}: row 3 has 0 fields, expected 3"),
    "panel-trailing-comma": ("time,a,b\n1,0.1,0.2\n2,0.2,0.1,\n", [],
                             "{path}: row 3 has 4 fields, expected 3"),
    "panel-ragged-row": ("time,a,b\n1,0.1,0.2\n2,0.2\n3,0.3,0.1\n", [],
                         "{path}: row 3 has 2 fields, expected 3"),
    "panel-times-only": ("time,a,b\n1\n2\n", [],
                         "{path}: row 2 has 1 fields, expected 3"),
    "panel-header-only": ("time,a,b\n", [], "need at least 2 observations, got 0"),
    "panel-nan": ("time,a,b\n1,0.1,0.2\n2,nan,0.1\n3,0.3,\n", [],
                  "{path}: row 3, column 2: non-finite value 'nan'"),
    "panel-inf": ("time,a,b\n1,0.1,0.2\n2,0.2,-inf\n", [],
                  "{path}: row 3, column 3: non-finite value '-inf'"),
    "panel-1e400": ("time,a,b\n1,0.1,NA\n2,1e400,0.1\n", [],
                    "{path}: row 3, column 2: non-finite value '1e400'"),
    "panel-NA-under-empty-cell": ("time,a,b\n1,0.1,NA\n2,0.2,0.1\n",
                                  ["--na-policy", "empty_cell"],
                                  "{path}: row 2, column 3: cannot parse 'NA'"),
    "panel-bad-cell": ("time,a,b\n1,0.1,0.2\n2,0.2,x\n3,nan,0.1\n", [],
                       "{path}: row 3, column 3: cannot parse 'x'"),
    "corr-blank-line": (",a,b\na,1,0.5\n\nb,0.5,1\n", ["--corr"],
                        "{path}: expected 2 matrix rows, got 3"),
    "corr-trailing-comma": (",a,b\na,1,0.5,\nb,0.5,1\n", ["--corr"],
                            "{path}: row 2 does not match header labels"),
    "corr-ragged-row": (",a,b,c\na,1,0.5,0.1\nb,0.5,1\nc,0.1,0.2,1\n", ["--corr"],
                        "{path}: row 3 does not match header labels"),
    "corr-label-mismatch": (",a,b\na,1,0.5\nc,0.5,1\n", ["--corr"],
                            "{path}: row 3 does not match header labels"),
    "corr-labels-only": (",a,b\na\nb\n", ["--corr"],
                         "{path}: row 2 does not match header labels"),
    "corr-empty-cell": (",a,b\na,1,\nb,0.5,1\n", ["--corr"],
                        "{path}: row 2, column 3: cannot parse ''"),
    "corr-nan": (",a,b\na,1,nan\nb,nan,1\n", ["--corr"],
                 "{path}: row 2, column 3: non-finite value nan"),
    "corr-inf": (",a,b\na,1,0.5\nb,inf,1\n", ["--corr"],
                 "{path}: row 3, column 2: non-finite value inf"),
    "corr-1e400": (",a,b\na,1,-1e400\nb,0.5,1\n", ["--corr"],
                   "{path}: row 2, column 3: non-finite value -inf"),
    "corr-bad-cell-after-nan": (",a,b\na,1,nan\nb,0.5 0,1\n", ["--corr"],
                                "{path}: row 3, column 2: cannot parse '0.5 0'"),
    "corr-header-only": (",a,b\n", ["--corr"], "{path}: expected at least a 2x2 matrix"),
    "corr-bad-diagonal": (",a,b,c\na,0.5,0.1,0.2\nb,0.1,7,0.3\nc,0.2,0.3,-3\n", ["--corr"],
                          "{path}: row 2, column 2: diagonal value 0.5 is not 1 (to 1e-12)"),
    "corr-bad-diagonal-quoted-label": (',a,b\n"a",1,0.5\nb,0.5,1.5\n', ["--corr"],
                                       "{path}: row 3, column 3: diagonal value 1.5 is not 1 "
                                       "(to 1e-12)"),
    "corr-above-one": (",a,b\na,1,1.5\nb,1.5,1\n", ["--corr"],
                       "{path}: row 2, column 3: correlation 1.5 lies outside [-1, 1]"),
    "corr-below-minus-one": (",a,b,c\na,1,0.5,0.2\nb,0.5,1,-1.25\nc,0.2,-1.25,1\n", ["--corr"],
                             "{path}: row 3, column 4: correlation -1.25 lies outside [-1, 1]"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("text,flags,message", MALFORMED.values(), ids=MALFORMED)
    def test_exit_2_with_message_only(self, tmp_path, capsys, text, flags, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            # a warning would reach stderr outside pytest
            warnings.simplefilter("error")
            # --min-overlap applies to a panel; with --corr it exits 2 itself
            overlap = [] if "--corr" in flags else ["--min-overlap", "1"]
            assert run(["analyze", str(path), *overlap, *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")


# Read and write failures: (argv, message), where {d} stands for a directory
# that holds a panel p.csv, a correlation matrix c.csv, a model m.json, a
# file bad.csv that is not UTF-8 text and a subdirectory sub.
IO_FAILURES = {
    "model-is-dir": (["model", "{d}/sub", "--op", "eigen"],
                     "{d}/sub: cannot read model file: Is a directory"),
    "config-is-dir": (["--config", "{d}/sub", "analyze", "{d}/p.csv"],
                      "{d}/sub: cannot read config file: Is a directory"),
    "panel-is-dir": (["analyze", "{d}/sub"], "{d}/sub: cannot read panel file: Is a directory"),
    "corr-is-dir": (["clusters", "{d}/sub", "--kmax", "2"],
                    "{d}/sub: cannot read correlation file: Is a directory"),
    "loadings-is-dir": (["ftest", "{d}/p.csv", "{d}/sub", "{d}/p.csv", "{d}/sub"],
                        "{d}/sub: cannot read loadings file: Is a directory"),
    "panel-not-utf8": (["analyze", "{d}/bad.csv"],
                       "{d}/bad.csv: cannot read panel file: not utf-8 text"),
    "corr-not-utf8": (["analyze", "{d}/bad.csv", "--corr"],
                      "{d}/bad.csv: cannot read correlation file: not utf-8 text"),
    "config-not-utf8": (["--config", "{d}/bad.csv", "analyze", "{d}/p.csv"],
                        "{d}/bad.csv: cannot read config file: not utf-8 text"),
    "out-in-missing-dir": (["model", "{d}/m.json", "--op", "eigen", "--out", "{d}/no/o.json"],
                           "{d}/no/o.json: cannot write: No such file or directory"),
    "out-is-dir": (["analyze", "{d}/c.csv", "--corr", "--out", "{d}/sub"],
                   "{d}/sub: cannot write: Is a directory"),
    "synth-out-in-missing-dir": (["synth", "--seed", "1", "--n", "6", "--clusters", "2",
                                  "--n-obs", "20", "--panel-out", "{d}/no/p.csv",
                                  "--model-out", "{d}/s.json"],
                                 "{d}/no/p.csv: cannot write: No such file or directory"),
}


class TestIOFailures:
    @pytest.mark.parametrize("argv,message", IO_FAILURES.values(), ids=IO_FAILURES)
    def test_exit_2_naming_the_path(self, tmp_path, capsys, argv, message):
        d = tmp_path
        (d / "sub").mkdir()
        rng = np.random.default_rng(1)
        pm.save_panel(pm.AlphaPanel(labels=["a", "b", "c"], times=[str(t) for t in range(20)],
                                    values=rng.standard_normal((20, 3))), d / "p.csv")
        write_corr(d / "c.csv", np.eye(3))
        (d / "m.json").write_text(json.dumps({"mode": "binary", "sizes": [2, 1],
                                              "phi": [1.0, 1.0]}))
        (d / "bad.csv").write_bytes(b"time,a,b\n1,0.1,\xff\n2,0.2,0.3\n")
        files = sorted(d.rglob("*"))
        assert run([a.format(d=d) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(d=d)}\n")
        # no temporary file is left behind
        assert sorted(d.rglob("*")) == files


class TestFloatGrammar:
    """Cells np.loadtxt does not parse but float() does (digit underscores,
    non-ASCII digits, padded and quoted NA cells, quoted labels) still load,
    cell by cell."""

    def test_panel(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text('time,a,b\n1,1_0, NA \n2,\u0661\u0662,"NA"\n"3",0.5,0.25\n'
                        '4,-0.5,\t\n5,0.1,0.2\n')
        panel = pm.load_panel(path, na_policy="literal_NA")
        assert panel.times == ["1", "2", "3", "4", "5"]
        np.testing.assert_array_equal(
            panel.values, [[10, np.nan], [12, np.nan], [0.5, 0.25], [-0.5, np.nan], [0.1, 0.2]])

    def test_correlation(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(',a,"b,c"\na,1,0.2_5\n"b,c",\u0660.25,1\n')
        corr = pm.load_correlation(path)
        assert corr.labels == ["a", "b,c"]
        np.testing.assert_array_equal(corr.psi, [[1, 0.25], [0.25, 1]])


class TestTracedLayers:
    """The benchmark's traced run wraps module attributes listed in
    perfbench/tracing.py; each must exist and be reached through its
    module, so that the wrappers see every call."""

    def layers(self):
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        return [(mod, attr) for mod, attrs in tracing.LAYERS.items() for attr in attrs]

    def test_layers_exist(self):
        for mod, attr in self.layers():
            assert callable(getattr(importlib.import_module(f"alphaturn.{mod}"), attr))

    def test_model_layers_are_called_through_their_modules(self, tmp_path, monkeypatch):
        called = set()
        for mod, attr in self.layers():
            if mod not in ("cli", "factor_model"):
                continue
            module = importlib.import_module(f"alphaturn.{mod}")

            def wrapper(*args, _real=getattr(module, attr), _name=(mod, attr), **kwargs):
                called.add(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, attr, wrapper)
        rng = np.random.default_rng(5)
        docs = [
            {"mode": "binary", "sizes": [3, 2], "phi": [1.0, 2.0]},
            {"mode": "binary", "sizes": [3, 2], "phi": [[1.0, 0.3], [0.3, 1.0]]},
            {"mode": "dense", "omega": (rng.random((6, 2)) + 0.2).tolist(), "phi": [1.0, 1.0]},
            {"mode": "dense", "omega": (rng.random((6, 2)) + 0.2).tolist(), "phi": [1.0, 1.0],
             "xi": [0.3] * 6},
        ]
        for k, doc in enumerate(docs):
            path = tmp_path / f"m{k}.json"
            path.write_text(json.dumps(doc))
            assert run(["model", str(path), "--op", "eigen", "--out", str(tmp_path / "o")]) == 0
        assert run(["model", str(tmp_path / "m0.json"), "--op", "rho-curve",
                    "--out", str(tmp_path / "o")]) == 0
        assert called == {(mod, attr) for mod, attr in self.layers()
                          if mod in ("cli", "factor_model")}


def test_synth_data_through_every_command(tmp_path):
    """A synth panel and model through analyze, clusters, model and ftest:
    each exits 0 and writes strict JSON, without NaN or Infinity."""
    d = tmp_path
    assert run(["synth", "--seed", "1", "--n", "60", "--clusters", "4", "--n-obs", "30",
                "--panel-out", f"{d}/panel.csv", "--model-out", f"{d}/model.json"]) == 0
    panel = pm.load_panel(d / "panel.csv")
    pm.save_correlation(pm.pairwise_correlation(panel), d / "corr.csv")
    # the F-test with the model's last cluster as the new one: the old
    # panel drops its alphas
    assignment = json.loads((d / "model.json").read_text())["assignment"]
    old = [j for j, c in enumerate(assignment) if c < max(assignment)]
    pm.save_panel(pm.AlphaPanel(labels=[panel.labels[j] for j in old], times=panel.times,
                                values=panel.values[:, old]), d / "panel_old.csv")
    for name, cols in (("old", old), ("new", range(len(assignment)))):
        (d / f"loadings_{name}.csv").write_text("alpha,cluster\n" + "".join(
            f"{panel.labels[j]},{assignment[j]}\n" for j in cols))
    for argv in (
        ["analyze", f"{d}/panel.csv", "--deform", "--out", f"{d}/analyze.json"],
        ["clusters", f"{d}/corr.csv", "--deform", "--kmax", "5", "--out", f"{d}/sweep.csv",
         "--summary-out", f"{d}/knee.json"],
        # the top pair from eigenvalues alone, and a basis left unsigned
        ["analyze", f"{d}/corr.csv", "--corr", "--out", f"{d}/analyze_corr.json"],
        ["analyze", f"{d}/corr.csv", "--corr", "--raw-basis", "--out", f"{d}/analyze_raw.json"],
        ["model", f"{d}/model.json", "--op", "eigen", "--out", f"{d}/eigen.json"],
        ["ftest", f"{d}/panel_old.csv", f"{d}/loadings_old.csv", f"{d}/panel.csv",
         f"{d}/loadings_new.csv", "--out", f"{d}/fstats.csv", "--summary-out", f"{d}/verdict.json"],
    ):
        assert run(argv) == 0, argv

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    docs = {name: json.loads((d / f"{name}.json").read_text(), parse_constant=reject)
            for name in ("analyze", "analyze_corr", "analyze_raw", "knee", "eigen", "verdict")}
    # 60 alphas and 30 observations: the panel's correlation matrix is singular
    assert docs["analyze"]["deformed"]
    assert "signs" in docs["analyze_corr"] and "signs" not in docs["analyze_raw"]
    assert docs["eigen"]["method"] == "closed-form-binary"
